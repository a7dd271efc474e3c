"""Seeded inputs for every workload, all derived from one ``--seed``.

The repo's ``populate_*`` helpers tie every table to one size argument
and fill only part of the schema the corpus reads.  The page workloads
need each table sized on its own: the tables an IN subquery reads
(``process``, ``workproduct``, ``tracked_project``) stay at a few
hundred rows, because the engine re-runs an uncorrelated IN subquery
once per outer row, while the scanned and joined tables grow to the
workload's scale.  README.md records the sizes and why they were
chosen.

Everything here is a pure function of the seed: the same seed gives
the same databases, the same page sequence with the same arguments,
and the same fragment order for every translation pass.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Tuple

from repro.corpus.advanced import create_advanced_database
from repro.corpus.schema import create_itracker_database, create_wilos_database

#: Row counts per table at each scale.  ``large`` feeds
#: pageload-inferred (SQL only), ``small`` feeds pageload-orm, where
#: the original code's nested loops are O(n*m) in Python.
SIZES: Dict[str, Dict[str, int]] = {
    "large": {
        "participant": 20_000, "role": 500, "project": 1_000,
        "process": 200, "role_descriptor": 60,
        "workproduct": 200, "workproduct_descriptor": 60,
        "issue": 20_000, "tracked_project": 200, "tracker_user": 2_000,
        "notification": 5_000, "component": 60,
        "r": 5_000, "s": 500, "t": 5_000, "u": 500,
    },
    "small": {
        "participant": 500, "role": 20, "project": 25,
        "process": 20, "role_descriptor": 50,
        "workproduct": 30, "workproduct_descriptor": 50,
        "issue": 500, "tracked_project": 20, "tracker_user": 100,
        "notification": 2_000, "component": 50,
        "r": 150, "s": 30, "t": 500, "u": 20,
    },
}

#: How many times each page appears in one pass of a page workload.
#: Every pass holds the same page mix (40 pages x 5 = 200 loads); the
#: seed only shuffles the order and draws the arguments, so the
#: latency percentiles do not swing with how often the slow pages
#: happen to be drawn.
PAGE_REPEATS = 5


def build_databases(seed: int, scale: str) -> Dict[str, Any]:
    """The corpus database of each application (``wilos``,
    ``itracker``, ``advanced``) at ``scale``, filled from ``seed``."""
    n = SIZES[scale]
    rng = random.Random("data:%d:%s" % (seed, scale))
    return {"wilos": _wilos(rng, n), "itracker": _itracker(rng, n),
            "advanced": _advanced(rng, n)}


def _spread(rng: random.Random, n: int, k: int) -> List[int]:
    """``n`` values over ``range(k)``, each used n/k times (+-1), in
    seeded order.  Every seed gets the same multiset, so selection,
    join and group sizes, and with them the work, do not vary with the
    seed; only which rows match does."""
    values = [i % k for i in range(n)]
    rng.shuffle(values)
    return values


def _flags(rng: random.Random, n: int, share: float) -> List[int]:
    """Exactly ``round(n * share)`` ones among ``n`` values, shuffled."""
    ones = round(n * share)
    values = [1] * ones + [0] * (n - ones)
    rng.shuffle(values)
    return values


def _wilos(rng: random.Random, n: Dict[str, int]):
    db = create_wilos_database()
    db.insert_many("role", ({"role_id": i, "role_name": "role%d" % i}
                            for i in range(n["role"])))
    unfinished = _flags(rng, n["project"], 0.1)
    creators = _spread(rng, n["project"], n["participant"])
    db.insert_many("project", (
        {"id": i, "project_name": "proj%d" % i,
         "is_finished": 1 - unfinished[i], "creator_id": creators[i]}
        for i in range(n["project"])))
    roles = _spread(rng, n["participant"], n["role"])
    projects = _spread(rng, n["participant"], n["project"])
    managers = _flags(rng, n["participant"], 0.1)
    db.insert_many("participant", (
        {"id": i, "login": "user%d" % i, "role_id": roles[i],
         "project_id": projects[i], "is_manager": managers[i]}
        for i in range(n["participant"])))
    # Half of the descriptors point at a process manager id.
    manager_ids = _spread(rng, n["process"], n["process"])
    db.insert_many("process", (
        {"id": i, "process_name": "proc%d" % i, "manager_id": manager_ids[i]}
        for i in range(n["process"])))
    rd_roles = _spread(rng, n["role_descriptor"], n["role"])
    rd_processes = _spread(rng, n["role_descriptor"], 2 * n["process"])
    db.insert_many("role_descriptor", (
        {"id": i, "role_id": rd_roles[i], "process_id": rd_processes[i],
         "descriptor_name": "rd%d" % i}
        for i in range(n["role_descriptor"])))
    wp_states = _flags(rng, n["workproduct"], 0.5)
    wp_projects = _spread(rng, n["workproduct"], 10)
    db.insert_many("workproduct", (
        {"id": i, "workproduct_name": "wp%d" % i, "state": wp_states[i],
         "project_id": wp_projects[i]}
        for i in range(n["workproduct"])))
    # Half of the descriptors point at an existing work product.
    wpd_products = _spread(rng, n["workproduct_descriptor"],
                           2 * n["workproduct"])
    wpd_processes = _spread(rng, n["workproduct_descriptor"], n["process"])
    wpd_states = _flags(rng, n["workproduct_descriptor"], 0.5)
    db.insert_many("workproduct_descriptor", (
        {"id": i, "workproduct_id": wpd_products[i],
         "process_id": wpd_processes[i], "state": wpd_states[i]}
        for i in range(n["workproduct_descriptor"])))
    return db


def _itracker(rng: random.Random, n: Dict[str, int]):
    db = create_itracker_database()
    tp_status = _flags(rng, n["tracked_project"], 0.5)
    db.insert_many("tracked_project", (
        {"id": i, "project_name": "proj%d" % i, "status": tp_status[i]}
        for i in range(n["tracked_project"])))
    supers = _flags(rng, n["tracker_user"], 0.1)
    db.insert_many("tracker_user", (
        {"id": i, "login": "dev%d" % i, "status": 1, "is_super": supers[i]}
        for i in range(n["tracker_user"])))
    projects = _spread(rng, n["issue"], n["tracked_project"])
    open_ = _flags(rng, n["issue"], 0.3)
    severities = _spread(rng, n["issue"], 5)
    owners = _spread(rng, n["issue"], n["tracker_user"])
    created = _spread(rng, n["issue"], n["issue"])
    db.insert_many("issue", (
        {"id": i, "project_id": projects[i], "status": open_[i],
         "severity": severities[i], "owner_id": owners[i],
         "created": 10 * created[i]}
        for i in range(n["issue"])))
    issues = _spread(rng, n["notification"], n["issue"])
    users = _spread(rng, n["notification"], n["tracker_user"])
    roles = _spread(rng, n["notification"], 3)
    db.insert_many("notification", (
        {"id": i, "issue_id": issues[i], "user_id": users[i],
         "role": roles[i]}
        for i in range(n["notification"])))
    # Half of the components belong to an existing project.
    comp_projects = _spread(rng, n["component"], 2 * n["tracked_project"])
    db.insert_many("component", (
        {"id": i, "project_id": comp_projects[i],
         "component_name": "comp%d" % i}
        for i in range(n["component"])))
    return db


def _advanced(rng: random.Random, n: Dict[str, int]):
    db = create_advanced_database()
    # Every s.b and every u.c matches exactly one row on the other side.
    r_keys = _spread(rng, n["r"], n["r"])
    s_keys = _spread(rng, n["s"], n["s"])
    u_keys = _spread(rng, n["u"], n["s"])
    db.insert_many("r", ({"id": i, "a": r_keys[i]} for i in range(n["r"])))
    db.insert_many("s", ({"id": i, "b": s_keys[i]} for i in range(n["s"])))
    db.insert_many("t", ({"id": i} for i in _spread(rng, n["t"], n["t"])))
    db.insert_many("u", ({"id": i, "c": u_keys[i]} for i in range(n["u"])))
    return db


# -- page arguments -----------------------------------------------------------

def _page_args(fragment_id: str, rng: random.Random,
               n: Dict[str, int]) -> Tuple[Any, ...]:
    """Arguments for one page load, drawn from the generated data."""
    if fragment_id == "w29":
        return ("user%d" % rng.randrange(n["participant"]),)
    if fragment_id == "w30":
        return ("user%d" % rng.randrange(n["participant"]),
                rng.randrange(n["role"]))
    if fragment_id == "w37":
        return ("proc%d" % rng.randrange(n["process"]),)
    if fragment_id in ("w42", "w43"):
        return (rng.randrange(n["participant"]),)
    if fragment_id == "i12":
        return (rng.randrange(3),)
    if fragment_id == "i13":
        return (rng.randrange(n["tracker_user"]),)
    return ()


def page_sequence(seed: int, scale: str, page_ids: List[str]
                  ) -> List[Tuple[str, Tuple[Any, ...]]]:
    """One pass of page loads: every page PAGE_REPEATS times, shuffled."""
    rng = random.Random("pages:%d:%s" % (seed, scale))
    pages = [pid for pid in page_ids for _ in range(PAGE_REPEATS)]
    rng.shuffle(pages)
    return [(pid, _page_args(pid, rng, SIZES[scale])) for pid in pages]


def pass_orders(seed: int, fragments: List[Any]) -> Iterator[List[Any]]:
    """The fragment order of each translation pass, a new shuffle per
    pass."""
    rng = random.Random("translate:%d" % seed)
    while True:
        order = list(fragments)
        rng.shuffle(order)
        yield order
