"""Cross-mode differential SQL fuzzing.

A seeded generator builds random schemas, data and SELECT statements
(joins, filters, uncorrelated IN subqueries, aggregates, GROUP BY /
HAVING, ORDER BY / LIMIT), then executes each query under every
execution mode the engine offers — the seed pipeline (the oracle, on
every case), greedy planner, cost-based planner and a small batch
size — and asserts the identity contract: same rows
(values *and* order) and columns everywhere, plus engine-statistics
identity within each stats family (see ``_modes`` — cost-based
planning may legitimately pick different join strategies than the
greedy chain).

Determinism: every case derives its own ``random.Random`` from a fixed
seed and the case index, so a failing case index reproduces exactly.
On failure the harness first *reduces* the dataset (dropping rows while
the mismatch persists) and then prints a self-contained repro script.

Scale: ``REPRO_FUZZ_ITERS`` overrides the default 200 cases
(``make fuzz-smoke`` runs a smaller fixed-seed subset in CI; crank it
to thousands for soak runs).
"""

import os
import random
import re

import pytest

from repro.sql.database import Database
from repro.sql.executor import ExecutorOptions

SEED = 1337
ITERS = int(os.environ.get("REPRO_FUZZ_ITERS", "200"))
CHUNK = 25

COMPARISONS = ("=", "!=", "<", ">", "<=", ">=")
AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")


def _stats_tuple(stats):
    return (stats.rows_scanned, stats.index_probes, stats.hash_joins,
            stats.nested_loop_joins, stats.index_scans, stats.full_scans)


# -- generation ----------------------------------------------------------------


def _build_tables(rng):
    """1-3 tables with per-table-distinct column names, skewed keys
    and deliberate edge shapes (empty / single row / all-duplicate
    keys)."""
    tables = {}
    for t in range(rng.randint(1, 3)):
        name = "t%d" % t
        columns = ("id", "k%d" % t, "v%d" % t, "w%d" % t)
        shape = rng.choices(("empty", "single", "dupkeys", "normal"),
                            weights=(1, 1, 2, 8))[0]
        if shape == "empty":
            n = 0
        elif shape == "single":
            n = 1
        else:
            n = rng.randint(2, 24)
        domain = rng.randint(1, 8)
        rows = []
        for i in range(n):
            if shape == "dupkeys":
                key = domain - 1
            else:
                # Skew: the min of two uniforms piles keys low.
                key = min(rng.randint(0, domain), rng.randint(0, domain))
            rows.append({
                "id": i,
                columns[1]: key,
                columns[2]: rng.choice((0, 1, 2, 3, 5, 8, 13)),
                columns[3]: rng.randint(-10, 100),
            })
        tables[name] = {
            "columns": columns,
            "rows": rows,
            "index": columns[1] if rng.random() < 0.5 else None,
        }
    return tables


def _filter_sql(rng, sources, tables, params):
    """One WHERE conjunct over a random source column."""
    alias, tname = rng.choice(sources)
    column = rng.choice(tables[tname]["columns"])
    op = rng.choice(COMPARISONS)
    value = rng.choice((0, 1, 2, 3, 5, 8, 13, 50, -3))
    if rng.random() < 0.15:
        pname = "p%d" % len(params)
        params[pname] = value
        rhs = ":%s" % pname
    else:
        rhs = str(value)
    clause = "%s.%s %s %s" % (alias, column, op, rhs)
    if rng.random() < 0.2:
        other = "%s.%s %s %d" % (alias,
                                 rng.choice(tables[tname]["columns"]),
                                 rng.choice(COMPARISONS),
                                 rng.choice((0, 2, 5, 40)))
        clause = "(%s OR %s)" % (clause, other)
    if rng.random() < 0.15:
        clause = "NOT %s" % clause
    return clause


def _in_sql(rng, sources, tables):
    """One uncorrelated IN-subquery conjunct over a random source
    column; the planned engine evaluates it through a per-row closure,
    the seed pipeline through its evaluator, once per candidate row."""
    alias, tname = rng.choice(sources)
    column = rng.choice(tables[tname]["columns"])
    inner = rng.choice(sorted(tables))
    inner_columns = tables[inner]["columns"]
    clause = "%s.%s IN (SELECT b.%s FROM %s b" % (
        alias, column, rng.choice(inner_columns), inner)
    if rng.random() < 0.5:
        clause += " WHERE b.%s %s %d" % (rng.choice(inner_columns),
                                         rng.choice(COMPARISONS),
                                         rng.choice((0, 1, 2, 3, 5, 8)))
    return clause + ")"


def _agg_sql(rng, sources, tables, as_name):
    """One aggregate call over a random source column."""
    func = rng.choice(AGGREGATES)
    if func == "COUNT" and rng.random() < 0.5:
        return "COUNT(*) AS %s" % as_name
    alias, tname = rng.choice(sources)
    column = rng.choice(tables[tname]["columns"])
    return "%s(%s.%s) AS %s" % (func, alias, column, as_name)


def _build_query(rng, tables):
    """One random SELECT over the generated tables; returns (sql,
    params)."""
    names = sorted(tables)
    n_sources = rng.randint(1, min(3, len(names) + 1))
    sources = [("a%d" % i, rng.choice(names)) for i in range(n_sources)]
    from_sql = ", ".join("%s %s" % (t, a) for a, t in sources)

    params = {}
    conjuncts = []
    # Join each source to its predecessor on the key columns (else the
    # pair cross-joins through the nested-loop operator).
    for j in range(1, n_sources):
        if rng.random() < 0.85:
            left_alias, left_t = sources[j - 1]
            right_alias, right_t = sources[j]
            conjuncts.append("%s.k%s = %s.k%s"
                             % (right_alias, right_t[1:],
                                left_alias, left_t[1:]))
    for _ in range(rng.randint(0, 2)):
        conjuncts.append(_filter_sql(rng, sources, tables, params))
    if rng.random() < 0.2:
        conjuncts.append(_in_sql(rng, sources, tables))

    mode = rng.choices(("plain", "whole_agg", "grouped"),
                       weights=(5, 2, 3))[0]
    order_limit = ""
    if mode == "plain":
        if rng.random() < 0.25:
            items = "*"
            if rng.random() < 0.5:
                # The shape QBS emits; over a join it names one source.
                items = "%s.*" % rng.choice(sources)[0]
        else:
            picked = []
            for _ in range(rng.randint(1, 3)):
                alias, tname = rng.choice(sources)
                picked.append("%s.%s"
                              % (alias,
                                 rng.choice(tables[tname]["columns"])))
            items = ", ".join(picked)
            if rng.random() < 0.2 and len(picked) == 1:
                items = "DISTINCT " + items
        if rng.random() < 0.5:
            keys = []
            for _ in range(rng.randint(1, 2)):
                alias, tname = rng.choice(sources)
                keys.append("%s.%s%s"
                            % (alias,
                               rng.choice(tables[tname]["columns"]),
                               " DESC" if rng.random() < 0.4 else ""))
            order_limit = " ORDER BY " + ", ".join(keys)
            if rng.random() < 0.5:
                order_limit += " LIMIT %d" % rng.randint(0, 9)
    elif mode == "whole_agg":
        items = ", ".join(_agg_sql(rng, sources, tables, "c%d" % i)
                          for i in range(rng.randint(1, 3)))
        if rng.random() < 0.3:
            # Comparisons only over COUNT/SUM: never None, even on
            # empty input (SUM() of nothing is 0 by the seed's rule).
            func = rng.choice(("COUNT(*)",
                               "SUM(%s.id)" % sources[0][0]))
            items += ", %s %s %d AS flag" % (
                func, rng.choice(COMPARISONS), rng.randint(0, 20))
    else:
        group_keys = []
        for _ in range(rng.randint(1, 2)):
            alias, tname = rng.choice(sources)
            key = "%s.%s" % (alias, rng.choice(tables[tname]["columns"]))
            if key not in group_keys:
                group_keys.append(key)
        key_items = ["%s AS g%d" % (key, i)
                     for i, key in enumerate(group_keys)]
        agg_items = [_agg_sql(rng, sources, tables, "c%d" % i)
                     for i in range(rng.randint(1, 2))]
        items = ", ".join(key_items + agg_items)
        having = ""
        if rng.random() < 0.5:
            # Groups are never empty, so any aggregate compares safely.
            alias, tname = rng.choice(sources)
            calls = ["COUNT(*)",
                     "SUM(%s.id)" % alias,
                     "AVG(%s.%s)" % (alias,
                                     rng.choice(tables[tname]["columns"]))]
            clause = "%s %s %d" % (rng.choice(calls),
                                   rng.choice(COMPARISONS),
                                   rng.randint(0, 10))
            if rng.random() < 0.3:
                clause += " AND COUNT(*) %s %d" % (
                    rng.choice(COMPARISONS), rng.randint(0, 5))
            having = " HAVING " + clause
        suffix = " GROUP BY " + ", ".join(group_keys) + having
        if rng.random() < 0.5:
            # Grouped ORDER BY names output columns.
            out = rng.choice(["g0"] + ["c%d" % i
                                       for i in range(len(agg_items))])
            suffix += " ORDER BY %s%s" % (
                out, " DESC" if rng.random() < 0.4 else "")
            if rng.random() < 0.4:
                suffix += " LIMIT %d" % rng.randint(0, 5)
        order_limit = suffix

    where = (" WHERE " + " AND ".join(conjuncts)) if conjuncts else ""
    sql = "SELECT %s FROM %s%s%s" % (items, from_sql, where, order_limit)
    return sql, params


def build_case(index):
    """The deterministic (tables, sql, params) for one case index."""
    rng = random.Random(SEED * 1000003 + index)
    tables = _build_tables(rng)
    sql, params = _build_query(rng, tables)
    return tables, sql, params


# -- execution matrix ----------------------------------------------------------


def _make_db(tables):
    db = Database()
    for name in sorted(tables):
        spec = tables[name]
        db.create_table(name, spec["columns"])
        if spec["rows"]:
            db.insert_many(name, spec["rows"])
        if spec["index"]:
            db.create_index(name, spec["index"])
    return db


def _modes(index, rng):
    """The mode matrix for one case: (label, options, stats_family).

    Stats compare within a family, not globally: the cost-based
    planner may legitimately choose different join strategies or
    access paths than the greedy chain (that is its job), so the
    greedy planner and the seed pipeline pin stats against *each
    other*, while the batch-size mode — which only changes how rows
    are chunked, never the chosen plan — pins stats against the
    cost-based baseline.  Rows and columns must be
    identical across all modes unconditionally.
    """
    modes = [("greedy", ExecutorOptions(cost_based=False), "greedy"),
             ("seed-pipeline", ExecutorOptions(planner=False), "greedy")]
    size = rng.choice((1, 3, 7))
    modes.append(("batch-%d" % size, ExecutorOptions(batch_size=size),
                  "baseline"))
    return modes


def _run(db, sql, params):
    try:
        return db.execute(sql, params)
    except Exception as exc:     # noqa: BLE001 - compared across modes
        return ("raises", type(exc).__name__, str(exc))


def _differs(result, baseline, family, family_stats):
    """Whether one mode's result breaks the identity contract."""
    if isinstance(baseline, tuple) or isinstance(result, tuple):
        return baseline != result
    if (list(result.rows) != list(baseline.rows)
            or result.columns != baseline.columns):
        return True
    stats = _stats_tuple(result.stats)
    if family == "baseline":
        return stats != _stats_tuple(baseline.stats)
    return stats != family_stats.setdefault(family, stats)


def _mismatch(tables, sql, params, index):
    """The first diverging mode label, or None if all modes agree.

    Every mode runs the query twice on one view: the second run reuses
    the first run's cached plan and must meet the same contract.
    """
    db = _make_db(tables)
    rng = random.Random(SEED * 7 + index)
    baseline = _run(db, sql, params)
    family_stats = {}
    for label, options, family in _modes(index, rng):
        view = db.view(options)
        first = _run(view, sql, params)
        second = _run(view, sql, params)
        if _differs(first, baseline, family, family_stats):
            return label
        if _differs(second, baseline, family, family_stats):
            return label + " (second run)"
    return None


# -- reduction + repro ---------------------------------------------------------


def _reduce(tables, sql, params, index, budget=80):
    """Shrink table data while the mismatch persists."""
    current = {name: dict(spec, rows=list(spec["rows"]))
               for name, spec in tables.items()}
    shrunk = True
    while shrunk and budget > 0:
        shrunk = False
        for name in sorted(current):
            rows = current[name]["rows"]
            chunk = max(1, len(rows) // 2)
            while rows and budget > 0:
                trial = {n: (dict(spec, rows=spec["rows"][:-chunk])
                             if n == name else spec)
                         for n, spec in current.items()}
                budget -= 1
                if _mismatch(trial, sql, params, index):
                    current = trial
                    rows = current[name]["rows"]
                    shrunk = True
                else:
                    if chunk == 1:
                        break
                    chunk = max(1, chunk // 2)
    return current


def _repro_script(tables, sql, params, index, label):
    lines = [
        "# fuzz case %d diverged under mode %r" % (index, label),
        "from repro.sql.database import Database",
        "from repro.sql.executor import ExecutorOptions",
        "db = Database()",
    ]
    for name in sorted(tables):
        spec = tables[name]
        lines.append("db.create_table(%r, %r)" % (name, spec["columns"]))
        for row in spec["rows"]:
            lines.append("db.insert(%r, %r)" % (name, row))
        if spec["index"]:
            lines.append("db.create_index(%r, %r)"
                         % (name, spec["index"]))
    lines.append("sql = %r" % sql)
    lines.append("params = %r" % params)
    lines.append("base = db.execute(sql, params)")
    lines.append("# re-run under the diverging mode and compare "
                 "rows/columns/stats")
    return "\n".join(lines)


def _run_cases(start, stop):
    for index in range(start, stop):
        tables, sql, params = build_case(index)
        label = _mismatch(tables, sql, params, index)
        if label is not None:
            reduced = _reduce(tables, sql, params, index)
            print(_repro_script(reduced, sql, params, index, label))
            pytest.fail("fuzz case %d: mode %r diverged from the "
                        "default planner on %r (reduced repro above)"
                        % (index, label, sql))


@pytest.mark.parametrize("chunk", range((ITERS + CHUNK - 1) // CHUNK))
def test_differential_fuzz(chunk):
    _run_cases(chunk * CHUNK, min((chunk + 1) * CHUNK, ITERS))


def test_generator_is_deterministic():
    assert build_case(17) == build_case(17)
    sqls = {build_case(i)[1] for i in range(40)}
    assert len(sqls) > 25     # the generator actually varies


def test_generator_covers_the_clause_space():
    """The fixed seed must keep exercising every major clause — a
    generator regression that stops emitting joins or GROUP BY would
    silently gut the fuzzer."""
    corpus = " || ".join(build_case(i)[1] for i in range(200))
    for needle in ("GROUP BY", "HAVING", "ORDER BY", "LIMIT",
                   "DISTINCT", "NOT ", " OR ", "COUNT", "SUM", "AVG",
                   "MIN", "MAX", ":p0", "a1.", "a2.", ".*",
                   "IN (SELECT"):
        assert needle in corpus, needle
