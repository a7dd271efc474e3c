"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload translate --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every operation
succeeded and every result matched its reference.

``--setup-only`` imports the program, sets the workload up once and
prints the seconds that took, as measured and at the reference speed;
an end-to-end run starts it in fresh processes to sample cold set-up
time.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.hostspeed import HostSpeed  # noqa: E402


def cold_setup(workload: str, seed: int):
    """(measured, at reference speed) seconds a fresh process takes to
    import the program and set ``workload`` up."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    raw, at_reference = map(float, out.split()[-2:])
    return raw, at_reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    speed = HostSpeed()
    speed.sample(5)   # the host's speed just before the program is imported
    started = time.perf_counter()
    from perfbench import workloads  # imports the program: part of set-up

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    import_s = time.perf_counter() - started
    if args.trace:
        spans = os.path.join(ROOT, "perfbench", "out", "spans-%s-seed%d.tsv.gz"
                             % (args.workload, args.seed))
        result = workloads.traced(args.workload, args.seed, args.seconds,
                                  spans)
    else:
        workload, setup_s = workloads.setup(args.workload, args.seed)
        raw = import_s + setup_s
        first_setup = raw, speed.bracketed(raw)
        if args.setup_only:
            print("%r %r" % first_setup)
            return 0
        result = workloads.end_to_end(
            workload, args.seconds, first_setup,
            lambda: cold_setup(args.workload, args.seed))
    for name, metric in result["metrics"].items():
        print("%-36s %16.6f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
