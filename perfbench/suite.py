"""Run every workload, untraced and then traced, and print one table.

    python3 perfbench/suite.py [--seed N] [--seconds S] [WORKLOAD ...]

Each run is its own ``run.py`` process, so no cache carries over between
workloads or runs, and the runs go one at a time, never concurrently.  A run
that outlives ``RUN_CAP_S`` is killed and counted as failed.  The table
gives the end-to-end metrics of the untraced run, ``failed_share``
(outputs that differed or calls that raised, over outputs attempted) and the
tracing overhead: the traced run's ``trace.wall_s`` minus the untraced
run's ``wall_s``.  Exit status 1 when any run failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_CAP_S = 175
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired:
        return None, "killed after %d s" % RUN_CAP_S
    lines = res.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None, "exit %d: %s" % (res.returncode, res.stderr.strip())
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    print("%-9s %9s %9s %12s %13s %12s %12s" % (
        "workload", "wall_s", "setup_s", "peak_rss_mb", "failed_share",
        "traced_s", "overhead_s"))
    all_ok = True
    for w in args.workloads:
        plain, log = run_once(w, args.seed, args.seconds, 0)
        traced, tlog = run_once(w, args.seed, args.seconds, 1)
        for result, text in ((plain, log), (traced, tlog)):
            if result is None or not result["correct"]:
                all_ok = False
                print(text, file=sys.stderr)
        if plain is None:
            print("%-9s run failed" % w)
            continue
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        share = plain["failed"] / plain["attempted"]
        tw = traced["metrics"]["trace.wall_s"]["value"] if traced else None
        print("%-9s %9.4f %9.4f %12.1f %13.4f %12s %12s" % (
            w, m["wall_s"], m["setup_s"], m["peak_rss_mb"], share,
            "%.4f" % tw if tw is not None else "failed",
            "%.4f" % (tw - m["wall_s"]) if tw is not None else "-"))
        print(log.splitlines()[0])
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
