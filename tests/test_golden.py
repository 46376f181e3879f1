"""Golden outputs: the CLI cases of golden/cases.json, each with its exit
status and its stdout as committed bytes in golden/<name>.out.

The test runs each case in-process.  Stderr is not compared: argparse words
its messages differently across Python versions.

Run as a script from the root of a checkout, with src/ on PYTHONPATH, it
runs every case as a subprocess under PYTHONHASHSEED 0 and 1 and compares
both runs with the golden bytes; it exits 1 on any difference.  With
--record it writes each case's stdout (hash seed 0) to its golden file
instead, so that a change that means to alter an output shows the new
bytes in its own diff.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def golden_bytes(case):
    return (GOLDEN / (case["name"] + ".out")).read_bytes()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, monkeypatch):
    monkeypatch.delenv("SPECTRUM_BUDGET", raising=False)
    for key, value in case.get("env", {}).items():
        monkeypatch.setenv(key, value)
    code, out, _ = run_cli(*case["argv"])
    assert code == case["exit"]
    assert out.encode() == golden_bytes(case)


def run_case(case, seed):
    """(exit status, stdout bytes) of the case in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed), **case.get("env", {}))
    if "SPECTRUM_BUDGET" not in case.get("env", {}):
        env.pop("SPECTRUM_BUDGET", None)
    proc = subprocess.run([sys.executable, "-m", "spectrumlab.cli",
                           *case["argv"]], env=env, capture_output=True)
    return proc.returncode, proc.stdout


def main(argv):
    if argv == ["--record"]:
        for case in CASES:
            (GOLDEN / (case["name"] + ".out")).write_bytes(run_case(case, 0)[1])
        return 0
    failures = 0
    for case in CASES:
        for seed in (0, 1):
            code, out = run_case(case, seed)
            same = out == golden_bytes(case)
            if code != case["exit"] or not same:
                failures += 1
                print("%s: hash seed %d exited %d (expected %d), stdout %s"
                      % (case["name"], seed, code, case["exit"],
                         "matches" if same else "differs"), file=sys.stderr)
    print("%d cases, %d failed runs" % (len(CASES), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
