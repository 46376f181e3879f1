"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: spectrumlab is imported from the
checkout's ``src/`` and nowhere else.  Pass i works on the i-th input set,
drawn from the seed by the workload's generator and built into the
program's objects outside the timed region.  Set-up (import plus building
the first input set) is repeated ``SETUPS`` times, each time with the
modules it imported (spectrumlab's and the standard library's) removed
from ``sys.modules`` first, and ``setup_s`` is its median.  Then one caller
runs passes back to back (a closed loop, one call at a time) until
``--seconds`` have passed; each pass starts with spectrumlab's lru_caches
emptied.

On the shared 2-core machine of the baseline (NOTES.md), the speed of the
same work changes by up to 2x from one second to the next, with no steal
time visible inside it.  So every timed region (a set-up or a pass) is
bracketed by a short pure-Python reference loop timed just before and just
after it, and its length is also given at a fixed machine speed (see
``measure``).  ``wall_s`` is the median pass length and ``setup_s`` the
median set-up length, both at that speed.  ``peak_rss_mb`` is the
process's peak resident set.  A pass that runs longer than
``PASS_CAP_S`` is stopped and counted as a failure.

With ``--trace 1`` the calls into each module are timed from outside (see
``tracing.py``), the per-layer metrics are printed instead of the end-to-end
ones, and the spans are written to ``perfbench/out/`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every output was as expected, 1 when an output differed or a call raised,
2 when spectrumlab cannot be imported from this checkout.
"""

import argparse
import gc
import importlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, check  # noqa: E402

MODULES = ("lts", "equivalences", "hml", "geometry", "spectrum",
           "lindenbaum", "topology", "closure", "report")
SETUPS = 21
PASS_CAP_S = 120
REFERENCE_ITERATIONS = 8000
REFERENCE_REPEATS = 9
REFERENCE_S = 0.0027       # reference_s() on the baseline machine
# When the machine slows so that the reference takes k times as long, a
# pass takes about k ** ELASTICITY times as long (measured; NOTES.md).
ELASTICITY = 0.75


class PassTimeout(BaseException):
    """Raised in a pass that outlives PASS_CAP_S.  A BaseException, so that
    no ``except Exception`` inside the program can swallow it."""


def load_spectrumlab():
    """Import spectrumlab afresh from this checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "spectrumlab" or m.startswith("spectrumlab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("spectrumlab")
    if Path(pkg.__file__).resolve().parent != SRC / "spectrumlab":
        raise ImportError("spectrumlab imported from %s, not from %s"
                          % (pkg.__file__, SRC))
    return {m: importlib.import_module("spectrumlab." + m) for m in MODULES}


def input_rng(seed, i):
    """The random source of the run's i-th input set."""
    return random.Random("%d/%d" % (seed, i))


def reference_s():
    """Time of one reference loop: fixed work of the program's kind (tuple
    keys, dict updates, a frozenset), with the cyclic collector paused so
    that the program's heap does not leak into it.  The median of
    ``REFERENCE_REPEATS`` loops, since a single one is often interrupted."""
    gc.disable()
    try:
        times = []
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            acc = {}
            for i in range(REFERENCE_ITERATIONS):
                key = (i % 97, i % 89)
                acc[key] = acc.get(key, 0) + 1
            frozenset(acc)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    finally:
        gc.enable()


def _cap_reached(signum, frame):
    raise PassTimeout("pass exceeded its time cap")


def measure(region, cap_s=PASS_CAP_S):
    """Run ``region()`` and return its result, its length in seconds and its
    length at reference speed: the seconds times (REFERENCE_S / ref) **
    ELASTICITY, where ref is the mean of two reference times taken just
    before and just after it.  A region that outlives ``cap_s`` is stopped
    with PassTimeout."""
    before = reference_s()
    signal.signal(signal.SIGALRM, _cap_reached)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    t0 = time.perf_counter()
    try:
        result = region()
    finally:
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    after = reference_s()
    ref = (before + after) / 2
    return result, seconds, seconds * (REFERENCE_S / ref) ** ELASTICITY


def setup(build, data, baseline):
    """Import spectrumlab and build the first pass's inputs from their
    generated ``data``; returns the length at reference speed, the modules
    and the inputs.  Every module imported since ``baseline`` (the names in
    ``sys.modules`` before the first set-up) is removed first, so that each
    set-up pays the whole import, standard-library modules that only
    spectrumlab needs included.  The modules of an earlier set-up hold
    reference cycles, so they are collected too: every set-up starts from
    the same heap, and earlier copies do not raise the run's peak RSS."""
    for name in set(sys.modules) - baseline:
        del sys.modules[name]
    gc.collect()

    def region():
        modules = load_spectrumlab()
        return modules, build(SimpleNamespace(**modules), data)

    (modules, inputs), _, length = measure(region)
    return length, modules, inputs


def clear_caches(modules):
    """Empty every lru_cache of spectrumlab's module functions and class
    methods, so that no pass reuses an earlier pass's results."""
    for mod in modules.values():
        for obj in list(vars(mod).values()):
            members = vars(obj).values() if isinstance(obj, type) else ()
            for fn in (obj, *members):
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


def layer_metrics(tr, passes, scale, wall_s):
    """Per-layer metrics from a traced run, as means per pass.  Times are
    in the units of ``wall_s``: traced seconds times ``scale``, the run's
    ratio of reference-speed time to raw time.  ``.s`` is a function's
    inclusive time, ``.self_s`` its self time."""
    def per_pass(k):
        return k / passes

    def seconds(raw):
        return raw * scale / passes

    m = {}
    for name in ("lts.FinLTS", "lts.FinLTS.successors", "lts.enumerate_homs",
                 "lts.Homomorphism.compose", "lts.is_rooted_tree",
                 "hml.satisfies", "closure.brute_force_implication",
                 "topology.MorphismUniverse.homs",
                 "topology.ObservationClass.accepts",
                 "lindenbaum.lindenbaum", "geometry.eval_formula"):
        m[name + ".calls"] = (per_pass(tr.calls(name)), "count")
    for name in ("lts.FinLTS", "lts.enumerate_homs", "hml.satisfies"):
        m[name + ".self_s"] = (seconds(tr.self_s(name)), "s")
    for name in ("equivalences.trace_equivalent",
                 "equivalences.failures_equivalent",
                 "equivalences.mutually_similar",
                 "equivalences.ready_sim_equivalent",
                 "equivalences.bisimilar",
                 "closure.brute_force_implication",
                 "closure.heyting_implication_presheaf",
                 "topology.MorphismUniverse", "topology.is_covering",
                 "topology.sieve_pullback", "topology.generate_sieve",
                 "topology.grothendieck_axiom_check",
                 "lindenbaum.lindenbaum", "lindenbaum.automorphisms",
                 "lindenbaum.enumerate_nuclei",
                 "lindenbaum.induced_lattice_map",
                 "spectrum.FiniteDistributiveLattice",
                 "spectrum.join_irreducibles", "spectrum.downset_lattice",
                 "geometry.topos_separation_certificate") + tuple(
                     "report.criterion_%d" % k
                     for k in (1, 2, 3, 4, 5, 6, 7, 8, 12)):
        m[name + ".s"] = (seconds(tr.total_s(name)), "s")
    for name in ("lts.enumerate_homs.results",
                 "equivalences.determinize.states",
                 "lindenbaum.lindenbaum.cache_hits", "lindenbaum.elements",
                 "spectrum.table_entries"):
        m[name] = (per_pass(tr.counters.get(name, 0)), "count")
    homs = tr.calls("topology.MorphismUniverse.homs")
    enumerations = tr.calls("lts.enumerate_homs",
                            "topology.MorphismUniverse.homs")
    m["topology.homs.hit_ratio"] = (1 - enumerations / homs if homs else 0.0,
                                    "ratio")
    oracle = tr.calls("closure.brute_force_implication")
    built = tr.calls("lts.FinLTS", "closure.brute_force_implication")
    m["closure.systems_per_case"] = (built / oracle if oracle else 0.0,
                                     "count")
    m["trace.wall_s"] = (wall_s, "s")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    generate, build, run = WORKLOADS[args.workload]
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    # the benchmark runs at the documented default budget
    os.environ.pop("SPECTRUM_BUDGET", None)

    data = generate(input_rng(args.seed, 0))
    baseline = set(sys.modules)
    try:
        setup_lengths = []
        for _ in range(SETUPS):
            modules = inputs = None  # so that setup() collects them
            length, modules, inputs = setup(build, data, baseline)
            setup_lengths.append(length)
    except ImportError as exc:
        print("cannot import spectrumlab from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    sl = SimpleNamespace(**modules)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(hot=tracing.hot_names())
        tracing.install(tracer, modules)

    # raw pass times and pass lengths at reference speed
    times, lengths, attempted, failures, mutants = [], [], 0, [], {}
    deadline = time.perf_counter() + args.seconds
    for i in itertools.count(1):
        clear_caches(modules)
        if tracer:
            tracer.active = True
        try:
            outputs, seconds, length = measure(
                lambda: run(sl, inputs, expected))
        except PassTimeout as exc:
            failures.append(("pass %d" % i, repr(exc), None))
            attempted += 1
            break
        except Exception as exc:  # a raised call is a counted failure
            failures.append(("pass %d" % i, repr(exc), None))
            outputs = []
        finally:
            if tracer:
                tracer.active = False
        if outputs:
            times.append(seconds)
            lengths.append(length)
        attempted += len(outputs) or 1
        failures.extend(check(outputs))
        for _, got, _ in outputs:
            if isinstance(got, dict):
                for level, holds in got.items():
                    mutants[level] = mutants.get(level, 0) + bool(holds)
        if time.perf_counter() >= deadline:
            break
        inputs = build(sl, generate(input_rng(args.seed, i)))
    passes = len(lengths)

    budget = modules["lts"].enumeration_budget()
    print("workload=%s seed=%d seconds=%g trace=%d passes=%d "
          "spectrum_budget=%d setups=%d median_pass_s=%.4f"
          % (args.workload, args.seed, args.seconds, args.trace, passes,
             budget, SETUPS, statistics.median(times) if times else 0))
    if mutants:
        print("mutant pairs equivalent, per level:",
              json.dumps(mutants, sort_keys=True))
    for key, got, want in failures[:20]:
        print("MISMATCH %s: got %r, want %r" % (key, got, want))

    if not passes:
        metrics = {}
    elif tracer:
        metrics = layer_metrics(tracer, passes, sum(lengths) / sum(times),
                                statistics.median(lengths))
        for name, calls, total, own in sorted(
                ((n, tracer.calls(n), tracer.total_s(n), tracer.self_s(n))
                 for n in {n for (n, _) in tracer.agg}),
                key=lambda row: -row[3]):
            print("%-42s calls/pass %12.1f  s/pass %9.4f  self s/pass %9.4f"
                  % (name, calls / passes, total / passes, own / passes))
        OUT.mkdir(parents=True, exist_ok=True)
        dump = tracer.dump()
        dump.update(workload=args.workload, seed=args.seed,
                    pass_times=times, pass_lengths=lengths)
        (OUT / ("trace-%s-%d.json" % (args.workload, args.seed))).write_text(
            json.dumps(dump))
    else:
        metrics = {
            "wall_s": (statistics.median(lengths), "s"),
            "setup_s": (statistics.median(setup_lengths), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    failed = len(failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
