"""Out-of-program tracing: wrappers around spectrumlab's public functions.

Each wrapped call records a span (name, start, end, parent).  Functions
called millions of times ("hot") keep no per-call span; they, like every
other name, are aggregated per (name, parent) into call count, total time
and self time.  Self time is a span's duration minus the time covered by
its child spans; calls are strictly nested in this single-threaded program,
so the covered time is the sum of the direct children's durations.
"""

import functools
import time

# (span name, module, attribute path, hot)
TARGETS = (
    ("lts.FinLTS", "lts", "FinLTS.__init__", True),
    ("lts.FinLTS.successors", "lts", "FinLTS.successors", True),
    ("lts.enumerate_homs", "lts", "enumerate_homs", True),
    ("lts.Homomorphism.compose", "lts", "Homomorphism.compose", True),
    ("lts.is_rooted_tree", "lts", "is_rooted_tree", True),
    ("equivalences.trace_equivalent", "equivalences", "trace_equivalent",
     False),
    ("equivalences.failures_equivalent", "equivalences",
     "failures_equivalent", False),
    ("equivalences.mutually_similar", "equivalences", "mutually_similar",
     False),
    ("equivalences.ready_sim_equivalent", "equivalences",
     "ready_sim_equivalent", False),
    ("equivalences.bisimilar", "equivalences", "bisimilar", False),
    ("equivalences.determinize", "equivalences", "determinize", False),
    ("hml.satisfies", "hml", "satisfies", True),
    ("closure.brute_force_implication", "closure",
     "brute_force_implication", False),
    ("closure.heyting_implication_presheaf", "closure",
     "heyting_implication_presheaf", False),
    ("topology.MorphismUniverse", "topology", "MorphismUniverse.__init__",
     True),
    ("topology.MorphismUniverse.homs", "topology", "MorphismUniverse.homs",
     True),
    ("topology.is_covering", "topology", "is_covering", True),
    ("topology.sieve_pullback", "topology", "sieve_pullback", True),
    ("topology.generate_sieve", "topology", "generate_sieve", True),
    ("topology.grothendieck_axiom_check", "topology",
     "grothendieck_axiom_check", False),
    ("topology.ObservationClass.accepts", "topology",
     "ObservationClass.accepts", True),
    ("lindenbaum.lindenbaum", "lindenbaum", "lindenbaum", False),
    ("lindenbaum.automorphisms", "lindenbaum", "automorphisms", False),
    ("lindenbaum.enumerate_nuclei", "lindenbaum", "enumerate_nuclei", False),
    ("lindenbaum.induced_lattice_map", "lindenbaum", "induced_lattice_map",
     False),
    ("spectrum.FiniteDistributiveLattice", "spectrum",
     "FiniteDistributiveLattice.__init__", False),
    ("spectrum.join_irreducibles", "spectrum",
     "FiniteDistributiveLattice.join_irreducibles", False),
    ("spectrum.downset_lattice", "spectrum", "downset_lattice", False),
    ("geometry.eval_formula", "geometry", "eval_formula", True),
    ("geometry.topos_separation_certificate", "geometry",
     "topos_separation_certificate", False),
) + tuple(("report.criterion_%d" % k, "report", "criterion_%d" % k, False)
          for k in range(1, 14))

# Counters derived from a call's arguments and result: name -> fn(args, result)
COUNTERS = {
    "lts.enumerate_homs": lambda args, r: {"lts.enumerate_homs.results":
                                           len(r)},
    "equivalences.determinize": lambda args, r: {
        "equivalences.determinize.states": len(r[1])},
    "spectrum.FiniteDistributiveLattice": lambda args, r: {
        "spectrum.table_entries": 2 * len(args[0].elements) ** 2},
}


class Tracer:
    """Span recorder.  ``enter``/``exit`` bracket one call; only calls made
    while ``active`` is set are recorded."""

    def __init__(self, hot=(), clock=time.perf_counter):
        self.hot = frozenset(hot)
        self.clock = clock
        self.active = False
        self.stack = []    # [name, start, time covered by children]
        self.spans = []    # (name, start, end, parent) of non-hot calls
        self.agg = {}      # (name, parent) -> [calls, total_s, self_s]
        self.counters = {}

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self.stack.pop()
        end = self.clock()
        duration = end - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += duration
        rec = self.agg.get((name, parent))
        if rec is None:
            rec = self.agg[(name, parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - covered
        if name not in self.hot:
            self.spans.append((name, start, end, parent))

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def calls(self, name, parent=Ellipsis):
        """Calls of ``name``; under one parent when ``parent`` is given."""
        return sum(rec[0] for (n, p), rec in self.agg.items()
                   if n == name and (parent is Ellipsis or p == parent))

    def total_s(self, name):
        """Inclusive time of ``name``, summed over parents other than
        ``name`` itself so that recursion is not counted twice."""
        return sum(rec[1] for (n, p), rec in self.agg.items()
                   if n == name and p != name)

    def self_s(self, name):
        return sum(rec[2] for (n, p), rec in self.agg.items() if n == name)

    def dump(self):
        return {
            "spans": [list(s) for s in self.spans],
            "aggregates": [[n, p] + rec
                           for (n, p), rec in sorted(
                               self.agg.items(), key=lambda kv: -kv[1][2])],
            "counters": dict(sorted(self.counters.items())),
        }


def _wrap(fn, name, tracer):
    count = COUNTERS.get(name)
    cached = hasattr(fn, "cache_info")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if cached:
            misses = fn.cache_info().misses
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if cached:
            if fn.cache_info().misses == misses:
                tracer.count(name + ".cache_hits")
            elif name == "lindenbaum.lindenbaum":
                tracer.count("lindenbaum.elements",
                             len(result.lattice.elements))
        if count is not None:
            for key, k in count(args, result).items():
                tracer.count(key, k)
        return result

    if cached:
        wrapper.cache_info = fn.cache_info
        wrapper.cache_clear = fn.cache_clear
    return wrapper


def install(tracer, modules):
    """Wrap every target.  ``modules`` maps a short module name ("lts") to
    the imported module.  A function is replaced in every module namespace
    that holds it, since ``from .lts import enumerate_homs`` binds the name
    in the importing module; a method is replaced on its class.  The
    lru_cached ``lindenbaum`` is wrapped outside its cache, so hits are seen.
    Returns a function that restores the originals."""
    undo = []
    for name, mod_name, path, _ in TARGETS:
        owner = modules[mod_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapped = _wrap(original, name, tracer)
        if outer:
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
            continue
        for mod in modules.values():
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def hot_names():
    return [name for name, _, _, hot in TARGETS if hot]
