"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gen, tracing, workloads as wl  # noqa: E402
from perfbench.run import (PassTimeout, clear_caches,  # noqa: E402
                           layer_metrics, load_spectrumlab, measure, setup)


# -- generator ---------------------------------------------------------------

def _specs(seed):
    rng = random.Random(seed)
    base = gen.random_system(rng, 12)
    return [base, gen.permuted(rng, base), gen.mutant(rng, base),
            gen.profiled_system(rng, (4,), 7),
            gen.banded_system(rng, 24, 100, 300),
            gen.edge_probability_system(rng, 3),
            gen.formula_with_diamonds(rng, 5), gen.random_formula(rng, 2)]


def test_same_seed_same_inputs():
    assert _specs(7) == _specs(7)
    assert _specs(7) != _specs(8)


def _digraph(spec):
    n, _, root, trans = spec
    g = nx.DiGraph()
    g.add_nodes_from(range(n), root=False)
    g.nodes[root]["root"] = True
    for (s, a, t) in trans:
        if g.has_edge(s, t):
            g[s][t]["labels"] = g[s][t]["labels"] | {a}
        else:
            g.add_edge(s, t, labels=frozenset([a]))
    return g


@pytest.mark.parametrize("seed", range(5))
def test_copies_are_isomorphic_by_networkx(seed):
    rng = random.Random(seed)
    for n in (5, 24):
        spec = gen.random_system(rng, n)
        copy = gen.permuted(rng, spec)
        assert nx.is_isomorphic(
            _digraph(spec), _digraph(copy),
            node_match=lambda x, y: x["root"] == y["root"],
            edge_match=lambda x, y: x["labels"] == y["labels"])


@pytest.mark.parametrize("seed", range(5))
def test_mutant_moves_one_edge_and_keeps_out_degrees(seed):
    rng = random.Random(seed)
    spec = gen.random_system(rng, 10)
    mut = gen.mutant(rng, spec)
    assert len(spec[3] - mut[3]) == len(mut[3] - spec[3]) == 1
    for s in range(10):
        assert sum(1 for e in mut[3] if e[0] == s) == 2


def test_banded_system_lies_in_its_band():
    rng = random.Random(4)
    for _ in range(5):
        spec = gen.banded_system(rng, 24, 100, 300)
        assert 100 <= gen.subset_count(spec, 300) <= 300


def test_subset_count_matches_determinize():
    modules = load_spectrumlab()
    lts, eq = modules["lts"], modules["equivalences"]
    rng = random.Random(5)
    for _ in range(5):
        spec = gen.random_system(rng, 12)
        table = eq.determinize(lts.FinLTS(*spec))[1]
        assert gen.subset_count(spec, len(table)) == len(table)
        assert gen.subset_count(spec, 5) > 5 or len(table) <= 5


def test_profiled_system_is_reachable_with_its_profile():
    rng = random.Random(3)
    spec = gen.profiled_system(rng, (2, 2), 7)
    assert gen.reachable(spec) == set(range(7))
    assert [sum(1 for e in spec[3] if e[0] == s) for s in (0, 1)] == [2, 2]


# -- tracer ------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _synthetic_tree():
    """a [0, 10] holds b [1, 4] and b [5, 6]; the first b holds c [2, 3]."""
    clock = FakeClock()
    tr = tracing.Tracer(hot=("c",), clock=clock)
    for t, op in ((0, "a"), (1, "b"), (2, "c"), (3, None), (4, None),
                  (5, "b"), (6, None), (10, None)):
        clock.now = t
        if op:
            tr.enter(op)
        else:
            tr.exit()
    return tr


def test_self_time_on_a_synthetic_span_tree():
    tr = _synthetic_tree()
    assert tr.self_s("a") == 10 - (3 + 1)
    assert tr.self_s("b") == (3 - 1) + 1
    assert tr.self_s("c") == 1
    assert tr.total_s("a") == 10 and tr.total_s("b") == 4


def test_aggregation_per_name_and_parent():
    tr = _synthetic_tree()
    assert tr.agg == {("c", "b"): [1, 1.0, 1.0], ("b", "a"): [2, 4.0, 3.0],
                      ("a", None): [1, 10.0, 6.0]}
    assert tr.calls("b") == 2 and tr.calls("c", "b") == 1
    assert tr.calls("c", "a") == 0
    # the hot name keeps no span of its own
    assert [s[0] for s in tr.spans] == ["b", "b", "a"]
    assert tr.spans[0] == ("b", 1, 4, "a")


def test_wrappers_reach_every_binding_and_count_cache_hits():
    modules = load_spectrumlab()
    tr = tracing.Tracer(hot=tracing.hot_names())
    restore = tracing.install(tr, modules)
    try:
        tp, lb, lts = (modules["topology"], modules["lindenbaum"],
                       modules["lts"])
        assert tp.enumerate_homs is lts.enumerate_homs
        assert modules["closure"].satisfies is modules["hml"].satisfies
        tr.active = True
        lb.lindenbaum.cache_clear()
        G = lts.catalog("hubSpokes")
        lb.lindenbaum(G)
        lb.lindenbaum(G)
        U = tp.MorphismUniverse(lts.fan(2), tp.SiteBounds(2, 2))
        U.arrows_into(U.base)
        U.arrows_into(U.base)
    finally:
        tr.active = False
        restore()
    assert tr.calls("lindenbaum.lindenbaum") == 2
    assert tr.counters["lindenbaum.lindenbaum.cache_hits"] == 1
    assert tr.counters["lindenbaum.elements"] == 5
    assert tr.calls("lts.enumerate_homs", "topology.MorphismUniverse.homs") \
        == len(U.objects)
    assert tr.calls("topology.MorphismUniverse.homs") == 2 * len(U.objects)
    assert lts.enumerate_homs.__name__ == "enumerate_homs"
    assert not hasattr(lts.enumerate_homs, "__wrapped__")


def test_layer_metrics_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tr = _synthetic_tree()
    got = layer_metrics(tr, 1, 1.0, 10.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, u) for k, (_, u) in got.items()]


# -- output checks -----------------------------------------------------------

def _expected():
    return json.loads((ROOT / "perfbench" / "expected.json").read_text())


def _fake_report(rows_by_criterion):
    fns = {"criterion_%s" % k: (lambda rows=rows: ("t", rows))
           for k, rows in rows_by_criterion.items()}
    return SimpleNamespace(report=SimpleNamespace(**fns))


def test_expected_rows_pass_and_keep_the_red_row():
    exp = _expected()
    rows = {k: [tuple(r) for r in v] for k, v in exp["report_rows"].items()}
    out = wl.report_rows(_fake_report(rows), (1, 8), exp)
    assert wl.check(out) == []
    assert ["Lindenbaum size of R6", "48", False] in exp["report_rows"]["8"]


def test_check_flags_a_flipped_row():
    exp = _expected()
    rows = {k: [tuple(r) for r in v] for k, v in exp["report_rows"].items()}
    claim, computed, ok = rows["8"][0]
    rows["8"][0] = (claim, computed, not ok)
    bad = wl.check(wl.report_rows(_fake_report(rows), (1, 8), exp))
    assert [key for key, _, _ in bad] == ["criterion 8 row 0"]


def test_check_flags_a_flipped_verdict():
    verdicts = dict.fromkeys(wl.LEVELS, False)
    out = [("copy: trace", False, True),
           ("mutant", verdicts, wl.obeys_hierarchy)]
    assert [k for k, _, _ in wl.check(out)] == ["copy: trace"]
    for level, weaker in (("bisimulation", "readySimulation"),
                          ("readySimulation", "failures"),
                          ("simulation", "trace"),
                          ("trace", "enabledness")):
        broken = dict.fromkeys(wl.LEVELS, True)
        broken[weaker] = False
        assert not wl.obeys_hierarchy(broken), (level, weaker)
    assert wl.obeys_hierarchy(dict(verdicts, enabledness=True, trace=True))


# -- timing ------------------------------------------------------------------

def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_measure_times_the_region():
    result, seconds, length = measure(lambda: _spin(0.3))
    assert result == "done"
    assert 0.3 <= seconds < 0.4
    assert length > 0


def test_measure_stops_a_region_at_its_cap():
    t0 = time.perf_counter()
    with pytest.raises(PassTimeout):
        measure(lambda: _spin(5), cap_s=0.2)
    assert time.perf_counter() - t0 < 1
    _spin(0.3)                        # no alarm is left pending


def test_every_setup_pays_the_whole_import():
    saved = {name: sys.modules.pop(name) for name in ("dataclasses", "inspect")
             if name in sys.modules}
    baseline = set(sys.modules)
    try:
        _, first, _ = setup(lambda sl, data: data, None, baseline)
        dataclasses = sys.modules["dataclasses"]
        _, second, _ = setup(lambda sl, data: data, None, baseline)
        assert sys.modules["dataclasses"] is not dataclasses
        assert second["lts"] is not first["lts"]
    finally:
        sys.modules.update(saved)


def test_clear_caches_empties_every_lru_cache():
    modules = load_spectrumlab()
    lb, tp = modules["lindenbaum"], modules["topology"]
    lb.lindenbaum(modules["lts"].catalog("hubSpokes"))
    tp._tree_terms(("a",), 2, 3)
    clear_caches(modules)
    assert lb.lindenbaum.cache_info().currsize == 0
    assert tp._tree_terms.cache_info().currsize == 0


# -- the command -------------------------------------------------------------

def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
