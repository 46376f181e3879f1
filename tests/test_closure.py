import gc
import itertools
import random

import pytest

from spectrumlab import closure as cl
from spectrumlab import report
from spectrumlab.closure import (MAX_BRUTE_STATES, _partitions,
                                 _require_fragment, diamond_count)
from spectrumlab.hml import (And, Diamond, Top, TOP, holds, parse_formula,
                             satisfies)
from spectrumlab.lts import BudgetExceeded, FinLTS, catalog, trace_lts


def P(text):
    return parse_formula(text)


def test_free_extension_leaves_no_cycle():
    """With the cyclic collector off, nothing of the construction is left
    for it after a call (a warm-up call runs first)."""
    G, phi = catalog("P_abc"), P("<a>(<b>T & <c>T) & <a><a>T")
    cl.free_extension(G, 0, phi)
    gc.collect()
    gc.disable()
    try:
        ext = cl.free_extension(G, 0, phi)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(ext.witnesses) == 5


def test_fragment_guard():
    with pytest.raises(ValueError):
        cl.free_extension(catalog("Q"), 0, P("<a>T | <b>T"))
    with pytest.raises(ValueError):
        cl.free_extension(catalog("Q"), 0, P("[a]T"))
    with pytest.raises(ValueError):
        cl.free_extension(catalog("Q"), 0, P("<z>T"))


def test_diamond_count():
    assert cl.diamond_count(P("T")) == 0
    assert cl.diamond_count(P("<a>(<b>T & <c>T)")) == 3


def test_free_extension_realizes_formula():
    G = catalog("P_abc")
    phi = P("<a>(<b>T & <c>T)")
    fe = cl.free_extension(G, G.root, phi)
    assert fe.inclusion.is_valid()
    assert len(fe.witnesses) == cl.diamond_count(phi)
    assert satisfies(fe.extended, fe.inclusion(G.root), phi)
    # the original system embeds unchanged
    assert fe.extended.n == G.n + 3
    for (s, a, t) in G.transitions:
        assert (s, a, t) in fe.extended.transitions


def test_implication_basic_values():
    G = catalog("Q")
    # antecedent entails itself
    assert cl.heyting_implication_presheaf(G, 0, P("<a>T"), P("<a>T"))
    # adding an a-witness does not create a b-step at the same point
    assert not cl.heyting_implication_presheaf(G, 0, P("<a>T"), P("<b>T"))
    # nested: the witness chain makes deeper consequents true
    assert cl.heyting_implication_presheaf(G, 0, P("<a><b>T"), P("<a>T"))


def test_oracle_agrees_on_catalog():
    cases = [("<a>T", "<a>T"), ("<a>T", "<b>T"), ("<a><b>T", "<a>T"),
             ("<a>T", "<a><b>T"), ("T", "<a>T"),
             ("<a>(<b>T & <c>T)", "<a><b>T")]
    for name in ("Q", "P_abc"):
        G = catalog(name)
        for f1, f2 in cases:
            phi, psi = P(f1), P(f2)
            for v in range(G.n):
                imp = cl.heyting_implication_presheaf(G, v, phi, psi)
                oracle = cl.brute_force_implication(G, v, phi, psi, G.n + 2)
                assert imp == oracle, (name, v, f1, f2)


# The oracle as it was before realizations became (n, edges) pairs: one
# validated FinLTS per realization, decided by hml.holds.


def _quotient_by(G, blocks):
    cls = {}
    for i, block in enumerate(blocks):
        for s in block:
            cls[s] = i
    trans = frozenset((cls[s], a, cls[t]) for (s, a, t) in G.transitions)
    H = FinLTS(len(blocks), G.alphabet, cls[G.root], trans)
    return H, cls


def _realizations(H, s, phi, max_states):
    """All systems obtained from H by adding edges (and at most
    max_states - |H| fresh states) so that phi holds at s."""
    if isinstance(phi, Top):
        yield H
        return
    if isinstance(phi, And):
        for H1 in _realizations(H, s, phi.left, max_states):
            for H2 in _realizations(H1, s, phi.right, max_states):
                yield H2
        return
    if isinstance(phi, Diamond):
        for t in range(H.n):
            H1 = FinLTS(H.n, H.alphabet, H.root,
                        H.transitions | {(s, phi.label, t)})
            for H2 in _realizations(H1, t, phi.body, max_states):
                yield H2
        if H.n < max_states:
            w = H.n
            H1 = FinLTS(H.n + 1, H.alphabet, H.root,
                        H.transitions | {(s, phi.label, w)})
            for H2 in _realizations(H1, w, phi.body, max_states):
                yield H2
        return
    raise TypeError(phi)


def _brute_force_by_systems(G, v, phi, psi, size_bound):
    """Necessary bounded check of the universally quantified implication;
    independent of the free-extension construction."""
    _require_fragment(phi, G)
    _require_fragment(psi, G)
    if G.n > MAX_BRUTE_STATES:
        raise BudgetExceeded("exhaustive oracle", G.n, "base states",
                             MAX_BRUTE_STATES)
    max_states = size_bound + diamond_count(phi)
    # every realization shares G's alphabet, which psi was checked against
    for blocks in _partitions(list(range(G.n))):
        if len(blocks) > size_bound:
            continue
        H0, cls = _quotient_by(G, blocks)
        anchor = cls[v]
        for H in _realizations(H0, anchor, phi, max_states):
            if not holds(H, anchor, psi):
                return False
    return True


# The oracle before it dropped pairs at which psi already holds: every
# realization of phi on every quotient within the size bound is built.


def _brute_force_unpruned(G, v, phi, psi, size_bound):
    _require_fragment(phi, G)
    _require_fragment(psi, G)
    if G.n > MAX_BRUTE_STATES:
        raise BudgetExceeded("exhaustive oracle", G.n, "base states",
                             MAX_BRUTE_STATES)
    max_states = size_bound + diamond_count(phi)
    pairs = itertools.product(range(max_states), G.alphabet)
    offsets = {pair: i * max_states for i, pair in enumerate(pairs)}
    for blocks in _partitions(list(range(G.n))):
        if len(blocks) > size_bound:
            continue
        cls = {s: i for i, block in enumerate(blocks) for s in block}
        base = sum({1 << offsets[cls[s], a] + cls[t]
                    for (s, a, t) in G.transitions})
        for n, edges in cl._realize({(len(blocks), base)}, cls[v], phi,
                                    offsets, max_states):
            if not cl._holds_in(n, edges, cls[v], psi, offsets):
                return False
    return True


def _criterion_11_cases(rng, count):
    """Criterion 11's seeded cases at formula depths 2 and 3, with at most
    6 diamonds in the antecedent so that the unpruned oracle stays cheap."""
    cases = []
    for _ in range(count):
        G = report._random_system(rng)
        v = rng.randrange(G.n)
        phi = report._random_pe_formula(rng, rng.choice((2, 3)))
        while diamond_count(phi) > 6:
            phi = report._random_pe_formula(rng, rng.choice((2, 3)))
        cases.append((G, v, phi,
                      report._random_pe_formula(rng, rng.choice((2, 3)))))
    return cases


def test_pruned_oracle_matches_unpruned(monkeypatch):
    """Same verdicts as the unpruned oracle.  A partition is enumerated
    exactly when psi fails on its bare quotient: the first conjunct's call
    to _realize gets that quotient, or nothing when the filter dropped it."""
    firsts, depth = [], [0]
    realize = cl._realize

    def counting(reals, *args):
        if depth[0] == 0:
            firsts.append(len(reals))
        depth[0] += 1
        try:
            return realize(reals, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cl, "_realize", counting)
    verdicts, skipped, enumerated = set(), 0, 0
    for G, v, phi, psi in _criterion_11_cases(random.Random(20261019), 300):
        for size_bound in (G.n + 2, G.n, 1):
            want = _brute_force_unpruned(G, v, phi, psi, size_bound)
            firsts.clear()
            verdict = cl.brute_force_implication(G, v, phi, psi, size_bound)
            assert verdict == want
            verdicts.add(verdict)
            calls = firsts[::len(cl._conjuncts(phi))]
            blocks = [b for b in _partitions(list(range(G.n)))
                      if len(b) <= size_bound]
            assert len(calls) == len(blocks) or not verdict
            for got, part in zip(calls, blocks):
                H0, cls = _quotient_by(G, part)
                assert got == (0 if holds(H0, cls[v], psi) else 1)
            skipped += calls.count(0)
            enumerated += calls.count(1)
    assert verdicts == {True, False}
    assert skipped > 0 and enumerated > 0


def test_oracle_never_builds_the_free_extension(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle consulted the construction it checks")

    for name in ("free_extension", "_adjoin", "heyting_implication_presheaf"):
        monkeypatch.setattr(cl, name, refuse)
    cases = [(G, v, P(p), P(q)) for (p, q, _) in report._REGIME_TABLE
             for G in (catalog("Q"), catalog("P_abc")) for v in range(G.n)]
    cases += _criterion_11_cases(random.Random(20261020), 50)
    for G, v, phi, psi in cases:
        assert isinstance(cl.brute_force_implication(G, v, phi, psi, G.n + 2),
                          bool)
    # psi outside the fragment is rejected even where it holds trivially
    with pytest.raises(ValueError):
        cl.brute_force_implication(catalog("Q"), 0, P("<a>T"), P("<a>T | T"),
                                   3)


def test_oracle_size_bound_below_one_is_an_error():
    Q, phi, psi = catalog("Q"), P("<a>T"), P("<b>T")
    assert cl.brute_force_implication(Q, 0, phi, psi, Q.n + 2) is False
    for size_bound in (0, -1):
        with pytest.raises(ValueError):
            cl.brute_force_implication(Q, 0, phi, psi, size_bound)


def _random_case(rng):
    """Shaped like criterion 11's seeded cases, kept cheap: at most 3
    states, and an antecedent of at most 4 diamonds (criterion 11's
    generator reaches 19, where the FinLTS oracle takes minutes)."""
    n = rng.randint(1, 3)
    trans = frozenset((s, a, t) for s in range(n) for a in "ab"
                      for t in range(n) if rng.random() < 0.3)
    phi = _random_formula(rng, 2)
    while diamond_count(phi) > 4:
        phi = _random_formula(rng, 2)
    return (FinLTS(n, ("a", "b"), 0, trans), rng.randrange(n), phi,
            _random_formula(rng, 2))


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return TOP
    if rng.random() < 0.6:
        return Diamond(rng.choice("ab"), _random_formula(rng, depth - 1))
    return And(_random_formula(rng, depth), _random_formula(rng, depth))


def _decode(edges, offsets, max_states):
    return frozenset((s, a, t) for (s, a), off in offsets.items()
                     for t in range(max_states) if edges >> off + t & 1)


def test_oracle_matches_system_oracle():
    """Verdicts, and per partition the distinct realizations and the value
    of psi on each, against the FinLTS oracle.  At size bound |G| the state
    cap binds on the discrete partition; at 1 the partition filter drops
    all others.  Realizations are encoded with a shuffled edge layout, so
    only _realize's offsets contract is relied on."""
    cases = [(G, v, P(p), P(q)) for (p, q, _) in report._REGIME_TABLE
             for G in (catalog("Q"), catalog("P_abc")) for v in range(G.n)]
    rng = random.Random(20260311)
    cases += [_random_case(rng) for _ in range(300)]
    verdicts, repeats = set(), 0
    for G, v, phi, psi in cases:
        for size_bound in (G.n + 2, G.n, 1):
            verdict = cl.brute_force_implication(G, v, phi, psi, size_bound)
            assert verdict == _brute_force_by_systems(G, v, phi, psi,
                                                      size_bound)
            verdicts.add(verdict)
        for size_bound in (G.n + 2, G.n):
            max_states = size_bound + diamond_count(phi)
            pairs = list(itertools.product(range(max_states), G.alphabet))
            rng.shuffle(pairs)
            offsets = {pair: i * max_states for i, pair in enumerate(pairs)}
            for blocks in _partitions(list(range(G.n))):
                H0, cls = _quotient_by(G, blocks)
                base = sum(1 << offsets[s, a] + t
                           for (s, a, t) in H0.transitions)
                got = {(n, _decode(edges, offsets, max_states)): edges
                       for n, edges in cl._realize({(H0.n, base)}, cls[v],
                                                   phi, offsets, max_states)}
                systems = list(_realizations(H0, cls[v], phi, max_states))
                assert set(got) == {(H.n, H.transitions) for H in systems}
                repeats += len(systems) - len(got)
                for H in systems:
                    edges = got[H.n, H.transitions]
                    assert cl._holds_in(H.n, edges, cls[v], psi, offsets) \
                        == holds(H, cls[v], psi)
    assert verdicts == {True, False}
    assert repeats > 0


def test_oracle_budget():
    with pytest.raises(BudgetExceeded):
        cl.brute_force_implication(trace_lts("a" * 9), 0, P("T"), P("T"), 3)


def test_negation_collapse():
    for name in ("Q", "P_abc", "R6"):
        G = catalog(name)
        for text in ("<a>T", "<a><b>T", "<a>(<b>T & <c>T)"):
            out = cl.negation_collapse_check(G, G.root, P(text))
            assert out["negation"] is False
            assert out["double_negation"] is True


def test_monotonicity():
    assert cl.monotonicity_check(P("<a><b>T"))
    assert cl.monotonicity_check(P("<*>T"))
    with pytest.raises(ValueError):
        cl.monotonicity_check(P("!<a>T"))


def test_subfunctor_transfer_along_hom():
    # direct spot check of the forward-transfer property the oracle relies on
    from spectrumlab.lts import enumerate_homs
    S = cl.Subfunctor(P("<*><*>T"))
    M, N = catalog("twoCycle"), catalog("selfLoop")
    for h in enumerate_homs(M, N):
        assert cl.monotone_along(S, h)


def test_regime_classification():
    assert cl.regime_classify(P("<a>T"), P("<a>T"))["regime"] == "entailment"
    assert cl.regime_classify(P("<a><b>T"), P("<a>T"))["regime"] == "entailment"
    out = cl.regime_classify(P("<a>T"), P("<a><b>T"))
    assert out["regime"] == "depthIncreasing"
    out2 = cl.regime_classify(P("<b>T"), P("<c>T"))
    assert out2["regime"] == "independent" and out2["residual"] == P("<c>T")


def test_adjunction():
    assert cl.adjunction_check(P("<a>T"), P("<a>T"), P("T"))
    assert cl.adjunction_check(P("<a>T"), P("<b>T"), P("<b>T"))
