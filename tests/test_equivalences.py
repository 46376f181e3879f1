import itertools
import random

import pytest

from spectrumlab import equivalences as eq
from spectrumlab.hml import d_equivalence_oracle
from spectrumlab.lts import FinLTS, catalog, fan_lts, trace_lts


def test_level_order_on_classic_pair():
    # one a-step to a {b,c} choice vs. the choice made up front
    P, Q = catalog("P_abc"), catalog("Q")
    assert eq.trace_equivalent(P, Q)
    assert eq.failures_equivalent(P, Q) is False
    assert not eq.mutually_similar(P, Q)
    assert eq.bisimilar(P, Q) is None


def test_simulation_asymmetry():
    P, Q = catalog("P_abc"), catalog("Q")
    assert eq.similar(P, Q)
    assert not eq.similar(Q, P)


def test_bisimilar_positive_with_witness():
    G = catalog("hubSpokes")
    H = catalog("twoCycle")
    w = eq.bisimilar(G, H)
    assert w is not None
    assert (G.root, H.root) in w
    # every pair in the witness must satisfy the transfer conditions
    for (s, t) in w:
        for a in G.alphabet:
            for s2 in G.successors(s, a):
                assert any((s2, t2) in w for t2 in H.successors(t, a))
            for t2 in H.successors(t, a):
                assert any((s2, t2) in w for s2 in G.successors(s, a))


def test_ready_simulation_strictly_between():
    # definitional containments between the levels, over the labeled catalog
    systems = [catalog(n) for n in ("P_abc", "Q", "R6", "U")]
    for M, N in itertools.product(systems, repeat=2):
        if eq.bisimilar(M, N) is not None:
            assert eq.ready_sim_equivalent(M, N)
        if eq.ready_sim_equivalent(M, N):
            assert eq.mutually_similar(M, N)
            assert eq.failures_equivalent(M, N)
        if eq.failures_equivalent(M, N):
            assert eq.trace_equivalent(M, N)
        if eq.trace_equivalent(M, N):
            assert eq.enabledness_equivalent(M, N)


def test_trace_equivalence_vs_bounded_words():
    P, Q = catalog("P_abc"), catalog("Q")
    assert eq.bounded_traces(P, 3) == eq.bounded_traces(Q, 3)
    assert eq.bounded_traces(P, 2) == {"", "a", "ab", "ac"}
    loop = catalog("selfLoop")
    assert eq.bounded_traces(loop, 3) == {"", "*", "**", "***"}


def test_trace_equivalence_cycles():
    assert eq.trace_equivalent(catalog("selfLoop"), catalog("twoCycle"))
    assert not eq.trace_equivalent(catalog("selfLoop"), trace_lts("aa"))


def test_determinize_explores_all_subsets():
    G = fan_lts("ab", "ac")
    start, table = eq.determinize(G)
    assert start == frozenset([0])
    # after "a" both branch states are live at once
    assert table[start]["a"] in table


def test_depth_bounded_equivalence_matches_formula_oracle():
    pairs = [("P_abc", "Q"), ("Q", "R6"), ("P_abc", "U"), ("R6", "U")]
    for n1, n2 in pairs:
        M, N = catalog(n1), catalog(n2)
        for d in (1, 2):
            assert eq.d_equivalent(M, N, d) == d_equivalence_oracle(M, N, d)


def test_depth_hierarchy_is_monotone():
    M, N = catalog("P_abc"), catalog("U")
    vals = [eq.d_equivalent(M, N, d) for d in range(4)]
    assert all(b or not a for a, b in zip(vals[1:], vals))  # once false, stays false
    assert vals[0] is True


def test_functional_bisim_search():
    G = catalog("hubSpokes")
    H = catalog("twoCycle")
    pair = eq.functional_bisim_search(G, H)
    assert pair is not None and pair.coherence == "functional"
    assert pair.forward.is_valid() and pair.backward.is_valid()
    assert eq.functional_bisim_search(catalog("P_abc"), catalog("Q")) is None


def test_bi_interpretation_search():
    # any functional pair is in particular a bi-interpretation pair
    for a, b in (("hubSpokes", "twoCycle"), ("backEdge", "backEdge")):
        M, N = catalog(a), catalog(b)
        assert eq.functional_bisim_search(M, N) is not None
        assert eq.bi_interpretation_search(M, N) is not None
    assert eq.bi_interpretation_search(catalog("P_abc"), catalog("Q")) is None


def test_quotient_bridge():
    assert eq.quotient_bridge_check(catalog("hubSpokes"), catalog("twoCycle"))
    with pytest.raises(ValueError):
        eq.quotient_bridge_check(catalog("P_abc"), catalog("Q"))


def test_decide_dispatch():
    P, Q = catalog("P_abc"), catalog("Q")
    assert eq.decide(P, Q, "trace")
    assert not eq.decide(P, Q, "bisimulation")
    with pytest.raises(ValueError):
        eq.decide(P, Q, "nope")


# ---------------------------------------------------------------------------
# seeded differential checks of the merged deciders against independent
# oracles: bounded simulation, brute force over every relation, and the
# refusal-annotated trace construction


def _random_lts(rng, n, labels):
    p = rng.choice((0.15, 0.3, 0.5))
    trans = frozenset((s, a, t) for s in range(n) for a in labels
                      for t in range(n) if rng.random() < p)
    return FinLTS(n, tuple(labels), rng.randrange(n), trans)


def _renumbered(rng, G):
    perm = list(range(G.n))
    rng.shuffle(perm)
    return FinLTS(G.n, G.alphabet, perm[G.root],
                  frozenset((perm[s], a, perm[t])
                            for (s, a, t) in G.transitions))


def _one_edge_mutant(rng, G):
    trans = set(G.transitions)
    if trans and rng.random() < 0.5:
        trans.discard(rng.choice(sorted(trans)))
    else:
        trans.add((rng.randrange(G.n), rng.choice(G.alphabet),
                   rng.randrange(G.n)))
    return FinLTS(G.n, G.alphabet, G.root, frozenset(trans))


def _random_pairs(seed, count, max_states, labels="abc", other_labels=None):
    """Random systems over 1-3 labels, each paired with a renumbered copy, a
    one-edge mutant of one, or an independent system (over other_labels
    when given), so that positive verdicts occur at every level."""
    rng = random.Random(seed)
    for _ in range(count):
        lab = labels[:rng.randint(1, len(labels))]
        M = _random_lts(rng, rng.randint(1, max_states), lab)
        r = rng.random()
        if r < 0.35:
            N = _renumbered(rng, M)
        elif r < 0.7:
            N = _one_edge_mutant(rng, _renumbered(rng, M))
        else:
            N = _random_lts(rng, rng.randint(1, max_states),
                            other_labels or lab)
        yield M, N


def test_similarity_matches_bounded_simulation_at_full_depth():
    # the bounded simulation approximants stabilize within n_M * n_N rounds
    positives = 0
    for M, N in _random_pairs(11, 300, 5):
        d = M.n * N.n
        assert eq.similar(M, N) == eq.d_simulates(M, N, d)
        assert eq.mutually_similar(M, N) == eq.d_equivalent(M, N, d)
        positives += eq.mutually_similar(M, N)
    assert positives > 0


def _union_of_all(M, N, is_witness):
    """Union of every relation on M x N that satisfies is_witness."""
    pairs = [(s, t) for s in range(M.n) for t in range(N.n)]
    union = set()
    for mask in range(1 << len(pairs)):
        R = {p for i, p in enumerate(pairs) if mask >> i & 1}
        if is_witness(R):
            union |= R
    return frozenset(union)


def _forth(M, N, R):
    return all(any((s2, t2) in R for t2 in N.successors(t, a))
               for (s, t) in R for a in M.alphabet
               for s2 in M.successors(s, a))


def test_fixpoints_match_brute_force_over_every_relation():
    positives = 0
    for M, N in _random_pairs(12, 120, 3):
        sims = _union_of_all(M, N, lambda R: _forth(M, N, R))
        bisims = _union_of_all(
            M, N, lambda R: _forth(M, N, R) and _forth(
                N, M, {(t, s) for (s, t) in R}))
        readies = _union_of_all(
            M, N, lambda R: _forth(M, N, R) and all(
                M.enabled(s) == N.enabled(t) for (s, t) in R))
        ready_seed = {(s, t) for s in range(M.n) for t in range(N.n)
                      if M.enabled(s) == N.enabled(t)}
        assert eq.simulation_preorder(M, N) == sims
        assert eq.greatest_bisimulation(M, N) == bisims
        assert eq.simulation_preorder(M, N, ready_seed) == readies
        positives += (M.root, N.root) in bisims
    assert positives > 0


def _refusal_annotated(G, alphabet):
    """Extend G with refusal self-loop markers: from each state, one edge
    labeled ref{X} for each label set X disjoint from the enabled set."""
    subsets = []
    alphabet = tuple(sorted(alphabet))
    for mask in range(1 << len(alphabet)):
        subsets.append(frozenset(a for i, a in enumerate(alphabet)
                                 if mask >> i & 1))
    ref_labels = {X: "ref{%s}" % ",".join(sorted(X)) for X in subsets}
    sink = G.n
    trans = set(G.transitions)
    for s in range(G.n):
        en = G.enabled(s)
        for X in subsets:
            if not (X & en):
                trans.add((s, ref_labels[X], sink))
    new_alpha = tuple(sorted(set(alphabet) | set(ref_labels.values())))
    return FinLTS(G.n + 1, new_alpha, G.root, frozenset(trans))


def _failures_oracle(M, N):
    alpha = sorted(set(M.alphabet) | set(N.alphabet))
    return eq.trace_equivalent(_refusal_annotated(M, alpha),
                               _refusal_annotated(N, alpha))


@pytest.mark.parametrize("labels,other_labels", [
    ("abc", None),     # one to three labels on both sides
    ("abc", "abc"),    # independent partners over all three labels
    ("ab", "bc"),      # unequal alphabets
])
def test_failures_matches_refusal_annotated_oracle(labels, other_labels):
    verdicts = set()
    for M, N in _random_pairs(13, 300, 5, labels, other_labels):
        got = eq.failures_equivalent(M, N)
        assert got == _failures_oracle(M, N)
        verdicts.add(got)
    assert verdicts == {True, False}

