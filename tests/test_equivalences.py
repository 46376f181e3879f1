import itertools
import random

import pytest

from spectrumlab import equivalences as eq
from spectrumlab.hml import d_equivalence_oracle
from spectrumlab.lts import (BudgetExceeded, FinLTS, catalog, enumerate_homs,
                             fan_lts, path_equivalent, trace_lts)


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
    f, g = eq.functional_bisim_search(G, H)
    assert (f.source, f.target, g.source, g.target) == (G, H, H, G)
    assert f.is_valid() and g.is_valid()
    # functional: both round trips are path-equivalent to the identity
    assert all(path_equivalent(G, g(f(s)), s) for s in range(G.n))
    assert all(path_equivalent(H, f(g(t)), t) for t in range(H.n))
    assert eq.functional_bisim_search(catalog("P_abc"), catalog("Q")) is None


def test_bi_interpretation_search():
    # any functional pair is in particular a bi-interpretation pair
    for a, b in (("hubSpokes", "twoCycle"), ("backEdge", "backEdge")):
        M, N = catalog(a), catalog(b)
        assert eq.functional_bisim_search(M, N) is not None
        assert eq.bi_interpretation_search(M, N) is not None
    assert eq.bi_interpretation_search(catalog("P_abc"), catalog("Q")) is None


def test_pair_search_needs_both_round_trips():
    # fork and path have hom pairs with one round trip the identity up to
    # path equivalence (and mutual reachability), but none with both
    for a, b in (("fork", "path"), ("path", "fork")):
        M, N = catalog(a), catalog(b)
        assert eq.functional_bisim_search(M, N) is None
        assert eq.bi_interpretation_search(M, N) is None


def test_pair_search_hom_pair_budget_admits_its_limit(monkeypatch):
    # three homs each way are nine hom pairs: within a budget of nine, over
    # a budget of eight
    L = catalog("selfLoop")
    (h,) = enumerate_homs(L, L)
    monkeypatch.setattr(eq, "enumerate_homs", lambda M, N: [h] * 3)
    monkeypatch.setenv("SPECTRUM_BUDGET", "9")
    assert eq.functional_bisim_search(L, L) is not None
    monkeypatch.setenv("SPECTRUM_BUDGET", "8")
    with pytest.raises(BudgetExceeded, match=r"^function-pair search: 9 hom "
                                             r"pairs, limit 8$"):
        eq.functional_bisim_search(L, L)


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


# ---------------------------------------------------------------------------
# The deciders as they were before state sets became int masks, moved here
# as oracles: the pair-set refinement (for simulation, ready simulation and,
# with back, bisimulation), the walk over two full determinizations, and
# the memoised bounded-simulation recursion.  Bodies verbatim, except that
# the recursion loses its unneeded guard line.


def _all_pairs(M, N):
    return {(s, t) for s in range(M.n) for t in range(N.n)}


def _refine(M, N, rel, back=False):
    """Greatest relation inside rel where every move of s is matched from t
    inside the relation (and, with back, every move of t from s)."""
    rel = set(rel)

    def forth(s, t):
        nt = N.moves(t)
        return all(any((s2, t2) in rel for t2 in nt.get(a, ()))
                   for a, succ in M.moves(s).items() for s2 in succ)

    def backward(s, t):
        ms = M.moves(s)
        return all(any((s2, t2) in rel for s2 in ms.get(a, ()))
                   for a, succ in N.moves(t).items() for t2 in succ)

    changed = True
    while changed:
        changed = False
        for (s, t) in list(rel):
            if not forth(s, t) or (back and not backward(s, t)):
                rel.discard((s, t))
                changed = True
    return frozenset(rel)


def _greatest_bisimulation(M, N):
    return _refine(M, N, _all_pairs(M, N), back=True)


def _bisimilar(M, N):
    """Witness bisimulation containing the root pair (restricted to pairs
    reachable from it through synchronized moves), or None."""
    gb = _greatest_bisimulation(M, N)
    if (M.root, N.root) not in gb:
        return None
    seen = {(M.root, N.root)}
    frontier = [(M.root, N.root)]
    while frontier:
        (s, t) = frontier.pop()
        nt = N.moves(t)
        for a, succ in M.moves(s).items():
            for s2 in succ:
                for t2 in nt.get(a, ()):
                    if (s2, t2) in gb and (s2, t2) not in seen:
                        seen.add((s2, t2))
                        frontier.append((s2, t2))
    return frozenset(seen)


def _ready_sim_equivalent(M, N):
    """Mutual greatest simulation seeded with equal enabled-label sets."""
    def ready_sim(A, B):
        seed = {(s, t) for s in range(A.n) for t in range(B.n)
                if A.enabled(s) == B.enabled(t)}
        return (A.root, B.root) in _refine(A, B, seed)
    return ready_sim(M, N) and ready_sim(N, M)


def _subset_walk(M, N, key):
    """Walk the product of the two subset constructions from the root pair;
    False at the first subset pair whose enabled labels or key(G, subset)
    differ."""
    sM, dM = eq.determinize(M)
    sN, dN = eq.determinize(N)
    seen = {(sM, sN)}
    queue = [(sM, sN)]
    while queue:
        (u, v) = queue.pop()
        ru, rv = dM[u], dN[v]
        if ru.keys() != rv.keys() or key(M, u) != key(N, v):
            return False
        for a in ru:
            nxt = (ru[a], rv[a])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def _minimal_enabled(G, S):
    """Inclusion-minimal enabled sets over the states of S: after a trace
    reaching S, X is refused iff X misses one of them."""
    sets = {G.enabled(s) for s in S}
    return frozenset(e for e in sets if not any(f < e for f in sets))


def _d_simulates(M, N, d):
    """d-round bounded simulation from (root_M) by (root_N)."""
    memo = {}
    def sim(s, t, k):
        if k == 0:
            return True
        key = (s, t, k)
        if key not in memo:
            nt = N.moves(t)
            memo[key] = all(any(sim(s2, t2, k - 1) for t2 in nt.get(a, ()))
                            for a, succ in M.moves(s).items() for s2 in succ)
        return memo[key]
    return sim(M.root, N.root, d)


def _sparse_lts(rng, n, labels):
    """Zero to three moves per state, so that the subset construction stays
    small enough for the determinizing oracle."""
    trans = frozenset((s, rng.choice(labels), rng.randrange(n))
                      for s in range(n) for _ in range(rng.randint(0, 3)))
    return FinLTS(n, tuple(labels), rng.randrange(n), trans)


def _with_unreachable(rng, G, extra):
    """G plus extra states that only the new states' own moves reach."""
    n = G.n + extra
    trans = set(G.transitions)
    for s in range(G.n, n):
        for _ in range(rng.randint(0, 3)):
            trans.add((s, rng.choice(G.alphabet), rng.randrange(n)))
    return FinLTS(n, G.alphabet, G.root, frozenset(trans))


def _relabeled(G, old, new, alphabet):
    return FinLTS(G.n, alphabet, G.root, frozenset(
        (s, new if a == old else a, t) for (s, a, t) in G.transitions))


def _differential_pairs(seed, count):
    """(kind, M, N) with at most 30 states a side: renumbered copies,
    one-edge mutants, a label renamed into a wider alphabet, unreachable
    states on one side, and a label with no moves on one side."""
    rng = random.Random(seed)
    kinds = ("copy", "mutant", "alphabet", "unreachable", "idle label")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        M = _sparse_lts(rng, rng.randint(1, 24), "abc"[:rng.randint(1, 3)])
        N = _renumbered(rng, M)
        if kind == "mutant" or rng.random() < 0.3:
            N = _one_edge_mutant(rng, N)
        if kind == "alphabet":
            N = _relabeled(N, rng.choice(M.alphabet), "z",
                           M.alphabet + ("z",))
        elif kind == "unreachable":
            M = _with_unreachable(rng, M, rng.randint(1, 6))
        elif kind == "idle label":
            N = FinLTS(N.n, N.alphabet + ("idle",), N.root, N.transitions)
        yield kind, M, N


def test_mask_deciders_match_the_pair_set_oracles():
    verdicts = {level: set() for level in eq.LEVELS[1:]}
    kinds = set()
    for kind, M, N in _differential_pairs(21, 250):
        kinds.add(kind)
        ready_seed = {(s, t) for s in range(M.n) for t in range(N.n)
                      if M.enabled(s) == N.enabled(t)}
        assert eq.simulation_preorder(M, N) == _refine(M, N, _all_pairs(M, N))
        assert (eq.simulation_preorder(M, N, ready_seed)
                == _refine(M, N, ready_seed))
        assert eq.greatest_bisimulation(M, N) == _greatest_bisimulation(M, N)
        assert eq.bisimilar(M, N) == _bisimilar(M, N)
        got = {"trace": eq.trace_equivalent(M, N),
               "failures": eq.failures_equivalent(M, N),
               "simulation": eq.mutually_similar(M, N),
               "readySimulation": eq.ready_sim_equivalent(M, N),
               "bisimulation": eq.bisimilar(M, N) is not None}
        want = {"trace": _subset_walk(M, N, lambda G, S: None),
                "failures": _subset_walk(M, N, _minimal_enabled),
                "simulation": (M.root, N.root) in _refine(
                    M, N, _all_pairs(M, N)) and (N.root, M.root) in _refine(
                        N, M, _all_pairs(N, M)),
                "readySimulation": _ready_sim_equivalent(M, N),
                "bisimulation": _bisimilar(M, N) is not None}
        assert got == want, kind
        for level, v in got.items():
            verdicts[level].add(v)
    assert len(kinds) == 5
    assert all(v == {True, False} for v in verdicts.values()), verdicts


def test_ready_simulation_matches_oracle_on_independent_small_pairs():
    # independent systems, unlike copies and mutants, often have a state
    # whose enabled set no state of the other side has
    verdicts = set()
    rng = random.Random(23)
    for _ in range(300):
        M, N = (_random_lts(rng, rng.randint(1, 4), "ab") for _ in "MN")
        got = eq.ready_sim_equivalent(M, N)
        assert got == _ready_sim_equivalent(M, N), (M, N)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_bounded_simulation_matches_memoised_recursion():
    verdicts = set()
    for M, N in _random_pairs(14, 200, 6):
        for d in range(5):
            got = eq.d_simulates(M, N, d)
            assert got == _d_simulates(M, N, d)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_depth_bounded_equivalence_matches_formula_oracle_on_seeded_pairs():
    verdicts = set()
    for M, N in _random_pairs(15, 200, 4):
        for d in (1, 2):
            got = eq.d_equivalent(M, N, d)
            assert got == d_equivalence_oracle(M, N, d)
            verdicts.add(got)
    assert verdicts == {True, False}


def _out_degree_two(rng, n):
    """Each state gets two distinct moves over {a, b} to random targets."""
    trans = set()
    for s in range(n):
        edges = set()
        while len(edges) < 2:
            edges.add((s, rng.choice("ab"), rng.randrange(n)))
        trans |= edges
    return FinLTS(n, ("a", "b"), 0, frozenset(trans))


# level -> the weaker levels its equivalence implies
_IMPLIES = {"bisimulation": ("readySimulation",),
            "readySimulation": ("failures", "simulation"),
            "failures": ("trace",), "simulation": ("trace",),
            "trace": ("enabledness",), "enabledness": ()}


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_all_six_levels_at_one_hundred_states(seed):
    rng = random.Random(seed)
    G = _out_degree_two(rng, 100)
    copy = _renumbered(rng, G)
    assert all(eq.decide(G, copy, level) for level in eq.LEVELS)
    mutant = _one_edge_mutant(rng, _renumbered(rng, G))
    verdicts = {level: eq.decide(G, mutant, level) for level in eq.LEVELS}
    assert all(verdicts[weaker] for level, holds in verdicts.items() if holds
               for weaker in _IMPLIES[level])


# ---------------------------------------------------------------------------
# The mask deciders as they were before they shared work, moved here as
# oracles: the simulation step recomputing each preimage per edge, the walk
# whose union check scans every checked pair, the minimal enabled sets read
# over every state, and the partition refinement on frozenset signatures.
# Bodies verbatim, with equivalences' helpers qualified.  Their per-label
# masks are built here from the transitions, not read from FinLTS's mask
# index, so that the oracles share nothing with the index they check.


def _label_masks(G, back=False):
    """label -> per-state mask of a-successors (a-predecessors with back)."""
    masks = {}
    for (s, a, t) in G.transitions:
        s, t = (t, s) if back else (s, t)
        masks.setdefault(a, [0] * G.n)[s] |= 1 << t
    return masks


def _simulation_per_edge(M, N, rows, rounds=None):
    """equivalences._simulation before its preimage memo: the a-preimage of
    rows[s2] is recomputed for every edge s -a-> s2 in every round."""
    pre = _label_masks(N, back=True)
    for _ in range(M.n * N.n + 1 if rounds is None else rounds):
        old = list(rows)
        cur = rows if rounds is None else old
        for s in range(M.n):
            row = cur[s]
            for a, succ in M.moves(s).items():
                pa = pre.get(a)
                for s2 in succ:
                    row &= eq._image(pa, cur[s2]) if pa else 0
            rows[s] = row
        if rows == old:
            break
    return rows


def _subset_walk_scanning(M, N, key):
    """equivalences._subset_walk before its lowest-state index: the union
    check scans every checked pair for each pair popped."""
    succ_m, succ_n = _label_masks(M), _label_masks(N)
    done, todo = [], [(1 << M.root, 1 << N.root)]
    for (u, v) in todo:  # breadth first: the loop reaches what is appended
        ju = jv = 0
        for (x, y) in done:
            if not (x & ~u or y & ~v):
                ju, jv = ju | x, jv | y
        if ju == u and jv == v:
            continue
        ru = {a: m for a, col in succ_m.items() if (m := eq._image(col, u))}
        rv = {a: m for a, col in succ_n.items() if (m := eq._image(col, v))}
        if ru.keys() != rv.keys() or key(M, u) != key(N, v):
            return False
        done.append((u, v))
        todo.extend((ru[a], rv[a]) for a in ru)
    return True


def _minimal_enabled_all_states(G, S):
    """equivalences._minimal_enabled before it read only the set bits of
    the mask S: every state of G is tested for membership."""
    sets = {G.enabled(s) for s in range(G.n) if S >> s & 1}
    return frozenset(e for e in sets if not any(f < e for f in sets))


def _bisim_blocks_frozensets(M, N):
    """equivalences._bisim_blocks before its int signatures: a signature is
    the frozenset of (label, block) pairs a state's moves reach."""
    out = [[(a, off + y) for a, ys in G.moves(s).items() for y in ys]
           for G, off in ((M, 0), (N, M.n)) for s in range(G.n)]
    block, count = [0] * len(out), 1
    while True:
        ids = {}
        new = [ids.setdefault((block[x], frozenset((a, block[y])
                                                   for a, y in moves)),
                              len(ids)) for x, moves in enumerate(out)]
        if len(ids) == count:
            return block
        block, count = new, len(ids)


def _small_pairs(seed, count):
    """Pairs of at most 8 states over {a, b}: renumbered copies, one-edge
    mutants and independent systems."""
    return _random_pairs(seed, count, 8, labels="ab")


def test_simulation_memo_matches_per_edge_oracle_on_seeded_rows():
    # arbitrary starting rows, not only the full and the ready seeds, so
    # that rows which no fixpoint would reach also meet the memo
    rng = random.Random(31)
    changed = 0
    for M, N in _small_pairs(32, 2000):
        rows = [rng.getrandbits(N.n) for _ in range(M.n)]
        for rounds in (None, 0, 1, 2, 3):
            got = eq._simulation(M, N, list(rows), rounds)
            assert got == _simulation_per_edge(M, N, list(rows), rounds), \
                (M, N, rows, rounds)
            changed += got != rows
    assert changed > 0


def _checked_masks(walk, M, N):
    """The walk's verdict on trace equivalence and the masks it checked, in
    order: the key is read once for each pair it does not skip."""
    seen = []
    return walk(M, N, lambda G, S: seen.append((G is M, S))), seen


def test_indexed_walk_matches_scanning_oracle():
    # the same verdicts, and the same pairs skipped as unions of checked
    # ones: the index may not lose a union that the scan finds
    verdicts = set()
    for M, N in _small_pairs(33, 2000):
        got = _checked_masks(eq._subset_walk, M, N)
        assert got == _checked_masks(_subset_walk_scanning, M, N), (M, N)
        failures = eq.failures_equivalent(M, N)
        assert failures == _subset_walk_scanning(
            M, N, _minimal_enabled_all_states), (M, N)
        verdicts.add((got[0], failures))
    assert verdicts == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("other_labels", (None, "bc"))
def test_int_signatures_match_frozenset_oracle(other_labels):
    # the same block numbers, hence the same partition; with "bc", the
    # independent partners share one label with M and have one of their own
    split = 0
    for M, N in _random_pairs(36, 2000, 8, "ab", other_labels):
        got = eq._bisim_blocks(M, N)
        assert got == _bisim_blocks_frozensets(M, N), (M, N)
        split += len(set(got)) > 1
    assert split > 0


def _walk_words(G, bound):
    """Every label sequence of length <= bound along a path from the root,
    joined, read off the states themselves rather than their subsets."""
    words, frontier = {()}, {((), G.root)}
    for _ in range(bound):
        frontier = {(w + (a,), t) for (w, s) in frontier
                    for a, succ in G.moves(s).items() for t in succ}
        words |= {w for (w, _) in frontier}
    return {"".join(w) for w in words}


def test_bounded_traces_match_path_words():
    sizes = set()
    for M, _ in _random_pairs(37, 300, 6):
        for bound in range(5):
            got = eq.bounded_traces(M, bound)
            assert got == _walk_words(M, bound), (M, bound)
            sizes.add(len(got))
    assert max(sizes) > 10


def test_minimal_enabled_reads_only_the_set_bits():
    rng = random.Random(34)
    for M, _ in _small_pairs(35, 300):
        for _ in range(8):
            S = rng.getrandbits(M.n)
            assert eq._minimal_enabled(M, S) == _minimal_enabled_all_states(
                M, S)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_all_six_levels_at_four_hundred_states(seed):
    rng = random.Random(seed)
    G = _out_degree_two(rng, 400)
    copy = _renumbered(rng, G)
    assert all(eq.decide(G, copy, level) for level in eq.LEVELS)
    mutant = _one_edge_mutant(rng, _renumbered(rng, G))
    verdicts = {level: eq.decide(G, mutant, level) for level in eq.LEVELS}
    assert all(verdicts[weaker] for level, holds in verdicts.items() if holds
               for weaker in _IMPLIES[level])
    if seed == 3:
        assert len(set(verdicts.values())) == 2, verdicts


def test_bounded_traces_keeps_label_sequences_apart():
    """a.b.c and the label ab join to overlapping strings: the trace a.b.c
    must not be lost because "ab" was already seen via the label ab."""
    G = FinLTS(5, ("a", "ab", "b", "c"), 0, frozenset(
        {(0, "a", 1), (1, "b", 2), (2, "c", 3), (0, "ab", 4)}))
    assert eq.bounded_traces(G, 3) == {"", "a", "ab", "abc"}
