import gc
import itertools
import random
from collections import namedtuple

import pytest

from spectrumlab import topology as tp
from spectrumlab.equivalences import bounded_traces
from spectrumlab.lts import (FinLTS, catalog, enumerate_homs, fan, fan_lts,
                             identity_hom, path_digraph, trace_lts)
from spectrumlab.spectrum import NAMED_VECTORS


BOUNDS = tp.SiteBounds(max_test_depth=2, max_test_size=4)


def test_bounds_validation():
    with pytest.raises(ValueError):
        tp.SiteBounds(max_test_depth=0)


def test_observation_classes():
    assert tp.PATHS.accepts(trace_lts("ab"))
    assert not tp.PATHS.accepts(fan_lts("a", "b"))
    assert tp.TREES.accepts(fan_lts("a", "b"))
    assert not tp.TREES.accepts(catalog("selfLoop"))
    E = tp.energy_class((1, 1, 0, 0, 0, 0))
    assert E.accepts(trace_lts("a"))
    assert not E.accepts(trace_lts("ab"))


def test_test_objects_are_canonical_trees():
    trees = tp.test_objects(("a",), BOUNDS)
    for T in trees:
        assert tp.is_rooted_tree(T)
        assert tp.height(T, T.root) <= 2 and T.n <= 4
    # over one letter: empty, a, aa, a+a, a+aa, aa+a duplicates collapse...
    sigs = {(T.n, tuple(sorted(T.transitions))) for T in trees}
    assert len(sigs) == len(trees)


def test_sieve_validation_and_generation():
    F = fan_lts("a", "a")
    U = tp.MorphismUniverse(F, BOUNDS)
    P1 = trace_lts("a")
    f_r = tp.Homomorphism(P1, F, (0, 2))
    S = tp.generate_sieve(U, [f_r])
    # precomposition-closed: every arrow precomposed with any hom stays inside
    for g in S.arrows:
        for A in U.objects:
            for k in U.homs(A, g.source):
                assert g.compose(k) in S.arrows
    assert S.base is U.base and f_r in S.arrows
    with pytest.raises(ValueError):  # a mask over another universe's ids
        tp.is_covering(S, tp.TREES, tp.MorphismUniverse(F, BOUNDS))


def test_maximal_sieve_covers():
    G = fan_lts("ab", "ac")
    U = tp.MorphismUniverse(G, BOUNDS)
    S = tp.maximal_sieve(U)
    v = tp.is_covering(S, tp.TREES, U)
    assert v.covering and not v.truncated
    assert bool(v)


def test_truncation_flag_on_cycles():
    G = catalog("selfLoop")
    U = tp.MorphismUniverse(G, BOUNDS)
    v = tp.is_covering(tp.maximal_sieve(U), tp.PATHS, U)
    assert v.truncated


def test_pullback_of_maximal_is_maximal():
    F = fan_lts("a", "a")
    U = tp.MorphismUniverse(F, BOUNDS)
    P1 = trace_lts("a")
    UP = tp.MorphismUniverse(P1, BOUNDS)
    f = tp.Homomorphism(P1, F, (0, 1))
    pulled = tp.sieve_pullback(f, tp.maximal_sieve(U), UP)
    assert pulled.arrows == tp.maximal_sieve(UP).arrows
    with pytest.raises(ValueError):  # the sieve is over P1, not F
        tp.sieve_pullback(f, tp.maximal_sieve(UP), UP)
    with pytest.raises(ValueError):  # the universe is over F, not P1
        tp.sieve_pullback(f, tp.maximal_sieve(U), U)


def test_class_predicate_satisfies_axioms():
    sample = [fan_lts("a", "a"), trace_lts("a"), fan_lts("ab", "ac")]
    for C in (tp.PATHS, tp.TREES):
        out = tp.grothendieck_axiom_check(C, sample, BOUNDS)
        assert out["maximality"] and out["stability"] and out["transitivity"], C.name


def test_naive_predicate_fails_only_stability():
    sample = [fan_lts("a", "a"), trace_lts("a")]
    out = tp.grothendieck_axiom_check(tp.TREES, sample, BOUNDS, naive=True)
    assert out["maximality"] and out["transitivity"]
    assert not out["stability"]


def test_naive_instability_witness():
    w = tp.naive_instability_witness(BOUNDS)
    assert w["base_covering"] is True
    assert w["pullback_covering"] is False
    assert w["identity_in_pullback"] is False


def _multi_character_systems(seed, count):
    """Seeded systems over labels that are words; g.o and go join alike."""
    rng = random.Random(seed)
    labels = ("go", "g", "o", "stop")
    for _ in range(count):
        n = rng.randint(1, 4)
        trans = frozenset((rng.randrange(n), rng.choice(labels),
                           rng.randrange(n)) for _ in range(rng.randint(0, 6)))
        yield FinLTS(n, labels, rng.randrange(n), trans)


def test_trace_support_equals_bounded_traces():
    for name in ("P_abc", "Q", "R6", "selfLoop", "diamond"):
        G = catalog(name)
        assert tp.trace_support(G, 3) == bounded_traces(G, 3), name
    for G in _multi_character_systems(20261019, 30):
        assert tp.trace_support(G, 3) == bounded_traces(G, 3), G


def test_prefix_hom_law():
    words = [""]
    for k in range(1, 5):
        words += ["".join(w) for w in itertools.product("ab", repeat=k)]
    for w1, w2 in itertools.product(words, repeat=2):
        out = tp.prefix_hom_check(w1, w2)
        assert out["ok"], (w1, w2)
        assert out["exists"] == w2.startswith(w1)


def test_axiom_check_leaves_no_cycle():
    """With the cyclic collector off, an axiom check leaves nothing for it:
    building the test trees goes through no self-referencing closure."""
    def check():
        tp.grothendieck_axiom_check(tp.TREES, [path_digraph(1), fan(2)],
                                    tp.SiteBounds(2, 2))
    check()  # fills the one-time caches
    gc.collect()
    gc.disable()
    try:
        check()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_density():
    for base in (trace_lts("ab"), fan_lts("a", "a"), fan_lts("ab", "ac")):
        assert tp.density_check(base, BOUNDS)


# ---------------------------------------------------------------------------
# the frozenset sieve operations the masks replaced, kept as the oracle

OracleSieve = namedtuple("OracleSieve", "base arrows")


def oracle_generate_sieve(universe, generators):
    """Close the generators under precomposition with every enumerated map.

    One pass suffices: (g o k) o k' = g o (k o k'), and k o k' is itself an
    enumerated hom into the domain of g.
    """
    arrows = set(generators)
    for g in list(arrows):
        for A in universe.objects:
            for k in universe.homs(A, g.source):
                arrows.add(g.compose(k))
    return OracleSieve(universe.base, frozenset(arrows))


def oracle_sieve_pullback(f, S, universe):
    """f*(S) = {g into f.source : f o g in S}, over the universe on f.source.

    Closed automatically: f o (g o k) = (f o g) o k lands in S whenever
    f o g does, because S is itself precomposition-closed.
    """
    if f.target != S.base:
        raise ValueError("pullback map must target the sieve base")
    arrows = frozenset(g for g in universe.arrows_into(f.source)
                       if f.compose(g) in S.arrows)
    return OracleSieve(f.source, arrows)


def oracle_is_covering(S, C, universe):
    """Every root-preserving hom from every C-accepted test object into the
    base must lie in the sieve.  Exact on acyclic bases whose probes fit the
    bounds; flagged as truncated on cyclic bases."""
    missing = []
    for T in universe.test_objects:
        if not C.accepts(T):
            continue
        for h in universe.homs(T, S.base):
            if h not in S.arrows:
                missing.append(h)
    return tp.CoveringVerdict(not missing, S.base.has_cycle(),
                              tuple(missing[:4]))


def oracle_naive_covering(S, C, universe):
    """Existence-flavored predicate: for each C-accepted test object with at
    least one hom into the base, SOME hom from it lies in the sieve.  Kept
    only as the stability counterexample; do not use as a topology."""
    for T in universe.test_objects:
        if not C.accepts(T):
            continue
        hs = universe.homs(T, S.base)
        if hs and not any(h in S.arrows for h in hs):
            return False
    return True


def _oracle_sample(universe):
    """The frozenset sieves matching tp._sample_sieves, in its order: the
    maximal sieve, then the sieves of the first generator sets."""
    pool = sorted(universe.arrows_into(universe.base),
                  key=lambda h: (h.source.n, sorted(h.source.transitions),
                                 h.mapping))[:tp.POOL_CAP]
    gen_sets = itertools.chain.from_iterable(
        itertools.combinations(pool, k) for k in range(4))
    return [OracleSieve(universe.base,
                        frozenset(universe.arrows_into(universe.base)))] + [
        oracle_generate_sieve(universe, gens)
        for gens in itertools.islice(gen_sets, tp.SIEVE_CAP)]


def _renumbered(G, rng):
    p = list(range(G.n))
    rng.shuffle(p)
    return FinLTS(G.n, G.alphabet, p[G.root],
                  frozenset((p[s], a, p[t]) for (s, a, t) in G.transitions))


def test_masked_sieves_match_frozenset_oracle():
    sample = [path_digraph(1), path_digraph(2), fan(2), catalog("twoCycle")]
    rng = random.Random(7)
    cases = [(G, tp.SiteBounds(2, 4)) for G in sample] + [
        (_renumbered(G, rng), tp.SiteBounds(2, 2))
        for _ in range(3) for G in sample]
    classes = [tp.PATHS, tp.TREES] + [tp.energy_class(E)
                                      for E in NAMED_VECTORS.values()]
    seen = set()
    for G, bounds in cases:
        universes = {}

        def universe(H):
            if H not in universes:
                universes[H] = tp.MorphismUniverse(H, bounds)
            return universes[H]

        U = universe(G)
        for A in U.objects:
            assert U.homs(A, G) == tuple(enumerate_homs(A, G))
        masked, frozen = tp._sample_sieves(U), _oracle_sample(U)
        assert len(masked) == len(frozen)
        for S, O in zip(masked, frozen):
            assert S.arrows == O.arrows
            for C in classes:
                v, w = tp.is_covering(S, C, U), oracle_is_covering(O, C, U)
                assert (v.covering, v.truncated, v.missing) == \
                    (w.covering, w.truncated, w.missing), C.name
                assert tp.naive_covering(S, C, U) == \
                    oracle_naive_covering(O, C, U), C.name
                seen.add(("covering", v.covering))
            for f in U.arrows_into(G):
                UH = universe(f.source)
                pulled = tp.sieve_pullback(f, S, UH)
                assert pulled.base == f.source
                assert pulled.arrows == \
                    oracle_sieve_pullback(f, O, UH).arrows
                seen.add(("pullback empty", not pulled.arrows))
    assert seen == {("covering", True), ("covering", False),
                    ("pullback empty", True), ("pullback empty", False)}


def test_principal_masks_match_oracle_generated_sieves():
    """Every arrow into every object, from every object and from the trees
    one level past the bounds, has as principal mask the oracle's sieve on
    it alone."""
    sample = [path_digraph(1), path_digraph(2), fan(2), catalog("twoCycle")]
    rng = random.Random(29)
    cases = [(G, tp.SiteBounds(2, k)) for G in sample for k in (2, 4)] + [
        (_renumbered(G, rng), tp.SiteBounds(2, 2))
        for _ in range(2) for G in sample]
    checked = 0
    for G, bounds in cases:
        U = tp.MorphismUniverse(G, bounds)
        beyond = [T for T in tp.test_objects(G.alphabet, tp.SiteBounds(
            bounds.max_test_depth + 1, bounds.max_test_size + 1))
            if T not in U.objects]
        for B in U.objects:
            for A in U.objects + beyond:
                for h in enumerate_homs(A, B):
                    got = set(U.decode(U.principal(U.id_of(h))))
                    assert got == oracle_generate_sieve(U, [h]).arrows
                    checked += A in beyond
    assert checked


def test_generate_sieve_rejects_arrows_not_into_the_base():
    F, P1 = fan_lts("a", "a"), trace_lts("a")
    U = tp.MorphismUniverse(F, BOUNDS)
    other = tp.MorphismUniverse(fan_lts("ab", "ac"), BOUNDS)
    for h in (identity_hom(P1),  # an arrow of U into a test object
              other.arrows_into(other.base)[-1],  # into another base
              tp.Homomorphism(P1, F, (0, 0))):  # not a hom at all
        with pytest.raises(ValueError):
            tp.generate_sieve(U, [h])
    assert tp.generate_sieve(U, [tp.Homomorphism(P1, F, (0, 1))]).arrows


def test_test_objects_share_trees_between_calls_and_universes():
    first = tp.test_objects(("a", "b"), BOUNDS)
    second = tp.test_objects(["a", "b"], BOUNDS)
    assert first is not second and first == second
    assert all(S is T for S, T in zip(first, second))
    U = tp.MorphismUniverse(fan_lts("a", "b"), BOUNDS)
    trees = list(U.test_objects)
    first.clear()
    U.test_objects.reverse()
    V = tp.MorphismUniverse(fan_lts("a", "b"), BOUNDS)
    assert V.test_objects == second == trees
    assert all(S is T for S, T in zip(V.test_objects, trees))
    tp._test_objects.cache_clear()  # as the benchmark clears it per pass
    fresh = tp.test_objects(("a", "b"), BOUNDS)
    assert fresh == second and fresh[-1] is not second[-1]


def oracle_axiom_check(C, sample, bounds, naive=False, covers_fn=None):
    """The per-pullback axiom loop over the oracle's frozenset sieves, for
    `covers_fn` over arrow sets (by default the class's or the naive one)."""
    covers_fn = covers_fn or (oracle_naive_covering if naive else (
        lambda S, cls, u: oracle_is_covering(S, cls, u).covering))
    cache, memo = {}, {}

    def universe(G):
        if G not in cache:
            cache[G] = tp.MorphismUniverse(G, bounds)
        return cache[G]

    def pullback_covers(f, S):
        if (f, S.arrows) not in memo:
            UH = universe(f.source)
            memo[f, S.arrows] = covers_fn(oracle_sieve_pullback(f, S, UH),
                                          C, UH)
        return memo[f, S.arrows]

    failures = {"maximality": [], "stability": [], "transitivity": []}
    for G in sample:
        U = universe(G)
        sieves = _oracle_sample(U)
        if not covers_fn(sieves[0], C, U):
            failures["maximality"].append({"base": G})
        covering = [S for S in sieves if covers_fn(S, C, U)]
        for S in covering:
            for f in U.arrows_into(G):
                if not pullback_covers(f, S):
                    failures["stability"].append(
                        {"base": G, "sieve": S, "along": f})
                    break
        for S in covering:
            for R in sieves:
                if all(pullback_covers(f, R) for f in S.arrows) \
                        and not covers_fn(R, C, U):
                    failures["transitivity"].append(
                        {"base": G, "outer": S, "inner": R})
    return failures


def _as_arrow_sets(failures):
    return {axiom: [{k: v.arrows if isinstance(v, (tp.Sieve, OracleSieve))
                     else v
                     for k, v in entry.items()} for entry in entries]
            for axiom, entries in failures.items()}


def _misses_at_most_one(required, mask, naive):
    return sum(bin(m & ~mask).count("1") for m in required) <= 1


def oracle_misses_at_most_one(S, C, universe):
    return sum(h not in S.arrows for T in universe.test_objects
               if C.accepts(T) for h in universe.homs(T, S.base)) <= 1


@pytest.mark.parametrize(
    "C,naive,loose", [(tp.PATHS, False, False), (tp.TREES, False, False),
                      (tp.TREES, True, False), (tp.PATHS, True, False),
                      (tp.TREES, False, True)],
    ids=["paths", "trees", "trees-naive", "paths-naive", "trees-loose"])
def test_axiom_check_matches_per_pullback_loop(C, naive, loose, monkeypatch):
    """With `loose`, both sides count a sieve as covering when it misses at
    most one required arrow.  Unlike the class and naive predicates, that
    one can fail transitivity, so the transitivity code is exercised."""
    rng = random.Random(11)
    sample = [path_digraph(1), path_digraph(2), fan(2), catalog("twoCycle"),
              fan_lts("a", "a")]
    sample += [_renumbered(G, rng) for G in sample]
    bounds = tp.SiteBounds(2, 2)
    if loose:
        monkeypatch.setattr(tp, "_covers", _misses_at_most_one)
    got = tp.grothendieck_axiom_check(C, sample, bounds, naive=naive)
    want = _as_arrow_sets(oracle_axiom_check(
        C, sample, bounds, naive, loose and oracle_misses_at_most_one))
    assert _as_arrow_sets(got["failures"]) == want
    assert any(want.values()) == (naive or loose)
    assert bool(want["transitivity"]) == loose


def test_naive_axiom_check_matches_oracle_on_branching_tests():
    """With test trees of 3 states a test object has several homs into a
    leg's source, so a pullback can be naively covering and not covering."""
    sample = [fan(2), fan_lts("a", "a")]
    bounds = tp.SiteBounds(2, 3)
    got = tp.grothendieck_axiom_check(tp.TREES, sample, bounds, naive=True)
    want = _as_arrow_sets(oracle_axiom_check(tp.TREES, sample, bounds, True))
    assert _as_arrow_sets(got["failures"]) == want
    assert want["stability"]


def _build_by_recursion(t, me, trans):
    child = me + 1
    for (a, sub) in t:
        trans.append((me, a, child))
        child = _build_by_recursion(sub, child, trans)
    return child


def test_term_to_lts_numbers_states_in_preorder():
    """The recursive preorder numbering that the stack replaced, kept as
    its oracle."""
    for alphabet in (("a",), ("a", "b"), ("a", "b", "c")):
        for term in tp._tree_terms(alphabet, 3, 5):
            trans = []
            n = _build_by_recursion(term, 0, trans)
            assert tp._term_to_lts(term, alphabet) == \
                FinLTS(n, alphabet, 0, frozenset(trans)), term


def _tree_terms_by_recursion(alphabet, depth, size):
    """The recursive multiset enumeration that `_tree_terms` replaced, kept
    as its oracle."""
    if depth == 0 or size <= 1:
        return ((),)
    opts = sorted((a, sub) for sub in _tree_terms_by_recursion(
        alphabet, depth - 1, size - 1) for a in alphabet)
    results = []

    def rec(i, budget, acc):
        results.append(tuple(acc))
        for j in range(i, len(opts)):
            c = tp._term_size(opts[j][1])
            if c <= budget:
                acc.append(opts[j])
                rec(j, budget - c, acc)
                acc.pop()

    rec(0, size - 1, [])
    return tuple(sorted(set(results)))


def test_tree_terms_match_recursive_enumeration():
    cases = [(alphabet, depth, size) for alphabet in (("a",), ("a", "b"))
             for depth in range(1, 4) for size in range(1, 7)]
    cases += [(("a", "b", "c"), depth, size) for depth in (1, 2)
              for size in range(1, 6)]
    for case in cases:
        assert tp._tree_terms(*case) == _tree_terms_by_recursion(*case), case
