import itertools
import operator
import random
from functools import reduce

import pytest

from spectrumlab import lindenbaum as lb
from spectrumlab import report
from spectrumlab import spectrum as sp
from spectrumlab.lts import catalog, catalog_systems


def L30():
    if not hasattr(L30, "_memo"):
        L30._memo = sp.spectrum_lattice()
    return L30._memo


def test_vector_operations():
    a = (sp.INF, 2, 0, 0, 1, 1)
    b = (sp.INF, sp.INF, sp.INF, sp.INF, 0, 0)
    assert sp.vec_meet(a, b) == (sp.INF, 2, 0, 0, 0, 0)
    assert sp.vec_join(a, b) == (sp.INF, sp.INF, sp.INF, sp.INF, 1, 1)
    assert sp.vec_leq(sp.vec_meet(a, b), a)
    assert sp.format_vector(a) == "(inf,2,0,0,1,1)"
    # against the zip-based forms they replaced, on seeded vectors
    rng = random.Random(23)
    for _ in range(500):
        d = rng.randint(0, 6)
        x, y = ([rng.choice((0, 1, 2, 3, 5, sp.INF)) for _ in range(d)]
                for _ in "xy")
        assert sp.vec_meet(x, y) == _vec_meet(x, y)
        assert sp.vec_join(x, y) == _vec_join(x, y)
        assert sp.vec_leq(x, y) == all(p <= q for p, q in zip(x, y))


def test_named_vectors_form_expected_order():
    v = sp.NAMED_VECTORS
    chain = ["E", "T", "F", "RV", "R", "RS", "B"]
    for lo, hi in zip(chain, chain[1:]):
        assert sp.vec_leq(v[lo], v[hi]) and v[lo] != v[hi]
    assert not sp.vec_leq(v["S"], v["F"]) and not sp.vec_leq(v["F"], v["S"])


def test_closure_size_and_rounds():
    lattice, provenance, rounds = L30()
    assert len(lattice.elements) == 30
    named = [x for x in lattice.elements if x in sp.NAME_OF_VECTOR]
    assert len(named) == 13
    assert rounds == 3
    # provenance covers every element and names the seeds by their own names
    assert set(provenance) == set(lattice.elements)
    for name, vec in sp.NAMED_VECTORS.items():
        assert provenance[vec] == name


def test_closure_is_idempotent():
    lattice, _, rounds = sp.close_sublattice(L30()[0].elements)
    assert len(lattice.elements) == 30
    assert rounds == 1


def test_lattice_laws():
    L = L30()[0]
    assert L.is_distributive()
    assert L.bottom == sp.NAMED_VECTORS["E"]
    assert L.top == sp.NAMED_VECTORS["B"]
    for a, b in itertools.islice(
            itertools.combinations(L.elements, 2), 0, None, 7):
        assert L.meet(a, b) == sp.vec_meet(a, b)
        assert L.join(a, b) == sp.vec_join(a, b)


def test_irreducible_counts():
    L = L30()[0]
    assert len(L.join_irreducibles()) == 10
    assert len(L.meet_irreducibles()) == 10


def test_heyting_adjunction_exhaustive():
    L = L30()[0]
    named = list(sp.NAMED_VECTORS.values())
    for a, b in itertools.product(named, repeat=2):
        h = L.heyting(a, b)
        for z in L.elements:
            assert L.leq(L.meet(z, a), b) == L.leq(z, h)
    S, F, IF = (sp.NAMED_VECTORS[k] for k in ("S", "F", "IF"))
    assert L.heyting(S, F) == IF


def test_coheyting_adjunction_spot_checks():
    L = L30()[0]
    v = sp.NAMED_VECTORS
    cases = [("S", "T", "S"), ("F", "T", "F"), ("B", "RS", "B"),
             ("RS", "S", "F"), ("2S", "RS", "IF")]
    for x, y, expect in cases:
        assert L.coheyting(v[x], v[y]) == v[expect]
    # adjunction: x \ y <= z  iff  x <= y v z
    for x, y, z in itertools.product(list(v.values())[:6], repeat=3):
        assert L.leq(L.coheyting(x, y), z) == L.leq(x, L.join(y, z))


def test_negations_collapse():
    L = L30()[0]
    E, B = sp.NAMED_VECTORS["E"], sp.NAMED_VECTORS["B"]
    for x in L.elements:
        assert L.pseudocomplement(x) == (B if x == E else E)
        assert L.conegation(x) == (E if x == B else B)
        assert L.meet(x, L.pseudocomplement(x)) == E
    assert sorted(L.boolean_core(), key=repr) == sorted([E, B], key=repr)


def test_naive_subtraction_leaves_lattice():
    L = L30()[0]
    v = sp.NAMED_VECTORS
    raw = sp.naive_subtraction(v["RS"], v["S"])
    assert raw not in set(L.elements)
    assert L.coheyting(v["RS"], v["S"]) in set(L.elements)


def test_incomparable_pairs():
    pairs = sp.incomparable_named_pairs()
    assert len(pairs) == 32
    assert ("S", "F") in pairs and ("F", "S") in pairs


def test_indecomposability():
    L = L30()[0]
    out = sp.indecomposability_check(L)
    assert out["connected"] and out["components"] == 1


def test_downset_lattice_recovers_poset():
    # Birkhoff: O(P) has exactly |P| join-irreducibles (principal downsets)
    named = list(sp.NAMED_VECTORS.values())
    D = sp.downset_lattice(named, sp.vec_leq)
    assert len(D.join_irreducibles()) == len(named)
    assert D.is_distributive()


# The 2^|P| subset filter downset_lattice used before it took unions of
# principal downsets: its oracle.


def _downsets_by_filter(elems, leq):
    downsets = []
    for mask in range(1 << len(elems)):
        sub = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        if all(b in sub for a in sub for b in elems if leq(b, a)):
            downsets.append(sub)
    return downsets


def _random_posets():
    yield [], sp.vec_leq
    for k in range(1, 6):
        yield list(range(k)), lambda a, b: a <= b
    yield list(sp.NAMED_VECTORS.values()), sp.vec_leq
    rng = random.Random(5)
    for _ in range(40):
        # subsets of a 4-set under inclusion, and integers under divisibility
        yield sorted({frozenset(x for x in range(4) if rng.random() < 0.5)
                      for _ in range(rng.randint(1, 9))}, key=sorted), \
            lambda a, b: a <= b
        yield rng.sample(range(1, 40), rng.randint(1, 10)), \
            lambda a, b: b % a == 0


def test_downset_lattice_matches_subset_filter():
    sizes = set()
    for elems, leq in _random_posets():
        D = sp.downset_lattice(elems, leq)
        want = _downsets_by_filter(elems, leq)
        assert len(D.elements) == len(set(D.elements)) == len(want), elems
        assert set(D.elements) == set(want), elems
        assert D.bottom == frozenset() and D.top == frozenset(elems)
        sizes.add(len(D.elements))
    assert {1, 2, 6} <= sizes and max(sizes) > 100


# The O(|L|^3) pair scans the irreducibles were computed with before: the
# oracles for the below-join / above-meet test.


def _join_irreducibles(self):
    out = []
    for x in self.elements:
        if x == self.bottom:
            continue
        if any(self.lt(a, x) and self.lt(b, x) and self.join(a, b) == x
               for a in self.elements for b in self.elements):
            continue
        out.append(x)
    return out


def _meet_irreducibles(self):
    out = []
    for x in self.elements:
        if x == self.top:
            continue
        if any(self.lt(x, a) and self.lt(x, b) and self.meet(a, b) == x
               for a in self.elements for b in self.elements):
            continue
        out.append(x)
    return out


def _irreducible_cases():
    yield "spectrum", L30()[0]
    for name, G in sorted(catalog_systems().items()):
        if name != "U":  # 1608 elements: too large for the cubic scan
            yield name, lb.lindenbaum(G).lattice
    rng = random.Random(7)
    for k in range(12):
        # a random poset: subsets of a 4-set under inclusion
        poset = {frozenset(x for x in range(4) if rng.random() < 0.5)
                 for _ in range(rng.randint(1, 7))}
        yield "downset%d" % k, sp.downset_lattice(
            sorted(poset, key=sorted), lambda a, b: a <= b)


def test_irreducibles_match_pair_scan():
    sizes = []
    for name, L in _irreducible_cases():
        assert L.join_irreducibles() == _join_irreducibles(L), name
        assert L.meet_irreducibles() == _meet_irreducibles(L), name
        sizes.append(len(L.elements))
    assert max(sizes) >= 48 and min(sizes) <= 2


def test_set_lattice_join_irreducibles_match_below_join_rule():
    """SetLattice's per-point intersections against the inherited "not the
    join of everything strictly below" rule, run on a fresh copy (the rule
    caches its answer on the lattice)."""
    cases = [(name, lb.lindenbaum(G).lattice)
             for name, G in sorted(catalog_systems().items()) if name != "U"]
    cases += [("downset", sp.downset_lattice(elems, leq))
              for elems, leq in _random_posets()]
    # the same lattices over a non-empty bottom
    cases += [(name + "+z", sp.SetLattice(x | {"z"} for x in L.elements))
              for name, L in cases[-20:]]
    for name, L in cases:
        inherited = sp.FiniteDistributiveLattice.join_irreducibles(
            sp.SetLattice(L.elements))
        assert L.join_irreducibles() == inherited, name
    assert max(len(L.elements) for _, L in cases) >= 48


# The tuple-keyed lattice the numbered one replaced, kept verbatim: the
# oracle for every public method.


class _FiniteDistributiveLattice:
    """Explicit finite lattice over hashable elements.

    Immutable after construction; distributivity is a checkable property, not
    an assumed one.
    """

    def __init__(self, elements, meet, join):
        self.elements = sorted(set(elements), key=repr)
        self._meet = {}
        self._join = {}
        elems = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                m, j = meet(a, b), join(a, b)
                if m not in elems or j not in elems:
                    raise ValueError("element set not closed under meet/join")
                self._meet[(a, b)] = m
                self._join[(a, b)] = j
        self.bottom = reduce(self.meet, self.elements)
        self.top = reduce(self.join, self.elements)

    def meet(self, a, b):
        return self._meet[(a, b)]

    def join(self, a, b):
        return self._join[(a, b)]

    def leq(self, a, b):
        return self._meet[(a, b)] == a

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def join_irreducibles(self):
        """Non-bottom elements that are not the join of all the elements
        strictly below them (so not the join of any two of them)."""
        if not hasattr(self, "_ji"):
            self._ji = [x for x in self.elements if x != self.bottom and reduce(
                self.join, (a for a in self.elements if self.lt(a, x)),
                self.bottom) != x]
        return self._ji

    def meet_irreducibles(self):
        """Dually: non-top elements not the meet of all elements above."""
        if not hasattr(self, "_mi"):
            self._mi = [x for x in self.elements if x != self.top and reduce(
                self.meet, (a for a in self.elements if self.lt(x, a)),
                self.top) != x]
        return self._mi

    def is_distributive(self):
        for a, b, c in itertools.product(self.elements, repeat=3):
            if self.meet(a, self.join(b, c)) != \
                    self.join(self.meet(a, b), self.meet(a, c)):
                return False
        return True

    def heyting(self, a, b):
        """Largest z with z & a <= b (join of all candidates)."""
        candidates = [z for z in self.elements if self.leq(self.meet(z, a), b)]
        return reduce(self.join, candidates, self.bottom)

    def coheyting(self, x, y):
        """Birkhoff subtraction: join of irreducibles under x but not y."""
        parts = [j for j in self.join_irreducibles()
                 if self.leq(j, x) and not self.leq(j, y)]
        return reduce(self.join, parts, self.bottom)

    def pseudocomplement(self, x):
        return self.heyting(x, self.bottom)

    def conegation(self, x):
        return self.coheyting(self.top, x)

    def boolean_core(self):
        return [x for x in self.elements
                if self.pseudocomplement(self.pseudocomplement(x)) == x]



def _answers(L, seq=list):
    """Every public method's answer, on every element and pair.  Lists in
    element order go through seq, so that set lattices, which keep their
    own order, compare as sets."""
    E = L.elements
    ind = sp.indecomposability_check(L)
    out = {"elements": seq(E), "bottom": L.bottom, "top": L.top,
           "join_irreducibles": seq(L.join_irreducibles()),
           "meet_irreducibles": seq(L.meet_irreducibles()),
           "boolean_core": seq(L.boolean_core()),
           "is_distributive": L.is_distributive(),
           "indecomposability": (ind["connected"], ind["components"],
                                 seq(ind["j_covers"]))}
    for a in E:
        for name in ("pseudocomplement", "conegation"):
            out[name, a] = getattr(L, name)(a)
        out["boundary", a] = L.meet(a, L.pseudocomplement(a))
        for b in E:
            for name in ("meet", "join", "leq", "lt", "heyting",
                         "coheyting"):
                out[name, a, b] = getattr(L, name)(a, b)
    return out


def _from_order(elems, below):
    """Meet and join of a finite lattice given by its order, by search."""
    def bound(x, y, under):
        common = [z for z in elems if under(z, x) and under(z, y)]
        return next(z for z in common if all(under(w, z) for w in common))
    return (lambda x, y: bound(x, y, below),
            lambda x, y: bound(x, y, lambda a, b: below(b, a)))


def _pentagon_and_diamond():
    """N5 (0 < a < c < 1, b apart) and M3 (0 < a, b, c < 1, pairwise apart)."""
    n5 = {("0", x) for x in "0abc1"} | {(x, "1") for x in "0abc1"} | {
        ("a", "c"), ("a", "a"), ("b", "b"), ("c", "c")}
    m3 = {("0", x) for x in "0abc1"} | {(x, "1") for x in "0abc1"} | {
        ("a", "a"), ("b", "b"), ("c", "c")}
    for rel in (n5, m3):
        yield list("0abc1"), _from_order(list("0abc1"),
                                         lambda x, y, r=rel: (x, y) in r)


def _vector_families():
    """Seeded closed families of vectors: L30, closures of random sets of
    named vectors, and closures of random vectors over {0, 1, 2, inf}."""
    yield L30()[0].elements
    rng = random.Random(11)
    named = list(sp.NAMED_VECTORS.values())
    for _ in range(12):
        yield sp.close_sublattice(rng.sample(named, rng.randint(1, 6)))[0] \
            .elements
    for _ in range(12):
        seed = [tuple(rng.choice((0, 1, 2, sp.INF)) for _ in range(6))
                for _ in range(rng.randint(1, 3))]
        yield sp.close_sublattice(seed)[0].elements


def _small_posets():
    """Seeded posets of at most five elements, so that their down-set
    lattices have at most 32 elements."""
    rng = random.Random(13)
    yield [], operator.le
    for _ in range(10):
        yield sorted({frozenset(x for x in range(3) if rng.random() < 0.5)
                      for _ in range(rng.randint(1, 5))}, key=sorted), \
            operator.le
        yield rng.sample(range(1, 13), rng.randint(1, 5)), \
            lambda a, b: b % a == 0


def test_numbered_lattice_matches_tuple_keyed_oracle():
    sizes, distributive = [], []
    for elems in _vector_families():
        L = sp.FiniteDistributiveLattice(elems, sp.vec_meet, sp.vec_join)
        assert _answers(L) == _answers(
            _FiniteDistributiveLattice(elems, sp.vec_meet, sp.vec_join))
        sizes.append(len(L.elements))
    for elems, (meet, join) in _pentagon_and_diamond():
        L = sp.FiniteDistributiveLattice(elems, meet, join)
        assert _answers(L) == _answers(
            _FiniteDistributiveLattice(elems, meet, join))
        distributive.append(L.is_distributive())
    for elems, leq in _small_posets():
        D = sp.downset_lattice(elems, leq)
        want = _FiniteDistributiveLattice(D.elements, operator.and_,
                                          operator.or_)
        got = sp.FiniteDistributiveLattice(D.elements, operator.and_,
                                           operator.or_)
        assert _answers(got) == _answers(want), elems
        assert _answers(D, frozenset) == _answers(want, frozenset), elems
        sizes.append(len(D.elements))
    assert distributive == [False, False]
    assert 30 in sizes and min(sizes) == 1 and max(sizes) >= 16
    # closed under neither, under meet only, under join only
    a, b = (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)
    for elems in ([a, b], [(0,) * 6, a, b], [a, b, (1, 1, 0, 0, 0, 0)]):
        for cls in (sp.FiniteDistributiveLattice, _FiniteDistributiveLattice):
            with pytest.raises(ValueError):
                cls(elems, sp.vec_meet, sp.vec_join)


def test_spectrum_lattice_is_built_once_and_set_lattices_stay_unnumbered():
    sp.spectrum_lattice.cache_clear()
    for k in (1, 2, 3):
        getattr(report, "criterion_%d" % k)()
    assert sp.spectrum_lattice.cache_info().misses == 1
    report.criterion_9()
    report.criterion_13()
    assert "meet_table" not in vars(lb.lindenbaum(catalog("U")).lattice)


# The per-element forms heyting_n and criterion 3 were computed with before
# they worked on masks: the oracles for the candidate mask and the per-pair
# adjunction check.


def _heyting_by_join(L, a, b):
    """Join of every z with z & a <= b, one element at a time."""
    return L._join_n(z for z, mz in enumerate(L.meet_table)
                     if L.up[mz[a]] >> b & 1)


def _adjunctions_by_triples(L):
    n, up = range(len(L.elements)), L.up
    himp = [[L.heyting_n(a, b) for b in n] for a in n]
    csub = [[L.coheyting_n(x, y) for y in n] for x in n]
    hey = all(up[L.meet_table[z][a]] >> b & 1 == up[z] >> himp[a][b] & 1
              for z in n for a in n for b in n)
    cohey = all(up[csub[x][y]] >> z & 1 == up[x] >> L.join_table[y][z] & 1
                for x in n for y in n for z in n)
    return hey, cohey


def _random_poset_lattices(seed, count):
    """Down-set lattices of seeded random posets on at most five points:
    i <= j when a chain of sampled edges i < ... < j joins them."""
    rng = random.Random(seed)
    for _ in range(count):
        k, p = rng.randint(0, 5), rng.random()
        below = {(i, i) for i in range(k)}
        for j in range(k):
            for i in range(j):
                if rng.random() < p:
                    below |= {(h, j) for (h, g) in below if g == i}
        yield sp.downset_lattice(range(k), lambda x, y: (x, y) in below)


def _non_distributive():
    return [sp.FiniteDistributiveLattice(elems, meet, join)
            for elems, (meet, join) in _pentagon_and_diamond()]


def test_heyting_candidate_mask_matches_join_of_candidates():
    sizes, fallbacks = set(), []
    for L in [L30()[0]] + list(_random_poset_lattices(17, 200)):
        n = range(len(L.elements))
        assert [[L.heyting_n(a, b) for b in n] for a in n] == \
            [[_heyting_by_join(L, a, b) for b in n] for a in n]
        sizes.add(len(L.elements))
    for L in _non_distributive():
        joins = []
        join_n = L._join_n
        L._join_n = lambda zs: joins.append(1) or join_n(zs)
        n = range(len(L.elements))
        got = [[L.heyting_n(a, b) for b in n] for a in n]
        del L._join_n
        assert got == [[_heyting_by_join(L, a, b) for b in n] for a in n]
        fallbacks.append(len(joins))
    assert {1, 2, 30, 32} <= sizes and len(sizes) > 10
    assert all(fallbacks), fallbacks


def test_adjunction_masks_match_the_triple_scan():
    L = L30()[0]
    assert report.adjunctions(L) == _adjunctions_by_triples(L) == (True, True)
    n5, m3 = _non_distributive()
    assert report.adjunctions(n5) == _adjunctions_by_triples(n5)
    assert report.adjunctions(n5)[0] is False
    assert report.adjunctions(m3) == _adjunctions_by_triples(m3)


# The closure close_sublattice computed on the vectors themselves before it
# worked on thermometer codes, kept verbatim with the zip-based vector
# operations it used: the oracle for the coded, semi-naive closure.


def _vec_meet(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def _vec_join(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _close_by_vectors(seed):
    current = sorted(set(seed))
    provenance = {v: sp.NAME_OF_VECTOR.get(v, sp.format_vector(v))
                  for v in current}
    for rounds in itertools.count(1):
        added = []
        for a, b in itertools.combinations(sorted(current), 2):
            for (op, sym) in ((_vec_meet, "∧"), (_vec_join, "∨")):
                v = op(a, b)
                if v not in provenance:
                    provenance[v] = "%s%s%s" % (provenance[a], sym, provenance[b])
                    added.append(v)
        if not added:
            break
        current.extend(added)
    lattice = sp.FiniteDistributiveLattice(current, _vec_meet, _vec_join)
    return lattice, provenance, rounds


def _closure_seeds():
    """The closed families of _vector_families, seeded subsets of L30 and
    of the named vectors, and seeded vectors over {0, 1, 2, 3, 5, inf} of
    every length from 1 to 6."""
    yield from _vector_families()
    rng = random.Random(19)
    elements = L30()[0].elements
    for _ in range(20):
        yield rng.sample(elements, rng.randint(1, 8))
        yield rng.sample(list(sp.NAMED_VECTORS.values()), rng.randint(2, 9))
    for _ in range(80):
        d = rng.randint(1, 6)
        yield [tuple(rng.choice((0, 1, 2, 3, 5, sp.INF)) for _ in range(d))
               for _ in range(rng.randint(1, 5))]


def _closure_answers(seed, close):
    L, provenance, rounds = close(seed)
    return (L.elements, list(provenance.items()), rounds, L.meet_table,
            L.join_table, L.up, L.down, L.bottom, L.top)


def test_coded_closure_matches_vector_closure():
    rounds, sizes = set(), set()
    for seed in _closure_seeds():
        got = _closure_answers(seed, sp.close_sublattice)
        assert got == _closure_answers(seed, _close_by_vectors), seed
        rounds.add(got[2])
        sizes.add(len(got[0]))
    assert {1, 2, 3} <= rounds and max(rounds) >= 4
    assert 1 in sizes and 30 in sizes and max(sizes) > 60


def test_closure_rejects_vectors_of_unequal_length():
    for seed in ([(0, 1), (1, 0, 0)], [(0,), (0, 1)], [(1, 2, 3), ()]):
        with pytest.raises(ValueError, match="unequal length"):
            sp.close_sublattice(seed)


def _memo_cases():
    """(name, a maker of fresh copies of a lattice, its meet and join)."""
    yield ("L30", lambda: sp.close_sublattice(sp.NAMED_VECTORS.values())[0],
           sp.vec_meet, sp.vec_join)
    for name, (elems, (meet, join)) in zip(("N5", "M3"),
                                          _pentagon_and_diamond()):
        yield (name, lambda e=elems, m=meet, j=join:
               sp.FiniteDistributiveLattice(e, m, j), meet, join)
    for i, D in enumerate(_random_poset_lattices(17, 200)):
        yield ("poset%d" % i, lambda e=D.elements: sp.SetLattice(e),
               operator.and_, operator.or_)


def test_heyting_memo_answers_alike_in_any_order():
    """heyting_n and coheyting_n, memoized on (a, a & b), give the tables of
    the join of candidates and of the tuple-keyed lattice whether they are
    filled by rows, by columns or in reverse, each order on a fresh copy."""
    sizes = set()
    for name, fresh, meet, join in _memo_cases():
        L = fresh()
        E, n = L.elements, range(len(L.elements))
        oracle = _FiniteDistributiveLattice(E, meet, join)
        himp = [[L.index[oracle.heyting(E[a], E[b])] for b in n] for a in n]
        csub = [[L.index[oracle.coheyting(E[a], E[b])] for b in n]
                for a in n]
        assert himp == [[_heyting_by_join(L, a, b) for b in n] for a in n]
        rows = [(a, b) for a in n for b in n]
        for order in (rows, [(a, b) for b, a in rows], rows[::-1]):
            for op, want in (("heyting_n", himp), ("coheyting_n", csub)):
                L, got = fresh(), [[None] * len(n) for _ in n]
                for a, b in order:
                    got[a][b] = getattr(L, op)(a, b)
                assert got == want, (name, op)
        sizes.add(len(E))
    assert {1, 2, 5, 30, 32} <= sizes and len(sizes) > 10
