import itertools
import random

from spectrumlab import lindenbaum as lb
from spectrumlab import spectrum as sp
from spectrumlab.lts import catalog_systems


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
        assert L.boundary(x) == E
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


def test_automorphisms_identity_present():
    named = list(sp.NAMED_VECTORS.values())
    D = sp.downset_lattice(named[:4], sp.vec_leq)
    autos = D.automorphisms()
    assert {x: x for x in D.elements} in autos


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
