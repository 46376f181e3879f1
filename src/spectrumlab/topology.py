"""Covering predicates on the site of finite rooted systems.

Sieves are extensional: finite arrow sets over an explicitly enumerated
morphism universe (all homs among bounded test trees and the base).  True
sieves are infinite families; every check here is a truncation of one, and
verdicts carry a truncation flag when the base has cycles (bounded test
depth cannot exhaust the probes of a cyclic base).
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .lts import (BudgetExceeded, FinLTS, Homomorphism, enumerate_homs,
                  enumeration_budget, fan_lts, identity_hom, is_rooted_tree,
                  max_branching, trace_lts, tree_depth)
from .spectrum import INF, format_vector

MAX_TEST_OBJECTS = 400
POOL_CAP = 10       # generator arrows considered per base in axiom checks
SIEVE_CAP = 50      # enumerated sieves per base in axiom checks


@dataclass(frozen=True)
class SiteBounds:
    max_test_depth: int = 2
    max_test_size: int = 4

    def __post_init__(self):
        if self.max_test_depth < 1 or self.max_test_size < 1:
            raise ValueError("bounds must be positive")


# ---------------------------------------------------------------------------
# observation classes


@dataclass(frozen=True)
class ObservationClass:
    name: str
    max_depth: float
    max_branch: float

    def accepts(self, T):
        if not is_rooted_tree(T):
            return False
        return (tree_depth(T) <= self.max_depth
                and max_branching(T) <= self.max_branch)


PATHS = ObservationClass("paths", INF, 1)
TREES = ObservationClass("trees", INF, INF)


def energy_class(E):
    """Test trees with depth <= e1 and branching <= e2; the remaining four
    coordinates gate nothing here."""
    return ObservationClass("energy%s" % format_vector(E), E[0], E[1])


# ---------------------------------------------------------------------------
# test-object enumeration


def _term_size(term):
    return 1 + sum(_term_size(sub) for (a, sub) in term)


@lru_cache(maxsize=None)
def _tree_terms(alphabet, depth, size):
    """Canonical rooted-tree terms: sorted tuples of (label, subterm)."""
    if depth == 0 or size <= 1:
        return ((),)
    opts = sorted((a, sub) for sub in _tree_terms(alphabet, depth - 1, size - 1)
                  for a in alphabet)
    results = []

    def rec(i, budget, acc):
        results.append(tuple(acc))
        for j in range(i, len(opts)):
            c = _term_size(opts[j][1])
            if c <= budget:
                acc.append(opts[j])
                rec(j, budget - c, acc)
                acc.pop()

    rec(0, size - 1, [])
    return tuple(sorted(set(results)))


def _term_to_lts(term, alphabet):
    trans = []
    counter = [0]

    def build(t):
        me = counter[0]
        counter[0] += 1
        for (a, sub) in t:
            child = build(sub)
            trans.append((me, a, child))
        return me

    build(term)
    return FinLTS(counter[0], alphabet, 0, frozenset(trans))


def test_objects(alphabet, bounds):
    """All rooted labeled trees within the bounds, smallest first."""
    terms = _tree_terms(tuple(alphabet), bounds.max_test_depth,
                        bounds.max_test_size)
    if len(terms) > MAX_TEST_OBJECTS:
        raise BudgetExceeded("test-object enumeration", len(terms), "trees",
                             MAX_TEST_OBJECTS)
    trees = [_term_to_lts(t, tuple(alphabet)) for t in terms]
    return sorted(trees, key=lambda T: (T.n, sorted(T.transitions)))


class MorphismUniverse:
    """Bounded hom universe over one base: bounded test trees plus the base,
    with all homs between them enumerated on demand and cached."""

    def __init__(self, base, bounds=SiteBounds()):
        self.base = base
        self.bounds = bounds
        self.test_objects = test_objects(base.alphabet, bounds)
        self.objects = list(self.test_objects)
        if base not in self.objects:
            self.objects.append(base)
        self._homs = {}

    def homs(self, A, B):
        key = (A, B)
        if key not in self._homs:
            self._homs[key] = tuple(enumerate_homs(A, B, enumeration_budget()))
        return self._homs[key]

    def arrows_into(self, B):
        out = []
        for A in self.objects:
            out.extend(self.homs(A, B))
        return out


# ---------------------------------------------------------------------------
# sieves


@dataclass(frozen=True)
class Sieve:
    base: FinLTS
    arrows: frozenset  # of Homomorphism into base

    def __post_init__(self):
        for h in self.arrows:
            if h.target != self.base:
                raise ValueError("sieve arrow does not target the base")


def generate_sieve(universe, generators):
    """Close the generators under precomposition with every enumerated map.

    One pass suffices: (g o k) o k' = g o (k o k'), and k o k' is itself an
    enumerated hom into the domain of g.
    """
    arrows = set(generators)
    for g in list(arrows):
        for A in universe.objects:
            for k in universe.homs(A, g.source):
                arrows.add(g.compose(k))
    return Sieve(universe.base, frozenset(arrows))


def path_sieve(universe):
    """The sieve generated by every arrow from a path test object into the
    base."""
    return generate_sieve(universe, [h for T in universe.test_objects
                                     if PATHS.accepts(T)
                                     for h in universe.homs(T, universe.base)])


def maximal_sieve(universe):
    return Sieve(universe.base, frozenset(universe.arrows_into(universe.base)))


def sieve_pullback(f, S, universe):
    """f*(S) = {g into f.source : f o g in S}, over the universe on f.source.

    Closed automatically: f o (g o k) = (f o g) o k lands in S whenever
    f o g does, because S is itself precomposition-closed.
    """
    if f.target != S.base:
        raise ValueError("pullback map must target the sieve base")
    arrows = frozenset(g for g in universe.arrows_into(f.source)
                       if f.compose(g) in S.arrows)
    return Sieve(f.source, arrows)


# ---------------------------------------------------------------------------
# covering predicates


@dataclass(frozen=True)
class CoveringVerdict:
    covering: bool
    truncated: bool
    missing: tuple  # sample of required arrows absent from the sieve

    def __bool__(self):
        return self.covering


def is_covering(S, C, universe):
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
    return CoveringVerdict(not missing, S.base.has_cycle(),
                           tuple(missing[:4]))


def naive_covering(S, C, universe):
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


# ---------------------------------------------------------------------------
# Grothendieck axiom property checks


def _universe_for(G, bounds, cache):
    if G not in cache:
        cache[G] = MorphismUniverse(G, bounds)
    return cache[G]


def _sample_sieves(universe):
    pool = sorted(universe.arrows_into(universe.base),
                  key=lambda h: (h.source.n, sorted(h.source.transitions),
                                 h.mapping))[:POOL_CAP]
    sieves = [maximal_sieve(universe)]
    gen_sets = itertools.chain.from_iterable(
        itertools.combinations(pool, k) for k in range(0, 4))
    for gens in itertools.islice(gen_sets, SIEVE_CAP):
        sieves.append(generate_sieve(universe, gens))
    return sieves


def grothendieck_axiom_check(C, sample, bounds=SiteBounds(), naive=False):
    """Property-check maximality, stability, and transitivity of the covering
    predicate over sieves generated by <= 3 arrows on each sample base."""
    covers_fn = naive_covering if naive else \
        (lambda S, cls, u: is_covering(S, cls, u).covering)
    cache = {}
    failures = {"maximality": [], "stability": [], "transitivity": []}
    for G in sample:
        U = _universe_for(G, bounds, cache)
        sieves = _sample_sieves(U)
        if not covers_fn(maximal_sieve(U), C, U):
            failures["maximality"].append({"base": G})
        covering = [S for S in sieves if covers_fn(S, C, U)]
        for S in covering:
            for f in U.arrows_into(G):
                UH = _universe_for(f.source, bounds, cache)
                if not covers_fn(sieve_pullback(f, S, UH), C, UH):
                    failures["stability"].append(
                        {"base": G, "sieve": S, "along": f})
                    break
        for S in covering:
            for R in sieves:
                all_pullbacks_cover = True
                for f in S.arrows:
                    UH = _universe_for(f.source, bounds, cache)
                    if not covers_fn(sieve_pullback(f, R, UH), C, UH):
                        all_pullbacks_cover = False
                        break
                if all_pullbacks_cover and not covers_fn(R, C, U):
                    failures["transitivity"].append(
                        {"base": G, "outer": S, "inner": R})
    return {
        "class": C.name,
        "naive": naive,
        "maximality": not failures["maximality"],
        "stability": not failures["stability"],
        "transitivity": not failures["transitivity"],
        "failures": failures,
    }


def naive_instability_witness(bounds=SiteBounds()):
    """The exact stability counterexample: on the two-branch fan over a, the
    sieve generated by the right-branch inclusion is naively covering, but
    its pullback along the left-branch inclusion is not."""
    P1 = trace_lts("a")
    F = fan_lts("a", "a")
    f_l = Homomorphism(P1, F, (0, 1))
    f_r = Homomorphism(P1, F, (0, 2))
    assert f_l.is_valid() and f_r.is_valid()
    UF = MorphismUniverse(F, bounds)
    UP = MorphismUniverse(P1, bounds)
    S = generate_sieve(UF, [f_r])
    pulled = sieve_pullback(f_l, S, UP)
    return {
        "base_covering": naive_covering(S, TREES, UF),
        "pullback_covering": naive_covering(pulled, TREES, UP),
        "identity_in_pullback": identity_hom(P1) in pulled.arrows,
        "sieve_size": len(S.arrows),
        "pullback_size": len(pulled.arrows),
    }


# ---------------------------------------------------------------------------
# trace support and prefix homs


def trace_support(G, length_bound):
    """Words w (|w| <= bound) admitting a root-preserving hom from the chain
    system of w into G; coincides with the bounded trace language."""
    words = set()
    for k in range(length_bound + 1):
        for letters in itertools.product(sorted(G.alphabet), repeat=k):
            w = "".join(letters)
            if enumerate_homs(trace_lts(w, G.alphabet), G):
                words.add(w)
    return words


def prefix_hom_check(w1, w2):
    """Chain-to-chain homs exist exactly for prefixes, and are then unique."""
    alphabet = tuple(sorted(set(w1 + w2))) or ("*",)
    homs = enumerate_homs(trace_lts(w1, alphabet), trace_lts(w2, alphabet))
    prefix = w2.startswith(w1)
    return {
        "w1": w1, "w2": w2,
        "exists": bool(homs),
        "count": len(homs),
        "prefix": prefix,
        "ok": (bool(homs) == prefix) and (not homs or len(homs) == 1),
    }


def density_check(G, bounds=SiteBounds()):
    """The sieve generated by all arrows from chain systems is
    paths-covering within the bounds."""
    U = MorphismUniverse(G, bounds)
    return is_covering(path_sieve(U), PATHS, U).covering
