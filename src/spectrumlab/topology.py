"""Covering predicates on the site of finite rooted systems.

A morphism universe numbers its arrows, shares its test trees with every
universe of equal alphabet and bounds, and caches principal masks per arrow
and required masks per (depth, branch).  A sieve is an int mask over one
universe's arrow ids, and the axiom check decides once per distinct mask.
True sieves are infinite families; every check here is a truncation of one,
and verdicts carry a truncation flag when the base has cycles (bounded test
depth cannot exhaust the probes of a cyclic base).
"""

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from .lts import (BudgetExceeded, FinLTS, Homomorphism, enumerate_homs,
                  fan_lts, height, identity_hom, is_rooted_tree,
                  max_branching, trace_lts)
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
# observation classes and test objects


@dataclass(frozen=True)
class ObservationClass:
    name: str
    max_depth: float
    max_branch: float

    def accepts(self, T):
        return (is_rooted_tree(T) and height(T, T.root) <= self.max_depth
                and max_branching(T) <= self.max_branch)


PATHS = ObservationClass("paths", INF, 1)
TREES = ObservationClass("trees", INF, INF)


def energy_class(E):
    """Test trees with depth <= e1 and branching <= e2; e3..e6 gate nothing."""
    return ObservationClass("energy%s" % format_vector(E), E[0], E[1])


def _term_size(term):
    return 1 + sum(_term_size(sub) for (a, sub) in term)


@lru_cache(maxsize=None)
def _tree_terms(alphabet, depth, size):
    """Canonical rooted-tree terms: sorted tuples of (label, subterm)."""
    if depth == 0 or size <= 1:
        return ((),)
    terms = [()]  # multisets of the options taken so far, in sorted order
    for opt in sorted((a, sub) for a in alphabet
                      for sub in _tree_terms(alphabet, depth - 1, size - 1)):
        c = _term_size(opt[1])
        terms += [t + (opt,) * k for t in terms
                  for k in range(1, (size - _term_size(t)) // c + 1)]
    return tuple(sorted(terms))


def _term_to_lts(term, alphabet):  # preorder numbering by a stack
    trans, n, stack = [], 1, [(sub, 0, a) for (a, sub) in reversed(term)]
    while stack:
        t, parent, a = stack.pop()
        trans.append((parent, a, n))
        stack += [(sub, n, b) for (b, sub) in reversed(t)]
        n += 1
    return FinLTS(n, alphabet, 0, frozenset(trans))


@lru_cache(maxsize=None)
def _test_objects(alphabet, bounds):
    terms = _tree_terms(alphabet, bounds.max_test_depth, bounds.max_test_size)
    if len(terms) > MAX_TEST_OBJECTS:
        raise BudgetExceeded("test-object enumeration", len(terms), "trees",
                             MAX_TEST_OBJECTS)
    return tuple(sorted((_term_to_lts(t, alphabet) for t in terms),
                        key=lambda T: (T.n, sorted(T.transitions))))


def test_objects(alphabet, bounds):
    """All rooted labeled trees within the bounds, smallest first: a fresh
    list of the trees that every call with equal arguments shares."""
    return list(_test_objects(tuple(alphabet), bounds))


class MorphismUniverse:
    """Bounded hom universe over one base: bounded test trees plus the base.
    `_run(A, B)` numbers hom(A, B) on first use as a run of consecutive arrow
    ids; the ids into B, principal masks and required masks are cached."""

    def __init__(self, base, bounds=SiteBounds()):
        self.base, self.bounds = base, bounds
        self.test_objects = test_objects(base.alphabet, bounds)
        self.objects = self.test_objects + (
            [] if base in self.test_objects else [base])
        self._runs, self._arrows, self._ids, self._into = {}, [], {}, {}
        self._principal, self._required = {}, {}

    def _run(self, A, B):
        if (A, B) not in self._runs:
            homs = enumerate_homs(A, B)
            run = range(len(self._arrows), len(self._arrows) + len(homs))
            self._arrows += homs
            self._runs[A, B] = run
            self._ids.update(zip(homs, run))
        return self._runs[A, B]

    def homs(self, A, B):
        return tuple(self._arrows[i] for i in self._run(A, B))

    def arrows_into(self, B):
        return [h for A in self.objects for h in self.homs(A, B)]

    def ids_into(self, B):
        if B not in self._into:
            self._into[B] = tuple(i for A in self.objects
                                  for i in self._run(A, B))
        return self._into[B]

    def id_of(self, h):
        """The id of a hom, or None when h is not one."""
        self._run(h.source, h.target)
        return self._ids.get(h)

    def compose(self, f, g):
        """The id of f o g for arrow ids f and g."""
        return self.id_of(self._arrows[f].compose(self._arrows[g]))

    def principal(self, g):
        """The mask of the sieve arrow g generates: g and g o k for each k
        into g's source, closed as (g o k) o k' = g o (k o k')."""
        if g not in self._principal:
            self._principal[g] = reduce(int.__or__, (
                1 << self.compose(g, k)
                for k in self.ids_into(self._arrows[g].source)), 1 << g)
        return self._principal[g]

    def decode(self, mask):
        """The arrows of a mask, in id order."""
        return [self._arrows[i] for i in range(mask.bit_length())
                if mask >> i & 1]

    def required(self, C):
        """Masks of the homs into the base from each C-accepted test object."""
        key = (C.max_depth, C.max_branch)  # all that C.accepts reads of C
        if key not in self._required:
            self._required[key] = [sum(1 << i for i in self._run(T, self.base))
                                   for T in self.test_objects if C.accepts(T)]
        return self._required[key]


# ---------------------------------------------------------------------------
# sieves, covering predicates and the Grothendieck axiom checks


class Sieve:
    """Arrows into `universe.base`, as a mask over the universe's arrow
    ids; `arrows` decodes the mask on first read."""

    def __init__(self, universe, mask):
        self.universe, self.mask, self.base = universe, mask, universe.base

    @cached_property
    def arrows(self):
        return frozenset(self.universe.decode(self.mask))


def _mask(S, universe):
    if S.universe is not universe:
        raise ValueError("sieve is not a mask over this universe")
    return S.mask


def generate_sieve(universe, generators):
    """Close the generators under precomposition with every enumerated map:
    the OR of their principal masks."""
    mask = 0
    for h in generators:
        g = universe.id_of(h)
        if g is None or h.target != universe.base:
            raise ValueError("generator is not an arrow into the base")
        mask |= universe.principal(g)
    return Sieve(universe, mask)


def path_sieve(universe):
    """The sieve generated by the arrows from path test objects."""
    return generate_sieve(universe, universe.decode(
        sum(universe.required(PATHS))))


def maximal_sieve(universe):
    return Sieve(universe,
                 sum(1 << i for i in universe.ids_into(universe.base)))


def sieve_pullback(f, S, universe):
    """f*(S) = {g into f.source : f o g in S} as a sieve over `universe`,
    whose base must be f.source, by one bit test per pair (g, f o g).
    Closed: f o (g o k) = (f o g) o k lands in S whenever f o g does,
    because S is itself precomposition-closed."""
    if f.target != S.base:
        raise ValueError("pullback map must target the sieve base")
    if universe.base != f.source:
        raise ValueError("pullback universe must be over the map's source")
    pairs = _pull_pairs(S.universe, f, universe)
    return Sieve(universe, sum(g for g, fg in pairs if S.mask & fg))


def _pull_pairs(home, f, universe):
    """The bits (g, f o g) for each g into f.source: g's id in `universe`,
    f o g's in home."""
    return [(1 << g, 1 << home.id_of(f.compose(universe._arrows[g])))
            for g in universe.ids_into(f.source)]


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
    mask = _mask(S, universe)
    missing = [h for m in universe.required(C)
               for h in universe.decode(m & ~mask)]
    return CoveringVerdict(not missing, S.base.has_cycle(), tuple(missing[:4]))


def naive_covering(S, C, universe):
    """Existence-flavored predicate: for each C-accepted test object with at
    least one hom into the base, SOME hom from it lies in the sieve.  Kept
    only as the stability counterexample; do not use as a topology."""
    return _covers(universe.required(C), _mask(S, universe), True)


def _covers(required, mask, naive):
    if naive:
        return all(m & mask for m in required if m)
    return not any(m & ~mask for m in required)


def _sample_sieves(universe):
    arrows = universe._arrows
    pool = sorted(universe.ids_into(universe.base), key=lambda i: (
        arrows[i].source.n, sorted(arrows[i].source.transitions),
        arrows[i].mapping))[:POOL_CAP]
    gen_sets = itertools.chain.from_iterable(
        itertools.combinations(pool, k) for k in range(0, 4))
    return [maximal_sieve(universe)] + [
        Sieve(universe, reduce(int.__or__, map(universe.principal, gens), 0))
        for gens in itertools.islice(gen_sets, SIEVE_CAP)]


def grothendieck_axiom_check(C, sample, bounds=SiteBounds(), naive=False):
    """Property-check maximality, stability, and transitivity of the covering
    predicate over sieves generated by <= 3 arrows on each sample base.
    Pullback pairs and required masks are built once per leg f; along
    which legs a sieve pulls back to a covering one, whether it covers and
    which inner sieves it fails transitivity with are decided once per
    distinct sieve mask, by int work only."""
    @lru_cache(maxsize=None)
    def universe(G):
        return MorphismUniverse(G, bounds)

    failures = {"maximality": [], "stability": [], "transitivity": []}
    for G in sample:
        U = universe(G)
        sieves = _sample_sieves(U)  # the maximal sieve first
        legs = [(f, U._arrows[f]) for f in U.ids_into(G)]
        tables = [(f, _pull_pairs(U, h, universe(h.source)),
                   universe(h.source).required(C)) for f, h in legs]
        # per distinct mask m: the legs f along which m pulls back to a cover
        along = {m: sum(1 << f for f, pairs, req in tables if _covers(
            req, sum(g for g, fg in pairs if m & fg), naive))
            for m in {S.mask for S in sieves}}
        required = U.required(C)
        covered = {m for m in along if _covers(required, m, naive)}
        # per covered outer mask: the uncovered inner masks it pulls back to
        inner = {m: {r for r in along if not m & ~along[r]} - covered
                 for m in covered}
        if sieves[0].mask not in covered:
            failures["maximality"].append({"base": G})
        covering = [S for S in sieves if S.mask in covered]
        for S in covering:
            bad = [h for f, h in legs if not along[S.mask] >> f & 1]
            if bad:
                failures["stability"].append(
                    {"base": G, "sieve": S, "along": bad[0]})
        failures["transitivity"] += [
            {"base": G, "outer": S, "inner": R} for S in covering
            if inner[S.mask] for R in sieves if R.mask in inner[S.mask]]
    return dict({ax: not found for ax, found in failures.items()},
                **{"class": C.name, "naive": naive, "failures": failures})


def naive_instability_witness(bounds=SiteBounds()):
    """The exact stability counterexample: on the two-branch fan over a, the
    sieve generated by the right-branch inclusion is naively covering, but
    its pullback along the left-branch inclusion is not."""
    P1, F = trace_lts("a"), fan_lts("a", "a")
    f_l, f_r = Homomorphism(P1, F, (0, 1)), Homomorphism(P1, F, (0, 2))
    assert f_l.is_valid() and f_r.is_valid()
    UF, UP = MorphismUniverse(F, bounds), MorphismUniverse(P1, bounds)
    S = generate_sieve(UF, [f_r])
    pulled = sieve_pullback(f_l, S, UP)
    return {"base_covering": naive_covering(S, TREES, UF),
            "pullback_covering": naive_covering(pulled, TREES, UP),
            "identity_in_pullback": identity_hom(P1) in pulled.arrows,
            "sieve_size": len(S.arrows), "pullback_size": len(pulled.arrows)}


# ---------------------------------------------------------------------------
# trace support and prefix homs


def trace_support(G, length_bound):
    """Words w (|w| <= bound) admitting a root-preserving hom from the chain
    system of w into G; coincides with the bounded trace language.  As in
    bounded_traces, a word is a tuple of labels until it is returned as the
    join of its labels."""
    if length_bound < 0:
        raise ValueError("length bound must be at least 0, not %d"
                         % length_bound)
    return {"".join(w) for k in range(length_bound + 1)
            for w in itertools.product(sorted(G.alphabet), repeat=k)
            if enumerate_homs(trace_lts(w, G.alphabet), G)}


def prefix_hom_check(w1, w2):
    """Chain-to-chain homs exist exactly for prefixes, and are then unique."""
    alphabet = tuple(sorted(set(w1 + w2))) or ("*",)
    homs = enumerate_homs(trace_lts(w1, alphabet), trace_lts(w2, alphabet))
    prefix = w2.startswith(w1)
    return {"w1": w1, "w2": w2, "exists": bool(homs), "count": len(homs),
            "prefix": prefix,
            "ok": (bool(homs) == prefix) and (not homs or len(homs) == 1)}


def density_check(G, bounds=SiteBounds()):
    """The sieve generated by all arrows from chain systems is
    paths-covering within the bounds."""
    U = MorphismUniverse(G, bounds)
    return is_covering(path_sieve(U), PATHS, U).covering
