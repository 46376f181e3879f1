"""Energy vectors and the finite distributive lattice calculus.

Vectors live in (N u {inf})^6; the infinite component is float('inf'), which
absorbs max exactly.  The spectrum lattice keeps checked meet/join tables
and answers Heyting and co-Heyting operations, negations, irreducibles and
the Boolean core; lattices of sets (downsets of a finite poset) compute
meet and join on demand.
"""

import itertools
import operator
from functools import reduce

from .lts import BudgetExceeded

INF = float("inf")
MAX_LATTICE_ELEMENTS = 50000  # down-sets one lattice may have

# 13 named equivalence budgets, coarse to fine
NAMED_VECTORS = {
    "E": (1, 1, 0, 0, 0, 0),
    "T": (INF, 1, 0, 0, 0, 0),
    "F": (INF, 2, 0, 0, 1, 1),
    "RV": (INF, 2, 1, 0, 1, 1),
    "R": (INF, 2, 1, 1, 1, 1),
    "FT": (INF, INF, INF, 0, 1, 1),
    "RT": (INF, INF, INF, 1, 1, 1),
    "IF": (INF, 2, 0, 0, INF, 1),
    "PF": (INF, 2, INF, INF, INF, 1),
    "S": (INF, INF, INF, INF, 0, 0),
    "RS": (INF, INF, INF, INF, 1, 1),
    "2S": (INF, INF, INF, INF, INF, 1),
    "B": (INF, INF, INF, INF, INF, INF),
}

NAME_OF_VECTOR = {v: k for k, v in NAMED_VECTORS.items()}


def vec_meet(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def vec_join(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def vec_leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def format_vector(v):
    return "(" + ",".join("inf" if x == INF else str(int(x)) for x in v) + ")"


# ---------------------------------------------------------------------------


class FiniteDistributiveLattice:
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

    def boundary(self, x):
        return self.meet(x, self.pseudocomplement(x))

    def boolean_core(self):
        return [x for x in self.elements
                if self.pseudocomplement(self.pseudocomplement(x)) == x]


class SetLattice(FiniteDistributiveLattice):
    """A lattice of sets under intersection and union, given bottom first
    and top last; meet, join and order are computed when asked."""

    def __init__(self, elements):
        self.elements = list(elements)
        self.bottom, self.top = self.elements[0], self.elements[-1]

    meet = staticmethod(operator.and_)
    join = staticmethod(operator.or_)
    leq = staticmethod(operator.le)

    def join_irreducibles(self):
        """The distinct non-bottom sets ⋂{x : p ∈ x}, one for each point p
        of the top, in element order: each set is the union of these below
        it, and each of them lies inside any union containing its p."""
        if not hasattr(self, "_ji"):
            least = {}
            for x in self.elements:
                for p in x:
                    least[p] = least[p] & x if p in least else x
            found = set(least.values()) - {self.bottom}
            self._ji = [x for x in self.elements if x in found]
        return self._ji


# ---------------------------------------------------------------------------
# closure of the named vectors


def close_sublattice(seed):
    """Smallest superset of seed closed under pairwise componentwise min/max.

    Returns (lattice, provenance, rounds).  A round is one pass over all
    current pairs; the count includes the final pass that adds nothing.
    Provenance maps each vector to its name or first deriving expression.
    """
    current = sorted(set(seed))
    provenance = {}
    for v in current:
        provenance[v] = NAME_OF_VECTOR.get(v, format_vector(v))
    rounds = 0
    while True:
        rounds += 1
        added = []
        for a, b in itertools.combinations(sorted(current), 2):
            for (op, sym) in ((vec_meet, "∧"), (vec_join, "∨")):
                v = op(a, b)
                if v not in provenance:
                    provenance[v] = "%s%s%s" % (provenance[a], sym, provenance[b])
                    added.append(v)
        if not added:
            break
        current.extend(added)
    lattice = FiniteDistributiveLattice(current, vec_meet, vec_join)
    return lattice, provenance, rounds


def spectrum_lattice():
    return close_sublattice(NAMED_VECTORS.values())


def naive_subtraction(x, y):
    """Componentwise product-frame subtraction; may leave the lattice."""
    return tuple(a if a > b else 0 for a, b in zip(x, y))


def comparability_components(L, nodes):
    """Connected components of the comparability graph on the given nodes."""
    nodes = list(nodes)
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.combinations(nodes, 2):
        if L.leq(a, b) or L.leq(b, a):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    comps = {}
    for x in nodes:
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


def indecomposability_check(L):
    """Connectivity of the comparability graph on the join-irreducibles,
    and the covering relations inside them."""
    J = L.join_irreducibles()
    comps = comparability_components(L, J)
    # covering relations inside the J subposet
    jcovers = [(a, b) for a in J for b in J
               if L.lt(a, b) and not any(L.lt(a, c) and L.lt(c, b) for c in J)]
    return {"connected": len(comps) == 1, "components": len(comps),
            "j_covers": jcovers}


def incomparable_named_pairs():
    """Ordered pairs of distinct named vectors incomparable componentwise."""
    out = []
    for (na, a), (nb, b) in itertools.permutations(NAMED_VECTORS.items(), 2):
        if not vec_leq(a, b) and not vec_leq(b, a):
            out.append((na, nb))
    return out


def downset_lattice(poset_elements, leq):
    """O(P): all downward-closed subsets ordered by inclusion.  They are the
    unions of principal downsets, found by a worklist over bitmasks and
    listed by (size, mask), bit i standing for the i-th poset element."""
    elems = list(poset_elements)
    principal = {sum(1 << j for j, b in enumerate(elems) if leq(b, a))
                 for a in elems}
    masks, todo = {0}, [0]
    while todo:
        mask = todo.pop()
        new = {mask | p for p in principal} - masks
        masks |= new
        if len(masks) > MAX_LATTICE_ELEMENTS:
            raise BudgetExceeded("lattice enumeration", len(masks),
                                 "elements", MAX_LATTICE_ELEMENTS)
        todo.extend(new)
    return SetLattice(
        frozenset(e for j, e in enumerate(elems) if mask >> j & 1)
        for mask in sorted(masks, key=lambda m: (m.bit_count(), m)))
