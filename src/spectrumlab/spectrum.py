"""Energy vectors and the finite distributive lattice calculus.

Vectors live in (N u {inf})^6, inf being float('inf').  The spectrum lattice
closes the named vectors in semi-naive rounds on thermometer codes (min and
max are & and |), numbers its elements, keeps int meet/join tables and
up-/down-set masks, and answers Heyting and co-Heyting operations, negations,
irreducibles and the Boolean core on the numbers.  Lattices of sets (downsets
of a finite poset) are numbered only when a method reads the tables."""

import itertools
import operator
from functools import lru_cache, reduce

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
    return tuple(map(min, a, b))


def vec_join(a, b):
    return tuple(map(max, a, b))


def vec_leq(a, b):
    return all(map(operator.le, a, b))


def format_vector(v):
    return "(" + ",".join("inf" if x == INF else str(int(x)) for x in v) + ")"


class FiniteDistributiveLattice:
    """Explicit finite lattice over hashable elements, immutable after
    construction.  Element i of ``elements`` has number i (``index``); the
    meet and join tables hold numbers; bit j of ``up[i]`` is set when i is
    below j, and bit j of ``down[i]`` when j is below i.  The ``_n`` methods
    take and return numbers.  Distributivity is a checkable property, not
    an assumed one."""

    def __init__(self, elements, meet, join):
        self.elements = sorted(set(elements), key=repr)
        self._number(self.elements, meet, join)

    def _number(self, keys, meet, join):
        n = range(len(keys))  # meet and join act on keys[i], for element i
        self.index, code = dict(zip(self.elements, n)), dict(zip(keys, n))
        self.meet_table, self.join_table = (
            [[code.get(op(a, b)) for b in keys] for a in keys]
            for op in (meet, join))
        if any(None in row for row in self.meet_table + self.join_table):
            raise ValueError("element set not closed under meet/join")
        self.up = [sum(1 << j for j in n if row[j] == i)
                   for i, row in enumerate(self.meet_table)]
        self.down = [sum(1 << j for j in n if row[j] == j)
                     for row in self.meet_table]
        self._bot = reduce(lambda i, j: self.meet_table[i][j], n)
        self._top = reduce(lambda i, j: self.join_table[i][j], n)
        self.bottom = self.elements[self._bot]
        self.top = self.elements[self._top]

    def meet(self, a, b):
        return self.elements[self.meet_table[self.index[a]][self.index[b]]]

    def join(self, a, b):
        return self.elements[self.join_table[self.index[a]][self.index[b]]]

    def leq(self, a, b):
        return self.up[self.index[a]] >> self.index[b] & 1 == 1

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def join_irreducibles(self):
        """Non-bottom elements that are not the join of all the elements
        strictly below them (so not the join of any two of them)."""
        if not hasattr(self, "_ji"):
            self._ji = self._irreducibles(self.join_table, self._bot, False)
        return self._ji

    def meet_irreducibles(self):
        """Dually: non-top elements not the meet of all elements above."""
        if not hasattr(self, "_mi"):
            self._mi = self._irreducibles(self.meet_table, self._top, True)
        return self._mi

    def _irreducibles(self, table, end, dual):
        """x != end not folded by table from the a < x (x < a when dual)."""
        mt, n = self.meet_table, range(len(self.meet_table))
        return [self.elements[x] for x in n if x != end and reduce(
            lambda acc, a: table[acc][a], (a for a in n if a != x and (
                mt[x][a] == x if dual else mt[a][x] == a)), end) != x]

    def is_distributive(self):  # one row of all c per (a, b)
        mt, jt = self.meet_table, self.join_table
        at_j, at_m = ([operator.itemgetter(*r) for r in t] for t in (jt, mt))
        return all(at_j[b](ma) == at_m[a](jt[ab])
                   for a, ma in enumerate(mt) for b, ab in enumerate(ma))

    def _join_n(self, numbers):
        return reduce(lambda h, z: self.join_table[h][z], numbers, self._bot)

    def _join_irreducibles_n(self, key, keep):
        """Join of the join-irreducibles j with keep(j), memoized on key."""
        if not hasattr(self, "_jn"):
            self._jn = [self.index[j] for j in self.join_irreducibles()]
            self._birkhoff = {}
        if key not in self._birkhoff:
            self._birkhoff[key] = self._join_n(filter(keep, self._jn))
        return self._birkhoff[key]

    def heyting_n(self, a, b):
        """Birkhoff implication: join of irreducibles j with j & a <= b, which
        is the join of all z with z & a <= b, as each z joins the irreducibles
        under it; j & a <= b iff j & a <= a & b, so memoized on (a, a & b)."""
        row = self.meet_table[a]
        below = self.down[row[b]]
        return self._join_irreducibles_n(("->", a, row[b]),
                                         lambda j: below >> row[j] & 1)

    def coheyting_n(self, x, y):
        """Birkhoff subtraction: join of irreducibles under x but not y; for j
        under x, j <= y iff j <= x & y, so it is memoized on (x, x & y)."""
        cut = self.down[x] & ~self.down[y]
        return self._join_irreducibles_n(("-", x, self.meet_table[x][y]),
                                         lambda j: cut >> j & 1)

    def heyting(self, a, b):
        return self.elements[self.heyting_n(self.index[a], self.index[b])]

    def coheyting(self, x, y):
        return self.elements[self.coheyting_n(self.index[x], self.index[y])]

    def pseudocomplement(self, x):
        return self.elements[self.heyting_n(self.index[x], self._bot)]

    def conegation(self, x):
        return self.elements[self.coheyting_n(self._top, self.index[x])]

    def boolean_core(self):
        neg = [self.heyting_n(i, self._bot) for i in range(len(self.elements))]
        return [x for i, x in enumerate(self.elements) if neg[neg[i]] == i]


class SetLattice(FiniteDistributiveLattice):
    """A lattice of sets under intersection and union, given bottom first
    and top last.  Meet, join and order are computed when asked; the sets
    are numbered, from & and |, the first time a method reads the tables."""

    def __init__(self, elements):
        self.elements = list(elements)
        self.bottom, self.top = self.elements[0], self.elements[-1]

    meet = staticmethod(operator.and_)
    join = staticmethod(operator.or_)
    leq = staticmethod(operator.le)

    def __getattr__(self, name):
        if name not in ("index", "meet_table", "join_table", "up", "down",
                        "_bot", "_top"):
            raise AttributeError(name)
        bit = {p: 1 << k for k, p in enumerate(self.top)}  # sets as masks
        self._number([sum(bit[p] for p in x) for x in self.elements],
                     operator.and_, operator.or_)
        return getattr(self, name)

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

    Returns (lattice, provenance, rounds).  A round is one pass over the
    pairs with a fresh vector, one the previous round added (all, at first);
    the count includes the final round that adds nothing.  Provenance maps
    each vector to its name or first deriving expression.  A vector's code
    has, per component, one bit for each seed value above the least, set up
    to its own value: min and max make no new value, so they are & and |.
    """
    current = sorted(set(seed))
    if len({len(v) for v in current}) > 1:
        raise ValueError("seed vectors of unequal length")
    code = dict.fromkeys(current, 0)
    for i, vals in enumerate(map(sorted, map(set, zip(*current)))):
        for v in current:
            code[v] = code[v] << len(vals) - 1 | (1 << vals.index(v[i])) - 1
    provenance = {v: NAME_OF_VECTOR.get(v, format_vector(v)) for v in current}
    added, rounds, codes = current, 0, set(code.values())
    while added:
        fresh, added, rounds = set(added), [], rounds + 1
        for a, b in itertools.combinations(sorted(current), 2):
            if a in fresh or b in fresh:
                for c, op, sym in ((code[a] & code[b], vec_meet, "∧"),
                                   (code[a] | code[b], vec_join, "∨")):
                    if c not in codes:
                        v = op(a, b)
                        code[v] = c
                        codes.add(c)
                        provenance[v] = provenance[a] + sym + provenance[b]
                        added.append(v)
        current.extend(added)
    L = FiniteDistributiveLattice.__new__(FiniteDistributiveLattice)
    L.elements = sorted(current, key=repr)
    L._number([code[v] for v in L.elements], operator.and_, operator.or_)
    return L, provenance, rounds


@lru_cache(maxsize=None)
def spectrum_lattice():
    """The closure of the named vectors, built once per process."""
    return close_sublattice(NAMED_VECTORS.values())


def naive_subtraction(x, y):
    """Componentwise product-frame subtraction; may leave the lattice."""
    return tuple(a if a > b else 0 for a, b in zip(x, y))


def indecomposability_check(L):
    """Connectivity of the comparability graph on the join-irreducibles,
    and the covering relations inside them."""
    J = L.join_irreducibles()
    comps = []  # each j joins the components it is comparable with
    for j in J:
        near = [c for c in comps
                if any(L.leq(j, k) or L.leq(k, j) for k in c)]
        comps = [c for c in comps if c not in near] + [sum(near, [j])]
    jcovers = [(a, b) for a in J for b in J
               if L.lt(a, b) and not any(L.lt(a, c) and L.lt(c, b) for c in J)]
    return {"connected": len(comps) == 1, "components": len(comps),
            "j_covers": jcovers}


def incomparable_named_pairs():
    """Ordered pairs of distinct named vectors incomparable componentwise."""
    return [(na, nb) for (na, a), (nb, b)
            in itertools.permutations(NAMED_VECTORS.items(), 2)
            if not vec_leq(a, b) and not vec_leq(b, a)]


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
