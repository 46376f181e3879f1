"""Free witness extensions for positive existential modal formulas, the
implication computed through them, a bounded exhaustive oracle, negation
collapse, and the four-regime classifier.

The fragment throughout is T / & / <a> only.  Disjunction would force a
choice of disjunct in the witness construction and is rejected up front.
"""

import itertools
from dataclasses import dataclass

from .hml import (And, Diamond, Top, depth, holds, in_fragment, labels_of,
                  require_labels, satisfies)
from .lts import (BudgetExceeded, FinLTS, Homomorphism, catalog_systems,
                  enumerate_homs)

MAX_BRUTE_STATES = 8

FRAGMENT = "positiveExistential"


def _require_fragment(phi, G=None):
    if not in_fragment(phi, FRAGMENT):
        raise ValueError("formula outside the T/&/<> fragment: %s" % phi)
    if G is not None:
        require_labels(G, phi)


def diamond_count(phi):
    if isinstance(phi, Top):
        return 0
    if isinstance(phi, And):
        return diamond_count(phi.left) + diamond_count(phi.right)
    if isinstance(phi, Diamond):
        return 1 + diamond_count(phi.body)
    raise TypeError(phi)


# ---------------------------------------------------------------------------
# free extensions


@dataclass(frozen=True)
class FreeExtension:
    extended: FinLTS
    inclusion: Homomorphism  # original system -> extended
    witnesses: frozenset     # fresh state indices


def free_extension(G, v, phi):
    """Adjoin one fresh successor per diamond subformula, anchored at v, so
    that the formula holds at the image of v by construction."""
    _require_fragment(phi, G)
    trans = set(G.transitions)
    names = [G.name_of(i) for i in range(G.n)]
    _adjoin(G.n, v, phi, trans, names)
    ext = FinLTS(len(names), G.alphabet, G.root, frozenset(trans),
                 tuple(names))
    inclusion = Homomorphism(G, ext, tuple(range(G.n)))
    return FreeExtension(ext, inclusion, frozenset(range(G.n, len(names))))


def _adjoin(n, anchor, psi, trans, names):
    """For each diamond of psi at anchor, a fresh state named w1, w2, ...
    after the n base states and the edge to it, then its body there."""
    if isinstance(psi, And):
        _adjoin(n, anchor, psi.left, trans, names)
        _adjoin(n, anchor, psi.right, trans, names)
    elif isinstance(psi, Diamond):
        w = len(names)
        names.append("w%d" % (w - n + 1))
        trans.add((anchor, psi.label, w))
        _adjoin(n, w, psi.body, trans, names)
    elif not isinstance(psi, Top):
        raise TypeError(psi)


def heyting_implication_presheaf(G, v, phi, psi):
    """Implication at (G, v): evaluate the consequent at the image of v in
    the free extension by the antecedent."""
    _require_fragment(phi, G)
    _require_fragment(psi, G)
    fe = free_extension(G, v, phi)
    return holds(fe.extended, fe.inclusion(v), psi)


# ---------------------------------------------------------------------------
# bounded exhaustive oracle
#
# A counterexample to "for all H and h: G->H, phi at h(v) implies psi at
# h(v)" can always be shrunk to a quotient of G plus explicit witness edges
# realizing phi: positive formulas transfer forward along homomorphisms, so
# dropping unused states and edges keeps phi true and psi false.  The oracle
# therefore enumerates state partitions of G and, on each quotient, every way
# of realizing phi by added edges (to existing or fresh states).  A
# realization is a pair (n, edges), edge (s, a, t) being bit offsets[s, a] + t
# of edges.  Its answer depends only on the pair, so a partition's distinct
# pairs are collected in a set, and a T/&/<> evaluator decides psi on each.
#
# Realizing only ever adds edges and fresh states, numbered after the old
# ones, so a pair embeds in every pair realized from it with the same state
# numbers, and psi, being positive existential, stays true along that
# embedding.  A pair at which psi already holds can therefore never lead to
# a counterexample.  The oracle realizes phi one top-level conjunct at a
# time and drops such pairs before each conjunct, the first time on the bare
# quotient.  This evaluates psi only on pairs the oracle already holds; it
# never consults the free extension whose answer the oracle checks.


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def _realize(reals, s, phi, offsets, max_states):
    """The distinct pairs made from each (n, edges) in reals by adding edges,
    and fresh states up to max_states, so that phi holds at s."""
    if isinstance(phi, Top):
        return reals
    if isinstance(phi, And):
        left = _realize(reals, s, phi.left, offsets, max_states)
        return _realize(left, s, phi.right, offsets, max_states)
    row = offsets[s, phi.label]
    groups = [set() for _ in range(max_states)]
    for n, edges in reals:
        for t in range(n):
            groups[t].add((n, edges | 1 << row + t))
        if n < max_states:  # a fresh state n
            groups[n].add((n + 1, edges | 1 << row + n))
    out = set()
    for t, group in enumerate(groups):
        if group:
            out |= _realize(group, t, phi.body, offsets, max_states)
    return out


def _holds_in(n, edges, s, psi, offsets):
    """psi (in the T/&/<> fragment) at state s of the pair (n, edges)."""
    if isinstance(psi, Top):
        return True
    if isinstance(psi, And):
        return (_holds_in(n, edges, s, psi.left, offsets)
                and _holds_in(n, edges, s, psi.right, offsets))
    succ = edges >> offsets[s, psi.label] & (1 << n) - 1
    while succ:  # the label's successors of s, lowest first
        low = succ & -succ
        if _holds_in(n, edges, low.bit_length() - 1, psi.body, offsets):
            return True
        succ ^= low
    return False


def brute_force_implication(G, v, phi, psi, size_bound):
    """Necessary bounded check of the universally quantified implication;
    independent of the free-extension construction."""
    _require_fragment(phi, G)
    _require_fragment(psi, G)
    if size_bound < 1:
        raise ValueError("size bound must be at least 1, not %d" % size_bound)
    if G.n > MAX_BRUTE_STATES:
        raise BudgetExceeded("exhaustive oracle", G.n, "base states",
                             MAX_BRUTE_STATES)
    max_states = size_bound + diamond_count(phi)
    # every realization shares G's alphabet, which psi was checked against
    pairs = itertools.product(range(max_states), G.alphabet)
    offsets = {pair: i * max_states for i, pair in enumerate(pairs)}
    for blocks in _partitions(list(range(G.n))):
        if len(blocks) > size_bound:
            continue
        cls = {s: i for i, block in enumerate(blocks) for s in block}
        base = sum({1 << offsets[cls[s], a] + cls[t]
                    for (s, a, t) in G.transitions})
        reals = {(len(blocks), base)}
        for conjunct in _conjuncts(phi):
            reals = _realize({(n, edges) for n, edges in reals
                              if not _holds_in(n, edges, cls[v], psi, offsets)},
                             cls[v], conjunct, offsets, max_states)
        for n, edges in reals:
            if not _holds_in(n, edges, cls[v], psi, offsets):
                return False
    return True


# ---------------------------------------------------------------------------
# negation collapse


def negation_collapse_check(G, v, phi):
    """The negation of a satisfiable positive subfunctor is empty: the free
    extension itself is a homomorphic image of v satisfying the formula."""
    _require_fragment(phi, G)
    fe = free_extension(G, v, phi)
    holds = satisfies(fe.extended, fe.inclusion(v), phi)
    return {
        "negation": not holds,          # must come out False
        "witness_extension": fe,
        "double_negation": holds,       # hence the double negation is full
    }


# ---------------------------------------------------------------------------
# subfunctors and monotonicity


@dataclass(frozen=True)
class Subfunctor:
    formula: object

    def contains(self, G, v):
        return satisfies(G, v, self.formula)


def monotone_along(S, h):
    G, H = h.source, h.target
    return all(not S.contains(G, v) or S.contains(H, h(v))
               for v in range(G.n))


def monotonicity_check(phi):
    """The defining formula must be preserved along every enumerated hom
    between same-alphabet sample systems."""
    _require_fragment(phi)
    S = Subfunctor(phi)
    systems = [g for g in catalog_systems().values()
               if labels_of(phi) <= set(g.alphabet)]
    return all(monotone_along(S, h) for G in systems for H in systems
               if set(G.alphabet) == set(H.alphabet)
               for h in enumerate_homs(G, H))


# ---------------------------------------------------------------------------
# regime classification


def default_sample(phi, psi):
    need = labels_of(phi) | labels_of(psi)
    return [(G, v) for _, G in sorted(catalog_systems().items())
            if need <= set(G.alphabet) for v in range(G.n)]


def _conjuncts(psi):
    if isinstance(psi, And):
        return _conjuncts(psi.left) + _conjuncts(psi.right)
    return [psi]


def _table(sample, fn):
    return tuple(fn(G, v) for (G, v) in sample)


def regime_classify(phi, psi):
    """Compare the implication's truth table over the sample against the
    candidate formulas; report 'other' rather than guess."""
    _require_fragment(phi)
    _require_fragment(psi)
    sample = default_sample(phi, psi)
    if not sample:
        raise ValueError("empty sample")
    imp = _table(sample, lambda G, v: heyting_implication_presheaf(G, v, phi, psi))
    if all(imp):
        return {"regime": "entailment", "residual": None}
    if imp == _table(sample, lambda G, v: satisfies(G, v, psi)):
        regime = "depthIncreasing" if depth(psi) > depth(phi) else "independent"
        return {"regime": regime, "residual": psi}
    for c in _conjuncts(psi):
        if imp == _table(sample, lambda G, v: satisfies(G, v, c)):
            return {"regime": "residual", "residual": c}
    return {"regime": "other", "residual": None}


def adjunction_check(s1, s2, t):
    """Sample-table adjunction: s1 & t below s2 iff t below s1 -> s2."""
    for f in (s1, s2, t):
        _require_fragment(f)
    sample = default_sample(And(s1, t), s2)
    lhs = all(not (satisfies(G, v, s1) and satisfies(G, v, t))
              or satisfies(G, v, s2) for (G, v) in sample)
    rhs = all(not satisfies(G, v, t)
              or heyting_implication_presheaf(G, v, s1, s2)
              for (G, v) in sample)
    return lhs == rhs
