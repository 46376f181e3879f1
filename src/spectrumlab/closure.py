"""Free witness extensions for positive existential modal formulas, the
implication computed through them, a bounded exhaustive oracle, negation
collapse, and the four-regime classifier.

The fragment throughout is T / & / <a> only.  Disjunction would force a
choice of disjunct in the witness construction and is rejected up front.
"""

import itertools
from dataclasses import dataclass

from .hml import (And, Diamond, Top, TOP, depth, holds, in_fragment, labels_of,
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
    fresh = []
    names = [G.name_of(i) for i in range(G.n)]

    def build(anchor, psi):
        if isinstance(psi, Top):
            return
        if isinstance(psi, And):
            build(anchor, psi.left)
            build(anchor, psi.right)
            return
        if isinstance(psi, Diamond):
            w = G.n + len(fresh)
            fresh.append(w)
            names.append("w%d" % len(fresh))
            trans.add((anchor, psi.label, w))
            build(w, psi.body)
            return
        raise TypeError(psi)

    build(v, phi)
    ext = FinLTS(G.n + len(fresh), G.alphabet, G.root, frozenset(trans),
                 tuple(names))
    inclusion = Homomorphism(G, ext, tuple(range(G.n)))
    return FreeExtension(ext, inclusion, frozenset(fresh))


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
# of realizing phi by added edges (to existing or fresh states).


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def _quotient_by(G, blocks):
    cls = {}
    for i, block in enumerate(blocks):
        for s in block:
            cls[s] = i
    trans = frozenset((cls[s], a, cls[t]) for (s, a, t) in G.transitions)
    H = FinLTS(len(blocks), G.alphabet, cls[G.root], trans)
    return H, cls


def _realizations(H, s, phi, max_states):
    """All systems obtained from H by adding edges (and at most
    max_states - |H| fresh states) so that phi holds at s."""
    if isinstance(phi, Top):
        yield H
        return
    if isinstance(phi, And):
        for H1 in _realizations(H, s, phi.left, max_states):
            for H2 in _realizations(H1, s, phi.right, max_states):
                yield H2
        return
    if isinstance(phi, Diamond):
        for t in range(H.n):
            H1 = FinLTS(H.n, H.alphabet, H.root,
                        H.transitions | {(s, phi.label, t)})
            for H2 in _realizations(H1, t, phi.body, max_states):
                yield H2
        if H.n < max_states:
            w = H.n
            H1 = FinLTS(H.n + 1, H.alphabet, H.root,
                        H.transitions | {(s, phi.label, w)})
            for H2 in _realizations(H1, w, phi.body, max_states):
                yield H2
        return
    raise TypeError(phi)


def brute_force_implication(G, v, phi, psi, size_bound):
    """Necessary bounded check of the universally quantified implication;
    independent of the free-extension construction."""
    _require_fragment(phi, G)
    _require_fragment(psi, G)
    if G.n > MAX_BRUTE_STATES:
        raise BudgetExceeded("exhaustive oracle", G.n, "base states",
                             MAX_BRUTE_STATES)
    max_states = size_bound + diamond_count(phi)
    # every realization shares G's alphabet, which psi was checked against
    for blocks in _partitions(list(range(G.n))):
        if len(blocks) > size_bound:
            continue
        H0, cls = _quotient_by(G, blocks)
        anchor = cls[v]
        for H in _realizations(H0, anchor, phi, max_states):
            if not holds(H, anchor, psi):
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
    for G in systems:
        for H in systems:
            if set(G.alphabet) != set(H.alphabet):
                continue
            for h in enumerate_homs(G, H):
                if not monotone_along(S, h):
                    return False
    return True


# ---------------------------------------------------------------------------
# regime classification


def default_sample(phi, psi):
    need = labels_of(phi) | labels_of(psi)
    sample = []
    for name in sorted(catalog_systems()):
        G = catalog_systems()[name]
        if need <= set(G.alphabet):
            sample.extend((G, v) for v in range(G.n))
    return sample


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
