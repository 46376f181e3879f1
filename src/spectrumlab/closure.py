"""Free witness extensions for positive existential modal formulas, the
implication computed through them, a bounded exhaustive oracle, negation
collapse, and the four-regime classifier.

The fragment throughout is T / & / <a> only.  Disjunction would force a
choice of disjunct in the witness construction and is rejected up front.
"""

import itertools

from .hml import (And, Diamond, Top, depth, extension, in_fragment,
                  labels_of, require_labels, satisfies)
from .lts import BudgetExceeded, FinLTS, catalog_systems, enumerate_homs

MAX_BRUTE_STATES = 8
MAX_REALIZATIONS = 500_000  # per oracle call, summed over its diamonds

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


def free_extension(G, v, phi):
    """Adjoin one fresh successor per diamond subformula, anchored at v, so
    that the formula holds at v by construction.  G's states keep their
    numbers, so the inclusion is the identity on them; the fresh witnesses
    are the states from G.n on."""
    _require_fragment(phi, G)
    trans = set(G.transitions)
    names = [G.name_of(i) for i in range(G.n)]
    _adjoin(G.n, v, phi, trans, names)
    return FinLTS(len(names), G.alphabet, G.root, frozenset(trans),
                  tuple(names))


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
    """Implication at (G, v): evaluate the consequent at v in the free
    extension by the antecedent."""
    _require_fragment(phi, G)
    _require_fragment(psi, G)
    return bool(extension(free_extension(G, v, phi), psi, {}) >> v & 1)


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
# pairs are collected in a set, and psi is decided on each.  A call compiles
# psi and each top-level conjunct of phi once, to tuples of (rows, body), one
# per top-level diamond, rows[s] being offsets[s, label]: realizing and
# evaluating walk these with no dispatch on node types.
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


def _compile(phi, rows):
    """phi (T/&/<>) as a tuple of (rows[label], compiled body), one per
    top-level diamond, left to right: T is (), And is concatenation."""
    if isinstance(phi, And):
        return _compile(phi.left, rows) + _compile(phi.right, rows)
    if isinstance(phi, Diamond):
        return ((rows[phi.label], _compile(phi.body, rows)),)
    return ()


def _realize(reals, s, phi, max_states, spent):
    """The distinct pairs made from each (n, edges) in reals by adding edges,
    and fresh states up to max_states, so that the compiled phi holds at s.
    spent[0] adds up the pairs each diamond returns, against the budget."""
    for rows, body in phi:
        row, out = rows[s], set()
        # by target, except that with body T every group is out itself
        groups = ([set() for _ in range(max_states)] if body
                  else [out] * max_states)
        for n, edges in reals:
            for t in range(n):
                groups[t].add((n, edges | 1 << row + t))
            # a fresh state n: each diamond adds at most one, so n < max_states
            groups[n].add((n + 1, edges | 1 << row + n))
        for t, group in enumerate(groups):
            if body and group:
                out |= _realize(group, t, body, max_states, spent)
        spent[0] += len(out)
        if spent[0] > MAX_REALIZATIONS:
            raise BudgetExceeded("exhaustive oracle", spent[0],
                                 "realizations", MAX_REALIZATIONS)
        reals = out
    return reals


def _holds_in(edges, s, psi, full):
    """The compiled psi at state s of a pair with edges and state mask full."""
    for rows, body in psi:
        succ = edges >> rows[s] & full
        while succ and body:  # the label's successors of s, lowest first
            low = succ & -succ
            if _holds_in(edges, low.bit_length() - 1, body, full):
                break
            succ ^= low
        if not succ:
            return False
    return True


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
    rows = {a: tuple(offsets[s, a] for s in range(max_states))
            for a in G.alphabet}
    goal, spent = _compile(psi, rows), [0]
    conjuncts = [_compile(c, rows) for c in _conjuncts(phi)]
    for blocks in _partitions(list(range(G.n))):
        if len(blocks) > size_bound:
            continue
        cls = {s: i for i, block in enumerate(blocks) for s in block}
        base = sum({1 << rows[a][cls[s]] + cls[t]
                    for (s, a, t) in G.transitions})
        u, reals = cls[v], {(len(blocks), base)}
        for conjunct in conjuncts:
            reals = _realize({(n, edges) for n, edges in reals
                              if not _holds_in(edges, u, goal, (1 << n) - 1)},
                             u, conjunct, max_states, spent)
        for n, edges in reals:
            if not _holds_in(edges, u, goal, (1 << n) - 1):
                return False
    return True


# ---------------------------------------------------------------------------
# negation collapse


def negation_collapse_check(G, v, phi):
    """The negation of a satisfiable positive subfunctor is empty: the free
    extension itself is a homomorphic image of v satisfying the formula."""
    _require_fragment(phi, G)
    holds = satisfies(free_extension(G, v, phi), v, phi)
    return {
        "negation": not holds,          # must come out False
        "double_negation": holds,       # hence the double negation is full
    }


# ---------------------------------------------------------------------------
# subfunctors and monotonicity


def monotone_along(phi, h):
    """The subfunctor phi defines is preserved along h: phi at v implies
    phi at h(v)."""
    G, H = h.source, h.target
    return all(not satisfies(G, v, phi) or satisfies(H, h(v), phi)
               for v in range(G.n))


def monotonicity_check(phi):
    """The defining formula must be preserved along every enumerated hom
    between same-alphabet sample systems."""
    _require_fragment(phi)
    systems = [g for g in catalog_systems().values()
               if labels_of(phi) <= set(g.alphabet)]
    return all(monotone_along(phi, h) for G in systems for H in systems
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
