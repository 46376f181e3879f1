"""Modal formulas: satisfaction, fragments, parsing, canonical enumeration,
distinguishing formulas, tree unraveling, and the bounded invariance suites."""

import itertools
from dataclasses import dataclass
from functools import reduce

from .lts import FinLTS, Homomorphism, ParseError, catalog, is_rooted_tree


# ---------------------------------------------------------------------------
# formula trees


class Formula:
    pass


@dataclass(frozen=True)
class Top(Formula):
    def __str__(self):
        return "T"


@dataclass(frozen=True)
class Bot(Formula):
    def __str__(self):
        return "F"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return "(%s & %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return "(%s | %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Diamond(Formula):
    label: str
    body: Formula

    def __str__(self):
        return "<%s>%s" % (self.label, self.body)


@dataclass(frozen=True)
class Box(Formula):
    label: str
    body: Formula

    def __str__(self):
        return "[%s]%s" % (self.label, self.body)


@dataclass(frozen=True)
class Neg(Formula):
    body: Formula

    def __str__(self):
        return "!%s" % (self.body,)


TOP = Top()
BOT = Bot()


def depth(phi):
    if isinstance(phi, (Top, Bot)):
        return 0
    if isinstance(phi, (And, Or)):
        return max(depth(phi.left), depth(phi.right))
    if isinstance(phi, (Diamond, Box)):
        return 1 + depth(phi.body)
    if isinstance(phi, Neg):
        return depth(phi.body)
    raise TypeError(phi)


def labels_of(phi):
    if isinstance(phi, (Top, Bot)):
        return set()
    if isinstance(phi, (And, Or)):
        return labels_of(phi.left) | labels_of(phi.right)
    if isinstance(phi, (Diamond, Box)):
        return {phi.label} | labels_of(phi.body)
    if isinstance(phi, Neg):
        return labels_of(phi.body)
    raise TypeError(phi)


FRAGMENTS = ("traceObs", "diamondOnly", "positiveExistential", "ready", "full")


def _is_inability(phi):
    return (isinstance(phi, Neg) and isinstance(phi.body, Diamond)
            and isinstance(phi.body.body, Top))


def in_fragment(phi, fragment):
    if fragment == "full":
        return True
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return fragment != "positiveExistential"
    if isinstance(phi, Diamond):
        return in_fragment(phi.body, fragment)
    if isinstance(phi, Or):
        if fragment == "positiveExistential":
            return False
        return in_fragment(phi.left, fragment) and in_fragment(phi.right, fragment)
    if isinstance(phi, And):
        if fragment == "traceObs":
            return False
        return in_fragment(phi.left, fragment) and in_fragment(phi.right, fragment)
    if isinstance(phi, Neg):
        return fragment == "ready" and _is_inability(phi)
    if isinstance(phi, Box):
        return False
    raise TypeError(phi)


def fragment_of(phi):
    """Smallest fragment (in inclusion order) containing the formula."""
    for frag in ("positiveExistential", "traceObs", "diamondOnly", "ready", "full"):
        if in_fragment(phi, frag):
            return frag
    return "full"


# ---------------------------------------------------------------------------
# satisfaction


def require_labels(G, phi):
    """Reject a formula that names a label outside G's alphabet."""
    bad = labels_of(phi) - set(G.alphabet)
    if bad:
        raise ValueError("unknown label(s): %s" % ",".join(sorted(bad)))


def satisfies(G, s, phi):
    require_labels(G, phi)
    return holds(G, s, phi)


def holds(G, s, phi):
    """Satisfaction without the label check: a label outside the alphabet
    has no moves.  Dispatches once on the node's type."""
    rule = _HOLDS.get(type(phi))
    if rule is None:
        raise TypeError(phi)
    return rule(G, s, phi)


_HOLDS = {
    Top: lambda G, s, phi: True,
    Bot: lambda G, s, phi: False,
    And: lambda G, s, phi: holds(G, s, phi.left) and holds(G, s, phi.right),
    Or: lambda G, s, phi: holds(G, s, phi.left) or holds(G, s, phi.right),
    Diamond: lambda G, s, phi: any(holds(G, t, phi.body)
                                   for t in G.moves(s).get(phi.label, ())),
    Box: lambda G, s, phi: all(holds(G, t, phi.body)
                               for t in G.moves(s).get(phi.label, ())),
    Neg: lambda G, s, phi: not holds(G, s, phi.body),
}


# ---------------------------------------------------------------------------
# parser / printer  (syntax: T, F, &, |, !, <a>, [a], parentheses)


def parse_formula(text):
    tokens = _tokenize(text)
    result, pos = _parse_or(tokens, 0)
    if pos != len(tokens):
        raise ParseError("trailing input")
    return result


# Recursive descent: each level takes the tokens and a position and returns
# (formula, position after it).


def _peek(tokens, pos):
    return tokens[pos] if pos < len(tokens) else None


def _parse_or(tokens, pos):
    left, pos = _parse_and(tokens, pos)
    while _peek(tokens, pos) == "|":
        right, pos = _parse_and(tokens, pos + 1)
        left = Or(left, right)
    return left, pos


def _parse_and(tokens, pos):
    left, pos = _parse_unary(tokens, pos)
    while _peek(tokens, pos) == "&":
        right, pos = _parse_unary(tokens, pos + 1)
        left = And(left, right)
    return left, pos


def _parse_unary(tokens, pos):
    tok = _peek(tokens, pos)
    if tok == "!":
        inner, pos = _parse_unary(tokens, pos + 1)
        return Neg(inner), pos
    if tok == "(":
        inner, pos = _parse_or(tokens, pos + 1)
        if pos == len(tokens):
            raise ParseError("unexpected end of formula")
        if tokens[pos] != ")":
            raise ParseError("expected %r, got %r" % (")", tokens[pos]))
        return inner, pos + 1
    if tok in ("T", "F"):
        return (TOP if tok == "T" else BOT), pos + 1
    if isinstance(tok, tuple) and tok[0] in ("dia", "box"):
        body, pos = _parse_unary(tokens, pos + 1)
        return (Diamond if tok[0] == "dia" else Box)(tok[1], body), pos
    raise ParseError("unexpected token %r" % (tok,))


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "&|!()":
            tokens.append(c)
            i += 1
        elif c in "<[":
            close, kind = (">", "dia") if c == "<" else ("]", "box")
            j = text.find(close, i)
            if j < 0:
                raise ParseError("unclosed %r" % c)
            tokens.append((kind, text[i + 1:j]))
            i = j + 1
        elif c in ("T", "F"):
            tokens.append(c)
            i += 1
        else:
            raise ParseError("bad character %r" % c)
    return tokens


def format_formula(phi):
    return str(phi)


# ---------------------------------------------------------------------------
# canonical enumeration
#
# Disjunction distributes over both conjunction and diamonds, so for
# distinguishing states it suffices to enumerate or-free "terms" (nested
# diamonds over conjunction sets), normalized by sorting and deduplication.


def canonical_formulas(alphabet, max_depth, fragment="diamondOnly",
                       max_conj=2):
    """Deterministic normalized formula family of depth <= max_depth.

    max_conj bounds the size of conjunction sets under a modality; pass None
    for all subsets (complete for the depth <= 2 equivalence oracle).
    """
    alphabet = tuple(sorted(alphabet))
    terms_by_depth = {0: []}
    if fragment in ("ready", "full"):
        # inability atoms, depth 1
        inabilities = [Neg(Diamond(a, TOP)) for a in alphabet]
    else:
        inabilities = []

    def conj_of(parts):
        return reduce(And, parts) if parts else TOP

    for d in range(1, max_depth + 1):
        pool = [t for k in range(0, d) for t in terms_by_depth[k]]
        if d == 1:
            bodies = [TOP]
        else:
            if fragment == "traceObs":
                bodies = [TOP] + pool  # no conjunction in this fragment
            else:
                body_pool = pool + (inabilities if d >= 2 else [])
                bodies = []
                limit = len(body_pool) if max_conj is None else max_conj
                for k in range(0, limit + 1):
                    for combo in itertools.combinations(body_pool, k):
                        bodies.append(conj_of(list(combo)))
        new_terms = []
        for a in alphabet:
            for b in bodies:
                new_terms.append(Diamond(a, b))
            if fragment == "full":
                for b in bodies:
                    new_terms.append(Box(a, b))
        terms_by_depth[d] = new_terms

    formulas = [TOP]
    if fragment not in ("positiveExistential",):
        formulas.append(BOT)
    if fragment in ("ready", "full"):
        formulas.extend(inabilities)
    for d in range(1, max_depth + 1):
        formulas.extend(terms_by_depth[d])
    return formulas


def distinguishing_formula(M, N, fragment="diamondOnly", depth_bound=2):
    """First canonical formula (in enumeration order) true at root_M and
    false at root_N, or None if the bounded family has no separator."""
    if depth_bound > 3:
        raise ValueError("depth bound capped at 3")
    alphabet = sorted(set(M.alphabet) | set(N.alphabet))
    shared = set(M.alphabet) & set(N.alphabet)
    for phi in canonical_formulas(alphabet, depth_bound, fragment):
        if (labels_of(phi) <= shared and holds(M, M.root, phi)
                and not holds(N, N.root, phi)):
            return phi
    return None


def truth_set(G, s, formulas):
    return frozenset(i for i, phi in enumerate(formulas)
                     if satisfies(G, s, phi))


def d_equivalence_oracle(M, N, d):
    """Same canonical diamond-only formulas of depth <= d at the roots
    (complete conjunction sets; intended for d <= 2)."""
    alphabet = sorted(set(M.alphabet) | set(N.alphabet))
    formulas = [phi for phi in canonical_formulas(alphabet, d, "diamondOnly",
                                                  max_conj=None)
                if not (labels_of(phi) - set(M.alphabet))
                and not (labels_of(phi) - set(N.alphabet))]
    return truth_set(M, M.root, formulas) == truth_set(N, N.root, formulas)


# ---------------------------------------------------------------------------
# tree unraveling


def tree_unravel(G, v, d):
    """The tree of computation paths of length <= d from v, with the
    endpoint projection homomorphism."""
    paths = [((None, v),)]  # a path is a tuple of (incoming label, state)
    frontier = [((None, v),)]
    for _ in range(d):
        nxt = []
        for p in frontier:
            (_, last) = p[-1]
            for (a, t) in _sorted_moves(G, last):
                nxt.append(p + ((a, t),))
        paths.extend(nxt)
        frontier = nxt

    index = {p: i for i, p in enumerate(paths)}
    edges = set()
    for p in paths:
        if len(p) > 1:
            (a, _) = p[-1]
            edges.add((index[p[:-1]], a, index[p]))

    names = []
    for p in paths:
        if len(p) == 1:
            names.append("ε")  # root path
        else:
            names.append("".join(G.name_of(t) for (_, t) in p[1:]))
    if len(set(names)) != len(names):  # disambiguate off-catalog collisions
        names = [nm if names.count(nm) == 1 else "%s#%d" % (nm, i)
                 for i, nm in enumerate(names)]

    tree = FinLTS(len(paths), G.alphabet, 0, frozenset(edges), tuple(names))
    projection = Homomorphism(tree, _rerooted(G, v),
                              tuple(p[-1][1] for p in paths))
    return tree, projection


def _sorted_moves(G, s):
    """The (label, successor) pairs of s in transition order."""
    return sorted((a, t) for a, succ in G.moves(s).items() for t in succ)


def _rerooted(G, v):
    if v == G.root:
        return G
    return FinLTS(G.n, G.alphabet, v, G.transitions, G.names)


def tree_shape_checks(T):
    """Unraveling outputs must be trees: no edge s->s, and every vertex has
    at most one parent."""
    no_self = all(s != t for (s, a, t) in T.transitions)
    by_target = {}
    for (s, a, t) in T.transitions:
        by_target.setdefault(t, set()).add(s)
    unique_parent = all(len(v) == 1 for v in by_target.values())
    return no_self and unique_parent


# ---------------------------------------------------------------------------
# characteristic formulas


def characteristic_formula(T, v, d):
    """Diamond-only formula for a depth <= d tree: conjunction of child
    diamonds plus a disjunctive successor-coverage clause.  The contract
    (satisfaction = d-equivalence) is validated externally on small
    instances; a negation-free formula cannot express it in general."""
    if not is_rooted_tree(T):
        raise ValueError("input is not a rooted tree")

    def build(u, k):
        children = _sorted_moves(T, u)
        if k == 0 or not children:
            return TOP
        parts = [Diamond(a, build(t, k - 1)) for (a, t) in children]
        conj = reduce(And, parts)
        if len(parts) > 1:
            conj = And(conj, reduce(Or, parts))
        return conj

    return build(v, d)


# ---------------------------------------------------------------------------
# bounded invariance suites (depths 0/1/2)


def _geo_atoms():
    # built lazily to avoid a circular import
    from . import geometry as g
    x = g.Var("x")
    y = g.Var("y")
    z = g.Var("z")
    D = g.Atom
    def ex(v, body):
        return g.Exists(v.name, body)
    table = {
        0: [
            ("diag", D("D", x, x), False),
        ],
        1: [
            ("has-successor", ex(y, D("D", x, y)), True),
            ("diag", D("D", x, x), False),
            ("has-predecessor", ex(y, D("D", y, x)), False),
            ("exists-self-loop", ex(y, D("D", y, y)), False),
            ("mutual-neighbor", ex(y, g.And(D("D", x, y), D("D", y, x))), False),
            ("successor-with-loop", ex(y, g.And(D("D", x, y), D("D", y, y))), False),
        ],
        2: [
            ("two-step", ex(y, g.And(D("D", x, y), ex(z, D("D", y, z)))), True),
            ("a1-successor-with-loop",
             ex(y, g.And(D("D", x, y), D("D", y, y))), False),
            ("a2-successor-on-2cycle",
             ex(y, g.And(D("D", x, y), ex(z, g.And(D("D", y, z), D("D", z, y))))),
             False),
            ("a3-successor-to-loop",
             ex(y, g.And(D("D", x, y), ex(z, g.And(D("D", y, z), D("D", z, z))))),
             False),
            ("a4-triangle",
             ex(y, g.And(D("D", x, y), ex(z, g.And(D("D", y, z), D("D", x, z))))),
             False),
            ("a5-loop-and-successor",
             g.And(D("D", x, x), ex(y, D("D", x, y))), False),
            ("a6-loop-and-two-step",
             g.And(D("D", x, x), ex(y, g.And(D("D", x, y), ex(z, D("D", y, z))))),
             False),
            ("a7-return-cycle",
             ex(y, g.And(D("D", x, y), ex(z, g.And(D("D", y, z), D("D", z, x))))),
             False),
        ],
    }
    return table


def _witness_pairs():
    """name -> (M, sM, N, sN, relation over state names)."""
    L = catalog("selfLoop")
    C = catalog("twoCycle")
    P = catalog("path")
    R = catalog("backEdge")
    Ce = catalog("cycleEntry")
    E = catalog("stretchedEntry")
    lc = (L, "a", C, "x", [("a", "x"), ("a", "y")])
    pr = (P, "x", R, "rt", [("x", "rt"), ("y", "lp"), ("y", "rt")])
    ce = (Ce, "a", E, "a",
          [("a", "a")] + [(s, t) for s in ("b", "c") for t in ("b", "c", "d")])
    return {"loop-vs-cycle": lc, "path-vs-backEdge": pr,
            "entry-vs-stretched": ce}


ATOM_WITNESS = {
    (0, "diag"): "loop-vs-cycle",
    (1, "diag"): "loop-vs-cycle",
    (1, "has-predecessor"): "path-vs-backEdge",
    (1, "exists-self-loop"): "loop-vs-cycle",
    (1, "mutual-neighbor"): "path-vs-backEdge",
    (1, "successor-with-loop"): "loop-vs-cycle",
    (2, "a1-successor-with-loop"): "loop-vs-cycle",
    (2, "a2-successor-on-2cycle"): "entry-vs-stretched",
    (2, "a3-successor-to-loop"): "loop-vs-cycle",
    (2, "a4-triangle"): "loop-vs-cycle",
    (2, "a5-loop-and-successor"): "loop-vs-cycle",
    (2, "a6-loop-and-two-step"): "loop-vs-cycle",
    (2, "a7-return-cycle"): "loop-vs-cycle",
}


def vanbenthem_suite(d):
    """For each depth-d first-order atom: invariant atoms must transfer along
    bisimulations, non-invariant ones must be separated at designated
    bisimilar states.  Returns report rows."""
    from . import geometry as g
    from .equivalences import bisimilar, greatest_bisimulation
    from .lts import unlabeled_catalog_systems

    if d not in (0, 1, 2):
        raise ValueError("d must be 0, 1 or 2")
    atoms = _geo_atoms()[d]
    pairs = _witness_pairs()
    rows = []
    for (name, formula, invariant) in atoms:
        if invariant:
            # check transfer over every bisimilar unlabeled catalog pair
            ok = True
            systems = sorted(unlabeled_catalog_systems().items())
            for (n1, M), (n2, N) in itertools.combinations(systems, 2):
                gb = greatest_bisimulation(M, N)
                for (s, t) in sorted(gb):
                    vm = g.eval_formula(M, formula, {"x": s})
                    vn = g.eval_formula(N, formula, {"x": t})
                    if vm != vn:
                        ok = False
            rows.append({"atom": name, "invariant": True, "ok": ok,
                         "witness": None})
        else:
            wname = ATOM_WITNESS[(d, name)]
            (M, sM, N, sN, rel) = pairs[wname]
            rel_idx = frozenset((M.state(a), N.state(b)) for (a, b) in rel)
            wit = bisimilar(M, N)
            is_bisim = (wit is not None
                        and rel_idx <= greatest_bisimulation(M, N)
                        and (M.state(sM), N.state(sN)) in rel_idx)
            vm = g.eval_formula(M, formula, {"x": M.state(sM)})
            vn = g.eval_formula(N, formula, {"x": N.state(sN)})
            rows.append({"atom": name, "invariant": False,
                         "ok": bool(is_bisim and vm != vn),
                         "witness": (wname, vm, vn)})
    return rows
