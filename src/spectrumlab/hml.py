"""Modal formulas: satisfaction, fragments, parsing, canonical enumeration,
distinguishing formulas, tree unraveling and characteristic formulas.  The
bounded invariance suites, which evaluate geometric atoms, are in
geometry."""

import itertools
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import partial, reduce

from .lts import FinLTS, Homomorphism, ParseError, _image, is_rooted_tree


# ---------------------------------------------------------------------------
# formula trees


class Formula:
    _labels = None  # labels_of's frozenset, stored on the node on first use


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
    """The labels phi names: a frozenset computed once, stored on the node."""
    labels = getattr(phi, "_labels", None)
    if labels is None:
        if isinstance(phi, (Top, Bot)):
            labels = frozenset()
        elif isinstance(phi, (And, Or)):
            labels = labels_of(phi.left) | labels_of(phi.right)
        elif isinstance(phi, (Diamond, Box)):
            labels = labels_of(phi.body) | {phi.label}
        elif isinstance(phi, Neg):
            labels = labels_of(phi.body)
        else:
            raise TypeError(phi)
        object.__setattr__(phi, "_labels", labels)
    return labels


# The node kinds each fragment admits, smallest fragment first.  "!<a>T" is
# an inability, the one negation the ready fragment admits.
FRAGMENTS = {
    "positiveExistential": frozenset({"T", "<a>", "&"}),
    "traceObs": frozenset({"T", "F", "<a>", "|"}),
    "diamondOnly": frozenset({"T", "F", "<a>", "&", "|"}),
    "ready": frozenset({"T", "F", "<a>", "&", "|", "!<a>T"}),
    "full": frozenset({"T", "F", "<a>", "&", "|", "!<a>T", "[a]", "!"}),
}


def _fragment_kinds(fragment):
    try:
        return FRAGMENTS[fragment]
    except KeyError:
        raise ValueError("unknown fragment %r (fragments: %s)"
                         % (fragment, ", ".join(FRAGMENTS))) from None


def _is_inability(phi):
    return (isinstance(phi, Neg) and isinstance(phi.body, Diamond)
            and isinstance(phi.body.body, Top))


def in_fragment(phi, fragment):
    return _admitted(phi, _fragment_kinds(fragment))


def _admitted(phi, kinds):
    """Every node of phi has a kind in kinds; an inability is one node."""
    if isinstance(phi, Top):
        return "T" in kinds
    if isinstance(phi, Diamond):
        return "<a>" in kinds and _admitted(phi.body, kinds)
    if isinstance(phi, And):
        return ("&" in kinds and _admitted(phi.left, kinds)
                and _admitted(phi.right, kinds))
    if isinstance(phi, Or):
        return ("|" in kinds and _admitted(phi.left, kinds)
                and _admitted(phi.right, kinds))
    if isinstance(phi, Bot):
        return "F" in kinds
    if isinstance(phi, Box):
        return "[a]" in kinds and _admitted(phi.body, kinds)
    if isinstance(phi, Neg):
        if _is_inability(phi):
            return "!<a>T" in kinds
        return "!" in kinds and _admitted(phi.body, kinds)
    raise TypeError(phi)


def fragment_of(phi):
    """Smallest fragment (in FRAGMENTS order) containing the formula."""
    return next(frag for frag, kinds in FRAGMENTS.items()
                if _admitted(phi, kinds))


# ---------------------------------------------------------------------------
# satisfaction


def require_labels(G, phi):
    """Reject a formula that names a label outside G's alphabet."""
    bad = labels_of(phi).difference(G.alphabet)
    if bad:
        raise ValueError("unknown label(s): %s" % ",".join(sorted(bad)))


def satisfies(G, s, phi):
    require_labels(G, phi)
    return bool(extension(G, phi, {}) >> s & 1)


def extension(G, phi, memo):
    """Int mask (bit s for state s) of the states of G where phi holds, built
    bottom up.  memo maps id(node) -> mask on G: keep the formulas alive."""
    mask = memo.get(id(phi))
    if mask is None:
        kind, full = type(phi), (1 << G.n) - 1
        if kind is Top or kind is Bot:
            mask = full if kind is Top else 0
        elif kind is And or kind is Or:
            left = extension(G, phi.left, memo)
            right = extension(G, phi.right, memo)
            mask = left & right if kind is And else left | right
        elif kind is Neg:
            mask = full ^ extension(G, phi.body, memo)
        elif kind is Diamond or kind is Box:  # [a]phi is !<a>!phi
            flip = 0 if kind is Diamond else full
            cols = G._masks.get(phi.label)  # None: the label has no moves
            rest = extension(G, phi.body, memo) ^ flip
            mask = (_image(cols[1], rest) if cols else 0) ^ flip
        else:
            raise TypeError(phi)
        memo[id(phi)] = mask
    return mask


# ---------------------------------------------------------------------------
# parser / printer  (syntax: T, F, &, |, !, <a>, [a], parentheses)
#
# One recursive-descent core reads this syntax and geometry's sequents: `|`
# over `&` over the language's prefix forms, a parenthesised formula among
# them.  A language gives its prefix reader, its Or builder (for two or more
# disjuncts) and the noun its errors name.  Each level takes the tokens, a
# position and the language, and returns (formula, position after it).

_Language = namedtuple("_Language", "prefix disj noun")

_FORMULA_TOKEN = re.compile(
    r"\s*(?:([&|!()TF])|<(?P<dia>[^>]*)>|\[(?P<box>[^\]]*)\])")


def parse_formula(text):
    tokens, end = _lex(_FORMULA_TOKEN, text)
    rest = text[end:].lstrip()
    if rest:
        raise ParseError(("unclosed %r" if rest[0] in "<[" else
                          "bad character %r") % rest[0])
    return _parse(tokens, _FORMULA, "trailing input")


def _lex(pattern, text):
    """The tokens pattern reads from the start of text, and where they end:
    group 1's match, or (name, match) for a named group."""
    tokens, end = [], 0
    for m in pattern.finditer(text):
        if m.start() != end:
            break
        end = m.end()
        tokens.append(m[1] or (m.lastgroup, m[m.lastindex]))
    return tokens, end


def _parse(tokens, lang, trailing):
    result, pos = _parse_or(tokens, 0, lang)
    if pos != len(tokens):
        raise ParseError(trailing)
    return result


def _peek(tokens, pos):
    return tokens[pos] if pos < len(tokens) else None


def _take(tokens, pos, lang, expected=None):
    """The token at pos, which must exist and, if given, be expected."""
    tok = _peek(tokens, pos)
    if tok is None:
        raise ParseError("unexpected end of %s" % lang.noun)
    if expected is not None and tok != expected:
        raise ParseError("expected %r, got %r" % (expected, tok))
    return tok


def _parse_or(tokens, pos, lang):
    part, pos = _parse_and(tokens, pos, lang)
    if _peek(tokens, pos) != "|":
        return part, pos
    parts = [part]
    while _peek(tokens, pos) == "|":
        part, pos = _parse_and(tokens, pos + 1, lang)
        parts.append(part)
    return lang.disj(parts), pos


def _parse_and(tokens, pos, lang):
    left, pos = lang.prefix(tokens, pos, lang)
    while _peek(tokens, pos) == "&":
        right, pos = lang.prefix(tokens, pos + 1, lang)
        left = And(left, right)
    return left, pos


def _parse_group(tokens, pos, lang):
    """The parenthesised formula whose "(" is at pos."""
    inner, pos = _parse_or(tokens, pos + 1, lang)
    _take(tokens, pos, lang, ")")
    return inner, pos + 1


def _formula_prefix(tokens, pos, lang):
    tok = _peek(tokens, pos)
    if tok == "(":
        return _parse_group(tokens, pos, lang)
    if tok == "!":
        inner, pos = _formula_prefix(tokens, pos + 1, lang)
        return Neg(inner), pos
    if tok in ("T", "F"):
        return (TOP if tok == "T" else BOT), pos + 1
    if isinstance(tok, tuple):  # ("dia", label) or ("box", label)
        body, pos = _formula_prefix(tokens, pos + 1, lang)
        return (Diamond if tok[0] == "dia" else Box)(tok[1], body), pos
    raise ParseError("unexpected token %r" % (tok,))


_FORMULA = _Language(_formula_prefix, partial(reduce, Or), "formula")


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
    for all subsets (complete for the depth <= 2 equivalence oracle).  The
    ready and full families list the inabilities !<a>T, of depth 1, at every
    max_depth, 0 included.  A smaller max_depth gives a prefix of the family.
    """
    return list(_canonical_family(alphabet, max_depth, fragment, max_conj))


def _canonical_family(alphabet, max_depth, fragment, max_conj=2):
    """canonical_formulas lazily: a depth's bodies are built on reaching it."""
    for noun, k in (("depth", max_depth), ("conjunction", max_conj)):
        if k is not None and k < 0:
            raise ValueError("%s bound must be at least 0, not %d" % (noun, k))
    kinds, alphabet = _fragment_kinds(fragment), tuple(sorted(alphabet))
    inabilities = ([Neg(Diamond(a, TOP)) for a in alphabet]
                   if "!<a>T" in kinds else [])
    modalities = (Diamond, Box) if "[a]" in kinds else (Diamond,)
    yield from [TOP] + ([BOT] if "F" in kinds else []) + inabilities
    terms = []  # by depth; before round d, those of depth < d
    for d in range(1, max_depth + 1):
        pool = terms + inabilities if d > 1 else []  # a body's conjuncts
        limit = (1 if "&" not in kinds else  # at most limit of them, or T
                 len(pool) if max_conj is None else max_conj)
        bodies = [reduce(And, combo) if combo else TOP
                  for k in range(limit + 1)
                  for combo in itertools.combinations(pool, k)]
        for a, op, body in itertools.product(alphabet, modalities, bodies):
            terms.append(op(a, body))
            yield terms[-1]


def distinguishing_formula(M, N, fragment="diamondOnly", depth_bound=2):
    """First canonical formula (in enumeration order) true at root_M and
    false at root_N, or None if the bounded family has no separator."""
    if depth_bound > 3:
        raise ValueError("depth bound capped at 3")
    alphabet = sorted(set(M.alphabet) | set(N.alphabet))
    shared = set(M.alphabet) & set(N.alphabet)
    on_m, on_n = {}, {}  # one memo per system across the family
    for phi in _canonical_family(alphabet, depth_bound, fragment):
        if (labels_of(phi) <= shared and extension(M, phi, on_m) >> M.root & 1
                and not extension(N, phi, on_n) >> N.root & 1):
            return phi
    return None


def truth_set(G, s, formulas):
    for phi in formulas:  # the first formula with an unknown label raises
        require_labels(G, phi)
    memo = {}
    return frozenset(i for i, phi in enumerate(formulas)
                     if extension(G, phi, memo) >> s & 1)


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
    if d < 0:
        raise ValueError("depth bound must be at least 0, not %d" % d)
    if not 0 <= v < G.n:
        raise ValueError("no state %r in a system of %d states" % (v, G.n))
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


# ---------------------------------------------------------------------------
# characteristic formulas


def characteristic_formula(T, v, d):
    """Diamond-only formula for a depth <= d tree: conjunction of child
    diamonds plus a disjunctive successor-coverage clause.  The contract
    (satisfaction = d-equivalence) is validated externally on small
    instances; a negation-free formula cannot express it in general."""
    if not is_rooted_tree(T):
        raise ValueError("input is not a rooted tree")
    return _characteristic(T, v, d)


def _characteristic(T, u, k):
    children = _sorted_moves(T, u)
    if k == 0 or not children:
        return TOP
    parts = [Diamond(a, _characteristic(T, t, k - 1)) for (a, t) in children]
    conj = reduce(And, parts)
    if len(parts) > 1:
        conj = And(conj, reduce(Or, parts))
    return conj
