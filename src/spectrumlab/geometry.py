"""Geometric formulas and sequents over the predicates D (step), G
(reachability), T (path equivalence), evaluated in canonical models; the
bounded invariance suites, which check geometric atoms along bisimulations;
and the standard translation of diamond-only modal formulas.

"Provable" here means valid in the canonical model: the system itself with D
as the edge relation, G its reflexive-transitive closure, and T path
equivalence.
"""

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

from . import hml
from .hml import (BOT, TOP, And, Bot, Top, _Language, _lex, _parse,
                  _parse_group, _peek, _take)
from .equivalences import bisimilar, greatest_bisimulation
from .lts import (BudgetExceeded, ParseError, catalog, enumeration_budget,
                  path_equivalent, unlabeled_catalog_systems)

PREDICATES = ("D", "G", "T")


# ---------------------------------------------------------------------------
# terms and formulas


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    state: str  # display name of a state

    def __str__(self):
        return "c_%s" % self.state


# T, F and & are hml's nodes: the two logics share that connective layer.


@dataclass(frozen=True)
class Atom:
    pred: str
    left: object
    right: object

    def __str__(self):
        return "%s(%s,%s)" % (self.pred, self.left, self.right)


@dataclass(frozen=True)
class Eq:
    left: object
    right: object

    def __str__(self):
        return "%s = %s" % (self.left, self.right)


@dataclass(frozen=True)
class Or:
    parts: tuple

    def __str__(self):
        if not self.parts:
            return "F"
        return "(%s)" % " | ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Exists:
    var: str
    body: object

    def __str__(self):
        return "E %s. %s" % (self.var, self.body)


def free_vars(phi):
    if isinstance(phi, (Top, Bot)):
        return set()
    if isinstance(phi, (Atom, Eq)):
        return {t.name for t in (phi.left, phi.right) if isinstance(t, Var)}
    if isinstance(phi, And):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, Or):
        out = set()
        for p in phi.parts:
            out |= free_vars(p)
        return out
    if isinstance(phi, Exists):
        return free_vars(phi.body) - {phi.var}
    raise TypeError(phi)


@dataclass(frozen=True)
class Sequent:
    context: tuple  # variable names
    antecedent: object
    consequent: object

    def __post_init__(self):
        fv = free_vars(self.antecedent) | free_vars(self.consequent)
        if not fv <= set(self.context):
            raise ValueError("free variables outside context: %s"
                             % sorted(fv - set(self.context)))

    def __str__(self):
        return "%s |- %s" % (self.antecedent, self.consequent)


# ---------------------------------------------------------------------------
# evaluation


def _term_value(G, term, env):
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Const):
        return G.state(term.state)
    raise TypeError(term)


def eval_formula(G, phi, env):
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Atom):
        u = _term_value(G, phi.left, env)
        v = _term_value(G, phi.right, env)
        if phi.pred == "D":
            return G.has_edge(u, v)
        if phi.pred == "G":
            return bool(G._reach[0][u] >> v & 1)
        if phi.pred == "T":
            return path_equivalent(G, u, v)
        raise ValueError("unknown predicate %s" % phi.pred)
    if isinstance(phi, Eq):
        return _term_value(G, phi.left, env) == _term_value(G, phi.right, env)
    if isinstance(phi, And):
        return eval_formula(G, phi.left, env) and eval_formula(G, phi.right, env)
    if isinstance(phi, Or):
        return any(eval_formula(G, p, env) for p in phi.parts)
    if isinstance(phi, Exists):
        for s in range(G.n):
            env2 = dict(env)
            env2[phi.var] = s
            if eval_formula(G, phi.body, env2):
                return True
        return False
    raise TypeError(phi)


def eval_sequent(G, sigma):
    """True iff every assignment of the context variables makes the
    antecedent imply the consequent."""
    budget = enumeration_budget()
    k = len(sigma.context)
    if G.n ** k > budget:
        raise BudgetExceeded("sequent evaluation", G.n ** k, "assignments",
                             budget)
    for values in itertools.product(range(G.n), repeat=k):
        env = dict(zip(sigma.context, values))
        if eval_formula(G, sigma.antecedent, env):
            if not eval_formula(G, sigma.consequent, env):
                return False
    return True


# ---------------------------------------------------------------------------
# bounded invariance suites (depths 0/1/2)


# Depth-d first-order atoms in x, as (name, text, invariant) rows.
SUITE_ATOMS = {
    0: [("diag", "D(x,x)", False)],
    1: [
        ("has-successor", "E y. D(x,y)", True),
        ("diag", "D(x,x)", False),
        ("has-predecessor", "E y. D(y,x)", False),
        ("exists-self-loop", "E y. D(y,y)", False),
        ("mutual-neighbor", "E y. (D(x,y) & D(y,x))", False),
        ("successor-with-loop", "E y. (D(x,y) & D(y,y))", False),
    ],
    2: [
        ("two-step", "E y. (D(x,y) & E z. D(y,z))", True),
        ("a1-successor-with-loop", "E y. (D(x,y) & D(y,y))", False),
        ("a2-successor-on-2cycle",
         "E y. (D(x,y) & E z. (D(y,z) & D(z,y)))", False),
        ("a3-successor-to-loop",
         "E y. (D(x,y) & E z. (D(y,z) & D(z,z)))", False),
        ("a4-triangle", "E y. (D(x,y) & E z. (D(y,z) & D(x,z)))", False),
        ("a5-loop-and-successor", "D(x,x) & E y. D(x,y)", False),
        ("a6-loop-and-two-step", "D(x,x) & E y. (D(x,y) & E z. D(y,z))",
         False),
        ("a7-return-cycle", "E y. (D(x,y) & E z. (D(y,z) & D(z,x)))", False),
    ],
}


def _witness_pairs():
    """name -> (M, sM, N, sN, relation over state names)."""
    return {
        "loop-vs-cycle": (catalog("selfLoop"), "a", catalog("twoCycle"), "x",
                          [("a", "x"), ("a", "y")]),
        "path-vs-backEdge": (catalog("path"), "x", catalog("backEdge"), "rt",
                             [("x", "rt"), ("y", "lp"), ("y", "rt")]),
        "entry-vs-stretched": (
            catalog("cycleEntry"), "a", catalog("stretchedEntry"), "a",
            [("a", "a")] + list(itertools.product("bc", "bcd"))),
    }


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
    if d not in (0, 1, 2):
        raise ValueError("d must be 0, 1 or 2")
    pairs = _witness_pairs()
    bisim, greatest = map(lru_cache(None), (bisimilar, greatest_bisimulation))
    rows = []
    for (name, text, invariant) in SUITE_ATOMS[d]:
        formula = parse_gformula(text)
        if invariant:
            # check transfer over every bisimilar unlabeled catalog pair
            systems = sorted(unlabeled_catalog_systems().items())
            value = {k: [eval_formula(G, formula, {"x": s})
                         for s in range(G.n)] for k, G in systems}
            ok = all(value[m][s] == value[n][t]
                     for (m, M), (n, N) in itertools.combinations(systems, 2)
                     for (s, t) in greatest(M, N))
            rows.append({"atom": name, "invariant": True, "ok": ok,
                         "witness": None})
        else:
            wname = ATOM_WITNESS[(d, name)]
            (M, sM, N, sN, rel) = pairs[wname]
            rel_idx = frozenset((M.state(a), N.state(b)) for (a, b) in rel)
            is_bisim = (bisim(M, N) is not None
                        and rel_idx <= greatest(M, N)
                        and (M.state(sM), N.state(sN)) in rel_idx)
            vm = eval_formula(M, formula, {"x": M.state(sM)})
            vn = eval_formula(N, formula, {"x": N.state(sN)})
            rows.append({"atom": name, "invariant": False,
                         "ok": bool(is_bisim and vm != vn),
                         "witness": (wname, vm, vn)})
    return rows


# ---------------------------------------------------------------------------
# per-system theory


def _structural_sequents():
    x, y, z = Var("x"), Var("y"), Var("z")
    return (
        # a step is a reachability
        Sequent(("x", "y"), Atom("D", x, y), Atom("G", x, y)),
        # reflexivity of reachability
        Sequent(("x",), TOP, Atom("G", x, x)),
        # transitivity
        Sequent(("x", "y", "z"), And(Atom("G", x, y), Atom("G", y, z)),
                Atom("G", x, z)),
        # path-equivalent states reach the same states
        Sequent(("x", "y", "z"), And(Atom("T", x, y), Atom("G", x, z)),
                Atom("G", y, z)),
        # symmetry of path equivalence
        Sequent(("x", "y"), Atom("T", x, y), Atom("T", y, x)),
        # path equivalence entails mutual reachability (one direction)
        Sequent(("x", "y"), Atom("T", x, y), Atom("G", x, y)),
    )


def generate_theory(M):
    """Th(M) as a tuple of sequents: the structural ones, then M's
    existence, completeness and negative sequents, then domain closure."""
    x = Var("x")
    c = [Const(M.name_of(s)) for s in range(M.n)]
    theory = list(_structural_sequents())
    theory += [Sequent((), TOP, Atom("D", c[s], c[t]))
               for (s, a, t) in sorted(M.transitions)]
    for s in range(M.n):
        succ = M.successors(s)
        theory.append(Sequent(("x",), Atom("D", c[s], x),
                              Or(tuple(Eq(x, c[t]) for t in succ))
                              if succ else BOT))
    reach = M._reach[0]
    for s in range(M.n):
        for t in range(M.n):
            if not reach[s] >> t & 1:
                theory.append(Sequent((), Atom("G", c[s], c[t]), BOT))
            if not path_equivalent(M, s, t):
                theory.append(Sequent((), Atom("T", c[s], c[t]), BOT))
    theory.append(Sequent(("x",), TOP, Or(tuple(Eq(x, cs) for cs in c))))
    return tuple(theory)


# ---------------------------------------------------------------------------
# the four named sequents and the structural bridge


def named_sigma(name):
    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    if name == "tot":
        return Sequent(("x",), TOP, Exists("y", Atom("D", x, y)))
    if name == "det":
        return Sequent(("x", "y", "z"),
                       And(Atom("D", x, y), Atom("D", x, z)), Eq(y, z))
    if name == "conf":
        return Sequent(("x", "y", "z"),
                       And(Atom("D", x, y), Atom("D", x, z)),
                       Exists("w", And(Atom("D", y, w), Atom("D", z, w))))
    if name == "loop":
        return Sequent(("x",), TOP, Atom("D", x, x))
    raise KeyError("unknown sigma: %s" % name)


SIGMA_NAMES = ("tot", "det", "conf", "loop")


def _structural_predicate(M, name):
    if name == "tot":
        return all(M.successors(s) for s in range(M.n))
    if name == "det":
        return all(len(M.successors(s)) <= 1 for s in range(M.n))
    if name == "conf":
        return all(any(M.has_edge(u, w) and M.has_edge(v, w)
                       for w in range(M.n))
                   for s in range(M.n)
                   for u in M.successors(s) for v in M.successors(s))
    if name == "loop":
        return all(M.has_edge(s, s) for s in range(M.n))
    raise KeyError(name)


def semantic_bridge_check(M):
    """Each named sequent must agree with its direct structural reading."""
    rows = {}
    for name in SIGMA_NAMES:
        ev = eval_sequent(M, named_sigma(name))
        st = _structural_predicate(M, name)
        rows[name] = {"eval": ev, "structural": st, "agree": ev == st}
    return rows


def topos_separation_certificate(M, N):
    """First sequent from the named family on which the two canonical models
    disagree.  Absence only means 'not separated by the checked family'."""
    for nm in SIGMA_NAMES:
        sigma = named_sigma(nm)
        vm = eval_sequent(M, sigma)
        vn = eval_sequent(N, sigma)
        if vm != vn:
            return {"name": nm, "sequent": sigma,
                    "holds_in": "first" if vm else "second"}
    return None


# ---------------------------------------------------------------------------
# standard translation of diamond-only modal formulas


def standard_translation(phi):
    """ST_x: diamonds become existential step quantifiers.  Only single-label
    ("*") modalities translate; the geometric step predicate is unlabeled."""
    if not hml.in_fragment(phi, "diamondOnly"):
        raise ValueError("formula outside the diamond-only fragment")
    return _translate(phi, "x", itertools.count())


def _translate(phi, v, counter):
    """ST_v(phi); counter numbers the fresh variables v0, v1, ..."""
    if isinstance(phi, (Top, Bot)):
        return phi
    if isinstance(phi, And):
        return And(_translate(phi.left, v, counter),
                   _translate(phi.right, v, counter))
    if isinstance(phi, hml.Or):
        return Or((_translate(phi.left, v, counter),
                   _translate(phi.right, v, counter)))
    if isinstance(phi, hml.Diamond):
        if phi.label != "*":
            raise ValueError("only single-label modalities translate")
        fresh = "v%d" % next(counter)
        return Exists(fresh, And(Atom("D", Var(v), Var(fresh)),
                                 _translate(phi.body, fresh, counter)))
    raise TypeError(phi)


# ---------------------------------------------------------------------------
# sequent text syntax:  D(x,y) & D(x,z) |- y = z     (E w. ... for exists;
# terms and bound variables are identifiers other than E, T and F, those
# starting with c_ state constants), read by hml's parser core


_TOKEN = re.compile(r"\s*(\|-|\||&|\(|\)|=|\.|,|[A-Za-z_][A-Za-z_0-9]*)")


def parse_sequent(text):
    if "|-" not in text:
        raise ParseError("missing turnstile |-")
    left, right = text.split("|-", 1)
    ante = parse_gformula(left)
    cons = parse_gformula(right)
    ctx = tuple(sorted(free_vars(ante) | free_vars(cons)))
    return Sequent(ctx, ante, cons)


def parse_gformula(text):
    tokens, end = _lex(_TOKEN, text)
    if text[end:].strip():
        raise ParseError("bad input at %r" % text[end:])
    return _parse(tokens, _SEQUENT, "trailing input in sequent")


def _name(tok):
    """tok, an identifier but not E, T or F: a term or a bound variable."""
    if not tok.isidentifier():
        raise ParseError("expected an identifier, got %r" % tok)
    if tok in ("E", "T", "F"):
        raise ParseError("reserved word %r cannot be a name" % tok)
    return tok


def _term(tok):
    return Const(tok[2:]) if _name(tok).startswith("c_") else Var(tok)


def _sequent_prefix(tokens, pos, lang):
    """Each form reads its punctuation before its names: a malformed form
    reports its punctuation, and a name's token exists once a later one
    does."""
    tok = _peek(tokens, pos)
    if tok == "(":
        return _parse_group(tokens, pos, lang)
    if tok == "E":
        _take(tokens, pos + 2, lang, ".")
        body, end = _sequent_prefix(tokens, pos + 3, lang)
        return Exists(_name(tokens[pos + 1]), body), end
    if tok in PREDICATES and pos + 1 < len(tokens) \
            and tokens[pos + 1] == "(":
        _take(tokens, pos + 3, lang, ",")
        _take(tokens, pos + 5, lang, ")")
        return Atom(tok, _term(tokens[pos + 2]), _term(tokens[pos + 4])), \
            pos + 6
    if tok in ("T", "F"):
        return (TOP if tok == "T" else BOT), pos + 1
    # bare term: must be an equality
    _take(tokens, pos + 1, lang, "=")
    _take(tokens, pos + 2, lang)
    return Eq(_term(tok), _term(tokens[pos + 2])), pos + 3


_SEQUENT = _Language(_sequent_prefix, lambda parts: Or(tuple(parts)), "sequent")
