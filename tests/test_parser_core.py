"""hml's parser core against the two recursive-descent parsers it replaced,
kept here as its oracle: one for modal formulas, one for geometric
formulas.  Each old parser is as it was, with its names prefixed (and
geometry's node names qualified); the sequent reader differs from its old
parser only in rejecting terms and bound variables that are not
identifiers."""

import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrumlab import geometry as geo
from spectrumlab import hml
from spectrumlab.hml import (BOT, TOP, And, Box, Diamond, Neg, Or,
                             parse_formula)
from spectrumlab.lts import ParseError


# ---------------------------------------------------------------------------
# the old modal formula parser


def old_parse_formula(text):
    tokens = _hml_tokenize(text)
    result, pos = _hml_parse_or(tokens, 0)
    if pos != len(tokens):
        raise ParseError("trailing input")
    return result


def _hml_peek(tokens, pos):
    return tokens[pos] if pos < len(tokens) else None


def _hml_parse_or(tokens, pos):
    left, pos = _hml_parse_and(tokens, pos)
    while _hml_peek(tokens, pos) == "|":
        right, pos = _hml_parse_and(tokens, pos + 1)
        left = Or(left, right)
    return left, pos


def _hml_parse_and(tokens, pos):
    left, pos = _hml_parse_unary(tokens, pos)
    while _hml_peek(tokens, pos) == "&":
        right, pos = _hml_parse_unary(tokens, pos + 1)
        left = And(left, right)
    return left, pos


def _hml_parse_unary(tokens, pos):
    tok = _hml_peek(tokens, pos)
    if tok == "!":
        inner, pos = _hml_parse_unary(tokens, pos + 1)
        return Neg(inner), pos
    if tok == "(":
        inner, pos = _hml_parse_or(tokens, pos + 1)
        if pos == len(tokens):
            raise ParseError("unexpected end of formula")
        if tokens[pos] != ")":
            raise ParseError("expected %r, got %r" % (")", tokens[pos]))
        return inner, pos + 1
    if tok in ("T", "F"):
        return (TOP if tok == "T" else BOT), pos + 1
    if isinstance(tok, tuple) and tok[0] in ("dia", "box"):
        body, pos = _hml_parse_unary(tokens, pos + 1)
        return (Diamond if tok[0] == "dia" else Box)(tok[1], body), pos
    raise ParseError("unexpected token %r" % (tok,))


def _hml_tokenize(text):
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


# ---------------------------------------------------------------------------
# the old geometric formula parser


_GEO_TOKEN = re.compile(r"\s*(\|-|\||&|\(|\)|=|\.|,|[A-Za-z_][A-Za-z_0-9]*)")


def old_parse_gformula(text):
    tokens = []
    i = 0
    while i < len(text):
        m = _GEO_TOKEN.match(text, i)
        if not m:
            if text[i:].strip():
                raise ParseError("bad input at %r" % text[i:])
            break
        tokens.append(m.group(1))
        i = m.end()
    result, pos = _geo_parse_or(tokens, 0)
    if pos != len(tokens):
        raise ParseError("trailing input in sequent")
    return result


def _geo_peek(tokens, pos):
    return tokens[pos] if pos < len(tokens) else None


def _geo_take(tokens, pos, expected=None):
    """The token at pos, which must exist and, if given, be expected."""
    tok = _geo_peek(tokens, pos)
    if tok is None:
        raise ParseError("unexpected end of sequent")
    if expected is not None and tok != expected:
        raise ParseError("expected %r, got %r" % (expected, tok))
    return tok


def _geo_term(tok):
    if tok.startswith("c_"):
        return geo.Const(tok[2:])
    return geo.Var(tok)


def _geo_parse_or(tokens, pos):
    part, pos = _geo_parse_and(tokens, pos)
    parts = [part]
    while _geo_peek(tokens, pos) == "|":
        part, pos = _geo_parse_and(tokens, pos + 1)
        parts.append(part)
    return (parts[0] if len(parts) == 1 else geo.Or(tuple(parts))), pos


def _geo_parse_and(tokens, pos):
    left, pos = _geo_parse_atomic(tokens, pos)
    while _geo_peek(tokens, pos) == "&":
        right, pos = _geo_parse_atomic(tokens, pos + 1)
        left = geo.And(left, right)
    return left, pos


def _geo_parse_atomic(tokens, pos):
    tok = _geo_peek(tokens, pos)
    if tok == "(":
        inner, pos = _geo_parse_or(tokens, pos + 1)
        _geo_take(tokens, pos, ")")
        return inner, pos + 1
    if tok == "E":
        v = _geo_take(tokens, pos + 1)
        _geo_take(tokens, pos + 2, ".")
        body, pos = _geo_parse_atomic(tokens, pos + 3)
        return geo.Exists(v, body), pos
    if tok in geo.PREDICATES and pos + 1 < len(tokens) \
            and tokens[pos + 1] == "(":
        t1 = _geo_term(_geo_take(tokens, pos + 2))
        _geo_take(tokens, pos + 3, ",")
        t2 = _geo_term(_geo_take(tokens, pos + 4))
        _geo_take(tokens, pos + 5, ")")
        return geo.Atom(tok, t1, t2), pos + 6
    if tok in ("T", "F"):
        return (geo.TOP if tok == "T" else geo.BOT), pos + 1
    # bare term: must be an equality
    _geo_take(tokens, pos)
    _geo_take(tokens, pos + 1, "=")
    return geo.Eq(_geo_term(tok), _geo_term(_geo_take(tokens, pos + 2))), \
        pos + 3


# ---------------------------------------------------------------------------
# differential fuzz: seeded strings, half of them token soup over each
# language's pieces (unclosed brackets, stray closers, a bare E, a missing =,
# characters outside the syntax), half of them chains of well-formed operands
# joined by & and |, now and then with one of those pieces put in


FORMULA_PIECES = ("T", "F", "&", "|", "!", "(", ")", "<a>", "<b>", "[a]",
                  "<>", "< a >", "<", "[", ">", "]", "x", " ", "\t", "T")
FORMULA_OPERANDS = ("T", "F", "<a>T", "[b]F", "!T", "!<a>T", "<>T", "(T | F)",
                    "<a>(T & [a]F)", "< a >T")
SEQUENT_PIECES = ("D", "G", "T", "F", "E", "(", ")", ",", ".", "=", "&", "|",
                  "|-", "x", "y", "c_q0", "D(x,y)", "E y.", "x = y", " ",
                  "$", "\n")
SEQUENT_OPERANDS = ("D(x,y)", "G(x, c_q0)", "T(y,x)", "T", "F", "x = y",
                    "E y. D(x,y)", "(x = c_q)", "E z. (T | F)")
CONNECTIVES = ("&", "|", " & ", " | ")
FUZZ_STRINGS = 20_000


def _outcome(parse, text):
    """(formula, repr) or the ParseError text; any other error escapes."""
    try:
        phi = parse(text)
    except ParseError as e:
        return "error: %s" % e
    return phi, repr(phi)


def _fuzz_text(rng, pieces, operands):
    if rng.random() < 0.5:
        return "".join(rng.choices(pieces, k=rng.randint(0, 9)))
    parts = [rng.choice(operands)]
    for _ in range(rng.randint(0, 2)):
        parts += [rng.choice(CONNECTIVES), rng.choice(operands)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        parts.insert(rng.randint(0, len(parts)), rng.choice(pieces))
    return "".join(parts)


def _fuzz(new, old, pieces, operands, seed, agree=operator.eq):
    """The fuzzed strings on which the parsers' outcomes do not agree, and
    the outcome kinds seen: the first word of an error, "ok", or "ok3" for
    a formula with at least three disjuncts."""
    rng, mismatches, kinds = random.Random(seed), [], set()
    for _ in range(FUZZ_STRINGS):
        text = _fuzz_text(rng, pieces, operands)
        out = _outcome(new, text)
        if not agree(out, _outcome(old, text)):
            mismatches.append(text)
        if isinstance(out, str):
            kinds.add(out.split()[1])
        else:
            kinds.add("ok3" if str(out[0]).count("|") >= 2 else "ok")
    return mismatches, kinds


def test_formula_parser_matches_old_parser_on_fuzzed_text():
    assert _fuzz(parse_formula, old_parse_formula, FORMULA_PIECES,
                 FORMULA_OPERANDS, 23) == (
        [], {"ok", "ok3", "unclosed", "bad", "trailing", "unexpected",
             "expected"})


def _names(phi):
    """The variable names in phi's terms and binders."""
    if isinstance(phi, (geo.Atom, geo.Eq)):
        return {t.name for t in (phi.left, phi.right)
                if isinstance(t, geo.Var)}
    if isinstance(phi, geo.Exists):
        return {phi.var} | _names(phi.body)
    if isinstance(phi, geo.And):
        return _names(phi.left) | _names(phi.right)
    if isinstance(phi, geo.Or):
        return set().union(*map(_names, phi.parts))
    return set()


_NOT_A_NAME = ("error: expected an identifier, got ", "error: reserved word ")


def _is_name(name):
    return name.isidentifier() and name not in ("E", "T", "F")


def _agrees_but_for_identifiers(new, old):
    """The old parser's outcome, except that a term or bound variable that
    is not an identifier, or is one of the reserved words E, T and F, is an
    error: where the old parser accepted one, and possibly where it failed
    only further on."""
    rejected = isinstance(new, str) and new.startswith(_NOT_A_NAME)
    if isinstance(old, str):
        return new == old or rejected
    if all(map(_is_name, _names(old[0]))):
        return new == old
    return rejected


def test_gformula_parser_matches_old_parser_on_fuzzed_text():
    assert _fuzz(geo.parse_gformula, old_parse_gformula, SEQUENT_PIECES,
                 SEQUENT_OPERANDS, 23, _agrees_but_for_identifiers) == (
        [], {"ok", "ok3", "bad", "trailing", "unexpected", "expected",
             "reserved"})


# ---------------------------------------------------------------------------
# printing then parsing gives the formula back


_LABELS = st.sampled_from(["a", "b", "*", "go", "a b", ""])
_FORMULAS = st.recursive(
    st.sampled_from([TOP, BOT]),
    lambda sub: st.one_of(
        st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Diamond, _LABELS, sub), st.builds(Box, _LABELS, sub),
        st.builds(Neg, sub)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_FORMULAS)
def test_parse_formula_inverts_str(phi):
    assert parse_formula(str(phi)) == phi


def test_lex_splits_named_groups():
    assert hml._lex(hml._FORMULA_TOKEN, " <a> & [b]x") == (
        [("dia", "a"), "&", ("box", "b")], 10)


def test_sequent_terms_and_bound_variables_are_identifiers():
    for text in ("& = x", "D((,))", "E ( . T", "D(x,&)", "x = |"):
        with pytest.raises(ParseError, match="expected an identifier"):
            geo.parse_gformula(text)
    for text in ("x = F", "E F. D(F,c_q0)"):
        with pytest.raises(ParseError, match="^reserved word 'F' cannot be "
                                             "a name$"):
            geo.parse_gformula(text)
