import itertools
import random

import pytest
from conftest import _cyclic_garbage_after
from test_lts import _coreachable_to, _random_system, _reachable_from

from spectrumlab import geometry as geo
from spectrumlab.equivalences import bisimilar, greatest_bisimulation
from spectrumlab.hml import And, Bot, Top, parse_formula
from spectrumlab.lts import (ParseError, catalog, path_equivalent,
                             reachable_from, unlabeled_catalog_systems)


def is_equality_free(phi):
    if isinstance(phi, (Top, Bot, geo.Atom)):
        return True
    if isinstance(phi, geo.Eq):
        return False
    if isinstance(phi, And):
        return is_equality_free(phi.left) and is_equality_free(phi.right)
    if isinstance(phi, geo.Or):
        return all(is_equality_free(p) for p in phi.parts)
    if isinstance(phi, geo.Exists):
        return is_equality_free(phi.body)
    raise TypeError(phi)


def test_parse_gformula_leaves_no_cycle():
    texts = ("D(x,y) & D(x,z)", "E y. (G(x,y) | x = c_q0)", "T & F")
    assert _cyclic_garbage_after(
        lambda: [geo.parse_gformula(text) for text in texts]) == 0


def test_gformula_parse_error_leaves_no_cycle():
    def parse_bad():
        for text in ("D(x,", "(T", "x =", "E x T", "T T", "D(x y)"):
            try:
                geo.parse_gformula(text)
            except ParseError:
                pass
            else:
                raise AssertionError(text)
    assert _cyclic_garbage_after(parse_bad) == 0


@pytest.mark.parametrize("word", ("E", "T", "F"))
def test_reserved_words_are_not_names(word):
    # as an equation's right side, as either argument of an atom, and as a
    # bound variable; a predicate name stays a variable
    for text in ("x = %s", "D(%s,x)", "G(x,%s)", "E %s. D(x,y)"):
        with pytest.raises(ParseError, match="^reserved word %r cannot be "
                                             "a name$" % word):
            geo.parse_gformula(text % word)
    assert geo.parse_gformula("D = x") == geo.Eq(geo.Var("D"), geo.Var("x"))


def test_reserved_word_on_the_left_keeps_its_errors():
    # E and T start a quantifier and a truth constant: the texts already
    # fail there, with the messages they always had
    for text, msg in (("E = x", "expected '.', got 'x'"),
                      ("T = x", "trailing input in sequent"),
                      ("F = x", "trailing input in sequent")):
        with pytest.raises(ParseError, match="^%s$" % msg):
            geo.parse_gformula(text)


def test_parse_sequent_roundtrip():
    s = geo.parse_sequent("D(x,y) & D(x,z) |- y = z")
    assert s == geo.named_sigma("det")
    t = geo.parse_sequent("T |- E y. D(x,y)")
    assert t == geo.named_sigma("tot")
    with pytest.raises(ParseError):
        geo.parse_sequent("D(x,y)")  # no turnstile
    with pytest.raises(ValueError):
        geo.Sequent(("x",), geo.Atom("D", geo.Var("x"), geo.Var("y")), geo.TOP)


def test_eval_formula_predicates():
    G = catalog("backEdge")
    rt, lp = G.state("rt"), G.state("lp")
    assert geo.eval_formula(G, geo.Atom("D", geo.Var("u"), geo.Var("v")),
                            {"u": rt, "v": lp})
    assert not geo.eval_formula(G, geo.Atom("D", geo.Var("u"), geo.Var("v")),
                                {"u": rt, "v": rt})
    assert geo.eval_formula(G, geo.Atom("G", geo.Var("u"), geo.Var("v")),
                            {"u": lp, "v": rt})
    # rt and lp unwind to the same paths, so they are path-equivalent
    assert geo.eval_formula(G, geo.Atom("T", geo.Var("u"), geo.Var("v")),
                            {"u": rt, "v": lp})
    F = catalog("fork")
    assert not geo.eval_formula(F, geo.Atom("T", geo.Var("u"), geo.Var("v")),
                                {"u": F.state("b"), "v": F.state("c")})


def test_named_sequents_match_structure():
    expected = {
        "selfLoop": {"tot": True, "det": True, "conf": True, "loop": True},
        "twoCycle": {"tot": True, "det": True, "conf": True, "loop": False},
        "fork": {"tot": False, "det": False, "conf": False, "loop": False},
        "diamond": {"tot": True, "det": False, "conf": True, "loop": False},
    }
    for name, want in expected.items():
        G = catalog(name)
        for sig, val in want.items():
            assert geo.eval_sequent(G, geo.named_sigma(sig)) == val, (name, sig)


def test_semantic_bridge_all_catalog():
    for name, G in unlabeled_catalog_systems().items():
        rows = geo.semantic_bridge_check(G)
        assert all(r["agree"] for r in rows.values()), name


def test_generate_theory_sound_in_own_model():
    for name in ("selfLoop", "diamond", "cycleEntry"):
        G = catalog(name)
        th = geo.generate_theory(G)
        # six structural sequents, then per system one existence sequent
        # per edge, one completeness sequent per state, the negative
        # sequents, and domain closure
        negative = sum((t not in reachable_from(G, s))
                       + (not path_equivalent(G, s, t))
                       for s in range(G.n) for t in range(G.n))
        assert len(th) == 6 + len(G.transitions) + G.n + negative + 1
        for s in th:
            assert geo.eval_sequent(G, s), (name, str(s))


def test_reach_atoms_match_scanning_oracles():
    # G and T at every state pair of seeded systems, against breadth-first
    # reach and co-reach sets built from the transitions
    rng = random.Random(20261020)
    x, y = geo.Var("x"), geo.Var("y")
    for _ in range(300):
        G = _random_system(rng)
        for s, t in itertools.product(range(G.n), repeat=2):
            env = {"x": s, "y": t}
            assert geo.eval_formula(G, geo.Atom("G", x, y), env) is (
                t in _reachable_from(G, s))
            assert geo.eval_formula(G, geo.Atom("T", x, y), env) is (
                _reachable_from(G, s) == _reachable_from(G, t)
                and _coreachable_to(G, s) == _coreachable_to(G, t))


def test_theory_separates_systems():
    # a sequent from one system's theory must fail somewhere in another's
    # model whenever the canonical models differ structurally
    # (the two systems share the state name "a", so constants stay meaningful)
    A, B = catalog("selfLoop"), catalog("hubSpokes")
    thA = geo.generate_theory(A)
    assert any(not geo.eval_sequent(B, s) for s in thA)


def test_separation_certificate():
    out = geo.topos_separation_certificate(catalog("selfLoop"),
                                           catalog("twoCycle"))
    assert out is not None and out["name"] == "loop" and out["holds_in"] == "first"
    assert geo.topos_separation_certificate(catalog("selfLoop"),
                                            catalog("selfLoop")) is None
    # the named family misses what separates twoCycle from path: every
    # state lies on a 2-cycle
    two, path = catalog("twoCycle"), catalog("path")
    assert geo.topos_separation_certificate(two, path) is None
    sigma = geo.parse_sequent("T |- E y. (D(x,y) & D(y,x))")
    assert geo.eval_sequent(two, sigma) and not geo.eval_sequent(path, sigma)


def test_standard_translation():
    phi = parse_formula("<*><*>T")
    st = geo.standard_translation(phi)
    assert geo.free_vars(st) == {"x"}
    assert is_equality_free(st)
    # truth of the translation matches modal satisfaction, per state
    from spectrumlab.hml import satisfies
    for name, G in unlabeled_catalog_systems().items():
        for s in range(G.n):
            assert (geo.eval_formula(G, st, {"x": s})
                    == satisfies(G, s, phi)), (name, s)
    with pytest.raises(ValueError):
        geo.standard_translation(parse_formula("[*]F"))
    with pytest.raises(ValueError):
        geo.standard_translation(parse_formula("<a>T"))


def test_standard_translation_leaves_no_cycle():
    phi = parse_formula("(<*><*>T & <*>T) | <*>(<*>T | F)")
    assert _cyclic_garbage_after(lambda: geo.standard_translation(phi)) == 0


def test_equality_freedom():
    assert not is_equality_free(geo.named_sigma("det").consequent)
    assert is_equality_free(geo.named_sigma("conf").consequent)


def test_bounded_invariance_suites():
    for d in (0, 1, 2):
        rows = geo.vanbenthem_suite(d)
        assert rows and all(r["ok"] for r in rows)
    counts = {d: len(geo.vanbenthem_suite(d)) for d in (0, 1, 2)}
    assert counts == {0: 1, 1: 6, 2: 8}
    with pytest.raises(ValueError):
        geo.vanbenthem_suite(3)


def _suite_by_pairs(d):
    """vanbenthem_suite as it was before each atom was evaluated once per
    state: an invariant atom is evaluated at both states of every bisimilar
    pair.  Kept as the suite's oracle."""
    pairs = geo._witness_pairs()
    rows = []
    for (name, text, invariant) in geo.SUITE_ATOMS[d]:
        formula = geo.parse_gformula(text)
        if invariant:
            systems = sorted(unlabeled_catalog_systems().items())
            ok = all(geo.eval_formula(M, formula, {"x": s})
                     == geo.eval_formula(N, formula, {"x": t})
                     for (_, M), (_, N) in itertools.combinations(systems, 2)
                     for (s, t) in sorted(greatest_bisimulation(M, N)))
            rows.append({"atom": name, "invariant": True, "ok": ok,
                         "witness": None})
        else:
            wname = geo.ATOM_WITNESS[(d, name)]
            (M, sM, N, sN, rel) = pairs[wname]
            rel_idx = frozenset((M.state(a), N.state(b)) for (a, b) in rel)
            is_bisim = (bisimilar(M, N) is not None
                        and rel_idx <= greatest_bisimulation(M, N)
                        and (M.state(sM), N.state(sN)) in rel_idx)
            vm = geo.eval_formula(M, formula, {"x": M.state(sM)})
            vn = geo.eval_formula(N, formula, {"x": N.state(sN)})
            rows.append({"atom": name, "invariant": False,
                         "ok": bool(is_bisim and vm != vn),
                         "witness": (wname, vm, vn)})
    return rows


def test_suite_matches_per_pair_oracle():
    for d in (0, 1, 2):
        assert geo.vanbenthem_suite(d) == _suite_by_pairs(d)


def test_loosened_suite_fails_like_its_oracle(monkeypatch):
    # marked invariant, the separated depth-1 atoms must fail to transfer
    monkeypatch.setitem(geo.SUITE_ATOMS, 1, [
        (name, text, True) for (name, text, _) in geo.SUITE_ATOMS[1]])
    rows = geo.vanbenthem_suite(1)
    assert rows == _suite_by_pairs(1)
    assert [r["atom"] for r in rows if not r["ok"]] == [
        "diag", "has-predecessor", "exists-self-loop", "mutual-neighbor",
        "successor-with-loop"]


def test_witness_pairs_are_bisimilar():
    for (M, sM, N, sN, rel) in geo._witness_pairs().values():
        w = bisimilar(M, N)
        assert w is not None
        assert (M.state(sM), N.state(sN)) in {
            (s, t) for (s, t) in [(M.state(a), N.state(b)) for (a, b) in rel]}


def _oracle_atoms():
    """The hand-built atom table that the text rows replaced, kept as their
    oracle."""
    x, y, z = geo.Var("x"), geo.Var("y"), geo.Var("z")
    D = geo.Atom

    def ex(v, body):
        return geo.Exists(v.name, body)
    return {
        0: [
            ("diag", D("D", x, x), False),
        ],
        1: [
            ("has-successor", ex(y, D("D", x, y)), True),
            ("diag", D("D", x, x), False),
            ("has-predecessor", ex(y, D("D", y, x)), False),
            ("exists-self-loop", ex(y, D("D", y, y)), False),
            ("mutual-neighbor", ex(y, geo.And(D("D", x, y), D("D", y, x))),
             False),
            ("successor-with-loop",
             ex(y, geo.And(D("D", x, y), D("D", y, y))), False),
        ],
        2: [
            ("two-step", ex(y, geo.And(D("D", x, y), ex(z, D("D", y, z)))),
             True),
            ("a1-successor-with-loop",
             ex(y, geo.And(D("D", x, y), D("D", y, y))), False),
            ("a2-successor-on-2cycle",
             ex(y, geo.And(D("D", x, y),
                           ex(z, geo.And(D("D", y, z), D("D", z, y))))),
             False),
            ("a3-successor-to-loop",
             ex(y, geo.And(D("D", x, y),
                           ex(z, geo.And(D("D", y, z), D("D", z, z))))),
             False),
            ("a4-triangle",
             ex(y, geo.And(D("D", x, y),
                           ex(z, geo.And(D("D", y, z), D("D", x, z))))),
             False),
            ("a5-loop-and-successor",
             geo.And(D("D", x, x), ex(y, D("D", x, y))), False),
            ("a6-loop-and-two-step",
             geo.And(D("D", x, x),
                     ex(y, geo.And(D("D", x, y), ex(z, D("D", y, z))))),
             False),
            ("a7-return-cycle",
             ex(y, geo.And(D("D", x, y),
                           ex(z, geo.And(D("D", y, z), D("D", z, x))))),
             False),
        ],
    }


def test_atom_text_rows_parse_to_hand_built_table():
    oracle = _oracle_atoms()
    assert sorted(geo.SUITE_ATOMS) == sorted(oracle)
    for d, rows in geo.SUITE_ATOMS.items():
        assert len(rows) == len(oracle[d])
        for (name, text, invariant), want in zip(rows, oracle[d]):
            assert (name, geo.parse_gformula(text), invariant) == want, text
