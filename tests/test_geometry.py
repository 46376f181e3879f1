import pytest
from conftest import _cyclic_garbage_after

from spectrumlab import geometry as geo
from spectrumlab.equivalences import bisimilar
from spectrumlab.hml import parse_formula
from spectrumlab.lts import ParseError, catalog, unlabeled_catalog_systems


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
        assert len(th) == len(th.all_sequents())
        for s in th.all_sequents():
            assert geo.eval_sequent(G, s), (name, str(s))


def test_theory_separates_systems():
    # a sequent from one system's theory must fail somewhere in another's
    # model whenever the canonical models differ structurally
    # (the two systems share the state name "a", so constants stay meaningful)
    A, B = catalog("selfLoop"), catalog("hubSpokes")
    thA = geo.generate_theory(A)
    assert any(not geo.eval_sequent(B, s) for s in thA.all_sequents())


def test_separation_certificate():
    out = geo.topos_separation_certificate(catalog("selfLoop"),
                                           catalog("twoCycle"))
    assert out is not None and out["name"] == "loop" and out["holds_in"] == "first"
    assert geo.topos_separation_certificate(catalog("selfLoop"),
                                            catalog("selfLoop")) is None
    extra = [geo.parse_sequent("T |- E y. (D(x,y) & D(y,x))")]
    out2 = geo.topos_separation_certificate(
        catalog("twoCycle"), catalog("path"), extra=extra)
    assert out2 is not None


def test_standard_translation():
    phi = parse_formula("<*><*>T")
    st = geo.standard_translation(phi)
    assert geo.free_vars(st) == {"x"}
    assert geo.is_equality_free(st)
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
    assert not geo.is_equality_free(geo.named_sigma("det").consequent)
    assert geo.is_equality_free(geo.named_sigma("conf").consequent)


def test_bounded_invariance_suites():
    for d in (0, 1, 2):
        rows = geo.vanbenthem_suite(d)
        assert rows and all(r["ok"] for r in rows)
    counts = {d: len(geo.vanbenthem_suite(d)) for d in (0, 1, 2)}
    assert counts == {0: 1, 1: 6, 2: 8}
    with pytest.raises(ValueError):
        geo.vanbenthem_suite(3)


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
