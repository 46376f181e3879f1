import gc
import itertools
import random

import pytest

from spectrumlab import hml
from spectrumlab.equivalences import bisimilar, d_equivalent
from spectrumlab.lts import ParseError, catalog, catalog_systems, trace_lts


def test_parse_print_roundtrip():
    texts = ["T", "F", "<a>T", "<a>(<b>T & <c>T)", "<a><b>T | <a><c>T",
             "[a]F", "!<a>T", "(<a>T & !<b>T)"]
    for text in texts:
        phi = hml.parse_formula(text)
        assert hml.parse_formula(str(phi)) == phi
    with pytest.raises(ParseError):
        hml.parse_formula("<a>")
    with pytest.raises(ParseError):
        hml.parse_formula("T T")


def _cyclic_garbage_after(call):
    """What the cyclic collector finds after call(), run with the collector
    off; a warm-up call first keeps one-time caches out of the count."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_parse_formula_leaves_no_cycle():
    texts = ("<a>(<b>T & !<c>T) | [a]F", "!(T & F)", "<a><b><c>T")
    assert _cyclic_garbage_after(
        lambda: [hml.parse_formula(text) for text in texts]) == 0


def test_parse_error_leaves_no_cycle():
    def parse_bad():
        for text in ("<a>(<b>T", "(T", "T T", "&", "<a>", "(T <a>T"):
            try:
                hml.parse_formula(text)
            except ParseError:
                pass
            else:
                raise AssertionError(text)
    assert _cyclic_garbage_after(parse_bad) == 0


def test_depth_and_labels():
    phi = hml.parse_formula("<a>(<b>T & <c>T)")
    assert hml.depth(phi) == 2
    assert hml.labels_of(phi) == {"a", "b", "c"}


def test_fragments():
    cases = [
        ("<a><b>T", "positiveExistential"),
        ("<a>T | <b>T", "traceObs"),
        ("<a>(<b>T & F)", "diamondOnly"),
        ("<a>!<b>T", "ready"),
        ("[a]F", "full"),
        ("!<a>!<b>T", "full"),
    ]
    for text, frag in cases:
        assert hml.fragment_of(hml.parse_formula(text)) == frag
    # inclusion order on the fragments
    phi = hml.parse_formula("<a><b>T")
    for frag in hml.FRAGMENTS:
        assert hml.in_fragment(phi, frag)


def test_satisfaction():
    Q = catalog("Q")
    phi = hml.parse_formula("<a>(<b>T & <c>T)")
    assert hml.satisfies(Q, Q.root, phi)
    P = catalog("P_abc")
    assert not hml.satisfies(P, P.root, phi)
    with pytest.raises(ValueError):
        hml.satisfies(P, P.root, hml.parse_formula("<z>T"))


def test_distinguishing_formula():
    P, Q = catalog("P_abc"), catalog("Q")
    phi = hml.distinguishing_formula(Q, P)
    assert phi is not None
    assert hml.satisfies(Q, Q.root, phi) and not hml.satisfies(P, P.root, phi)
    assert hml.in_fragment(phi, "diamondOnly")
    # trace-equivalent systems admit no trace-observation separator
    assert hml.distinguishing_formula(P, Q, fragment="traceObs") is None


def test_canonical_family_is_normalized():
    fams = hml.canonical_formulas(("a", "b"), 2, "diamondOnly", max_conj=None)
    assert hml.TOP in fams and hml.parse_formula("<a>T") in fams
    assert all(hml.in_fragment(phi, "diamondOnly") for phi in fams)
    assert all(hml.depth(phi) <= 2 for phi in fams)
    ready = hml.canonical_formulas(("a",), 2, "ready")
    assert any(hml._is_inability(phi) for phi in ready)


def test_oracle_agrees_with_fixpoint_decision():
    systems = [catalog(n) for n in ("P_abc", "Q", "R6", "U")]
    for M, N in itertools.combinations(systems, 2):
        for d in (0, 1, 2):
            assert hml.d_equivalence_oracle(M, N, d) == d_equivalent(M, N, d)


def test_tree_unravel():
    D = catalog("diamond")
    tree, proj = hml.tree_unravel(D, D.root, 2)
    assert hml.tree_shape_checks(tree)
    assert proj.is_valid()
    names = {tree.name_of(i) for i in range(tree.n)}
    assert names == {"ε", "b", "c", "bd", "cd"}
    # unraveling is d-equivalent to the original up to the cut depth
    for d in (0, 1, 2):
        assert d_equivalent(tree, D, d)
    assert not d_equivalent(tree, D, 3)


def test_characteristic_formula_contract():
    Q = catalog("Q")
    tree, _ = hml.tree_unravel(Q, Q.root, 2)
    chi = hml.characteristic_formula(tree, tree.root, 2)
    # satisfaction of the characteristic formula tracks 2-equivalence on the
    # labeled catalog roots
    for name in ("P_abc", "Q", "R6", "U"):
        G = catalog(name)
        assert hml.satisfies(G, G.root, chi) == d_equivalent(G, Q, 2)
    with pytest.raises(ValueError):
        hml.characteristic_formula(catalog("selfLoop"), 0, 1)


def test_truth_set():
    P = catalog("P_abc")
    fams = hml.canonical_formulas(P.alphabet, 1, "diamondOnly")
    ts = hml.truth_set(P, P.root, fams)
    assert 0 in ts  # T is formula 0 and always holds


def test_bounded_invariance_suites():
    for d in (0, 1, 2):
        rows = hml.vanbenthem_suite(d)
        assert rows and all(r["ok"] for r in rows)
    counts = {d: len(hml.vanbenthem_suite(d)) for d in (0, 1, 2)}
    assert counts == {0: 1, 1: 6, 2: 8}
    with pytest.raises(ValueError):
        hml.vanbenthem_suite(3)


def test_witness_pairs_are_bisimilar():
    for (M, sM, N, sN, rel) in hml._witness_pairs().values():
        w = bisimilar(M, N)
        assert w is not None
        assert (M.state(sM), N.state(sN)) in {
            (s, t) for (s, t) in [(M.state(a), N.state(b)) for (a, b) in rel]}


def _holds_by_isinstance(G, s, phi):
    """The isinstance chain that `holds` replaced, kept as its oracle."""
    if isinstance(phi, hml.Top):
        return True
    if isinstance(phi, hml.Bot):
        return False
    if isinstance(phi, hml.And):
        return (_holds_by_isinstance(G, s, phi.left)
                and _holds_by_isinstance(G, s, phi.right))
    if isinstance(phi, hml.Or):
        return (_holds_by_isinstance(G, s, phi.left)
                or _holds_by_isinstance(G, s, phi.right))
    if isinstance(phi, hml.Diamond):
        return any(_holds_by_isinstance(G, t, phi.body)
                   for t in G.moves(s).get(phi.label, ()))
    if isinstance(phi, hml.Box):
        return all(_holds_by_isinstance(G, t, phi.body)
                   for t in G.moves(s).get(phi.label, ()))
    if isinstance(phi, hml.Neg):
        return not _holds_by_isinstance(G, s, phi.body)
    raise TypeError(phi)


def test_holds_dispatch_matches_isinstance_chain():
    rng = random.Random(5)

    def formula(d, labels):
        k = rng.randrange(7) if d else rng.randrange(2)
        if k < 2:
            return (hml.TOP, hml.BOT)[k]
        if k < 4:
            return (hml.And, hml.Or)[k - 2](formula(d - 1, labels),
                                            formula(d - 1, labels))
        if k == 6:
            return hml.Neg(formula(d - 1, labels))
        return (hml.Diamond, hml.Box)[k - 4](rng.choice(labels),
                                             formula(d - 1, labels))

    seen = set()
    for G in catalog_systems().values():
        labels = list(G.alphabet) + ["zz"]  # one label with no moves
        for _ in range(40):
            phi = formula(4, labels)
            for s in range(G.n):
                got = hml.holds(G, s, phi)
                assert got == _holds_by_isinstance(G, s, phi), (G, s, phi)
                seen.add(got)
    assert seen == {True, False}
    # short-circuiting: the right operand is read only when it decides
    junk = object()
    G = catalog("Q")
    assert hml.holds(G, 0, hml.And(hml.BOT, junk)) is False
    assert hml.holds(G, 0, hml.Or(hml.TOP, junk)) is True
    assert hml.holds(G, 0, hml.Diamond("zz", junk)) is False
    assert hml.holds(G, 0, hml.Box("zz", junk)) is True
    for phi in (junk, hml.And(hml.TOP, junk), hml.Or(hml.BOT, junk),
                hml.Neg(junk), "T"):
        with pytest.raises(TypeError):
            hml.holds(G, 0, phi)


def _labels_by_recursion(phi):
    """The per-call recursion that the stored label sets replaced, kept as
    their oracle."""
    if isinstance(phi, (hml.Top, hml.Bot)):
        return set()
    if isinstance(phi, (hml.And, hml.Or)):
        return _labels_by_recursion(phi.left) | _labels_by_recursion(phi.right)
    if isinstance(phi, (hml.Diamond, hml.Box)):
        return {phi.label} | _labels_by_recursion(phi.body)
    if isinstance(phi, hml.Neg):
        return _labels_by_recursion(phi.body)
    raise TypeError(phi)


def test_stored_labels_match_recursion():
    rng = random.Random(17)
    labels = ["a", "b", "c", "ab"]
    kinds = set()

    def formula(d, pool):
        k = rng.randrange(8) if d else rng.randrange(3)
        if k == 2 and pool:  # a subterm shared with an earlier formula
            return rng.choice(pool)
        if k < 3:
            phi = (hml.TOP, hml.BOT, hml.Top())[k]
        elif k < 5:
            phi = (hml.And, hml.Or)[k - 3](formula(d - 1, pool),
                                           formula(d - 1, pool))
        elif k == 7:
            phi = hml.Neg(formula(d - 1, pool))
        else:
            phi = (hml.Diamond, hml.Box)[k - 5](rng.choice(labels),
                                                formula(d - 1, pool))
        kinds.add(type(phi))
        pool.append(phi)
        return phi

    pool = []
    for _ in range(300):
        phi = formula(rng.randrange(6), pool)
        got = hml.labels_of(phi)
        assert isinstance(got, frozenset)
        assert got == _labels_by_recursion(phi), phi
        assert hml.labels_of(phi) is got
    assert kinds == {hml.Top, hml.Bot, hml.And, hml.Or, hml.Diamond,
                     hml.Box, hml.Neg}
    # the stored set is not a field: equality, hashing and printing ignore it
    fresh = hml.parse_formula(str(phi))
    assert fresh == phi and hash(fresh) == hash(phi)
    assert repr(fresh) == repr(phi)
    for bad in (object(), "T", hml.And(hml.TOP, object())):
        with pytest.raises(TypeError):
            hml.labels_of(bad)


def test_label_check_runs_on_every_call():
    """Only the label set is stored, never a verdict: a formula that passed
    the check on a system with all its labels still fails on one without."""
    phi = hml.parse_formula("<a>(<b>T & !<c>T)")
    assert hml.satisfies(trace_lts("abc"), 0, phi)
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown label"):
            hml.satisfies(trace_lts("ab"), 0, phi)
    assert hml.satisfies(trace_lts("abc"), 0, phi)
    with pytest.raises(ValueError, match="unknown label"):
        hml.satisfies(trace_lts("ac"), 0, phi.body)
