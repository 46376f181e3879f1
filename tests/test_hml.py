import itertools
import random
from functools import reduce

import pytest
from conftest import _cyclic_garbage_after, holds_by_isinstance

from spectrumlab import hml
from spectrumlab.equivalences import d_equivalent
from spectrumlab.lts import (FinLTS, ParseError, catalog, catalog_systems,
                             is_rooted_tree, trace_lts)


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


def _distinguishing_by_points(M, N, fragment, depth_bound):
    """distinguishing_formula's loop as it was before it read extension bits,
    kept as its oracle: pointwise satisfaction at both roots."""
    alphabet = sorted(set(M.alphabet) | set(N.alphabet))
    shared = set(M.alphabet) & set(N.alphabet)
    for phi in hml.canonical_formulas(alphabet, depth_bound, fragment):
        if (hml.labels_of(phi) <= shared
                and holds_by_isinstance(M, M.root, phi)
                and not holds_by_isinstance(N, N.root, phi)):
            return phi
    return None


def test_distinguishing_formula_stops_at_its_separator(monkeypatch):
    """The search draws the family up to its answer and no further: on U
    against Q in the full fragment at depth 3, a family of about 245,000
    formulas, it stops at the 20th, before any depth-3 body is built."""
    first = hml.canonical_formulas(("a", "b", "c"), 2, "full")[:20]
    drawn, enumerate_family = [], hml._canonical_family

    def family(*args):
        for phi in enumerate_family(*args):
            drawn.append(phi)
            yield phi

    monkeypatch.setattr(hml, "_canonical_family", family)
    U, Q = catalog("U"), catalog("Q")
    got = hml.distinguishing_formula(U, Q, "full", 3)
    assert str(got) == "<a>!<b>T" and drawn[-1] == got
    assert drawn == first


def test_distinguishing_formula_matches_pointwise_loop(monkeypatch):
    """The same separator, or None, as the pointwise loop on every ordered
    pair of distinct catalog systems over one alphabet and on 200 seeded
    pairs of at most 4 states over {a, b}, in every fragment at depths 0 to
    3.  Each family is enumerated once, by the engine's generator, and the
    list is handed to both loops: in place of the generator the engine
    reads and of canonical_formulas, which the oracle reads."""
    families, enumerate_family = {}, hml._canonical_family

    def family(alphabet, depth_bound, fragment, max_conj=2):
        key = (tuple(alphabet), depth_bound, fragment, max_conj)
        if key not in families:
            families[key] = list(enumerate_family(alphabet, depth_bound,
                                                  fragment, max_conj))
        return families[key]

    monkeypatch.setattr(hml, "_canonical_family", family)
    monkeypatch.setattr(hml, "canonical_formulas", family)
    systems = list(catalog_systems().values())
    pairs = [(M, N) for M in systems for N in systems
             if M is not N and set(M.alphabet) == set(N.alphabet)]
    rng = random.Random(24)

    def small():
        n = rng.randint(1, 4)
        return FinLTS(n, ("a", "b"), rng.randrange(n), frozenset(
            (s, a, t) for s in range(n) for a in "ab" for t in range(n)
            if rng.random() < 0.3))

    pairs += [(small(), small()) for _ in range(200)]
    outcomes = set()
    for M, N in pairs:
        for fragment in hml.FRAGMENTS:
            for d in range(4):
                got = hml.distinguishing_formula(M, N, fragment, d)
                assert got == _distinguishing_by_points(M, N, fragment, d), \
                    (M, N, fragment, d)
                outcomes.add((d, got is None))
    assert outcomes == set(itertools.product(range(4), (True, False)))
    with pytest.raises(ValueError, match=r"unknown label\(s\): c$"):
        hml.satisfies(M, M.root, hml.parse_formula("<a>(<c>T & <b>T)"))


def test_canonical_family_is_normalized():
    fams = hml.canonical_formulas(("a", "b"), 2, "diamondOnly", max_conj=None)
    assert hml.TOP in fams and hml.parse_formula("<a>T") in fams
    assert all(hml.in_fragment(phi, "diamondOnly") for phi in fams)
    assert all(hml.depth(phi) <= 2 for phi in fams)
    ready = hml.canonical_formulas(("a",), 2, "ready")
    assert any(hml._is_inability(phi) for phi in ready)


def test_shallower_families_are_prefixes_of_deeper_ones():
    """Criterion 12 reads each depth-d family as the first entries of the
    depth-3 one.  Families too large to build quickly are checked up to
    depth 2: full over three labels or with unbounded conjunctions, and
    unbounded conjunctions over two or more labels."""
    for fragment in hml.FRAGMENTS:
        for alphabet in (("a",), ("a", "b"), ("a", "b", "c")):
            for max_conj in (2, None):
                full = fragment == "full"
                large = (len(alphabet) == 3 and full if max_conj == 2
                         else len(alphabet) > 1 or full)
                deepest = 2 if large else 3
                family = hml.canonical_formulas(alphabet, deepest, fragment,
                                                max_conj)
                for d in range(deepest):
                    prefix = hml.canonical_formulas(alphabet, d, fragment,
                                                    max_conj)
                    assert family[:len(prefix)] == prefix, \
                        (fragment, alphabet, max_conj, d)


def test_oracle_agrees_with_fixpoint_decision():
    systems = [catalog(n) for n in ("P_abc", "Q", "R6", "U")]
    for M, N in itertools.combinations(systems, 2):
        for d in (0, 1, 2):
            assert hml.d_equivalence_oracle(M, N, d) == d_equivalent(M, N, d)


def test_negative_family_bounds_are_rejected():
    """A negative depth or conjunction bound is an error, not the family
    [T, F] (which made d_equivalence_oracle answer True at depth -1)."""
    Q, U = catalog("Q"), catalog("U")
    depth = "depth bound must be at least 0, not -1"
    for call in (lambda: hml.canonical_formulas(("a",), -1),
                 lambda: hml.canonical_formulas(("a",), -1, "full", None),
                 lambda: hml.d_equivalence_oracle(Q, U, -1),
                 lambda: hml.distinguishing_formula(Q, U, "full", -1)):
        with pytest.raises(ValueError, match=depth):
            call()
    with pytest.raises(ValueError,
                       match="conjunction bound must be at least 0, not -1"):
        hml.canonical_formulas(("a",), 1, max_conj=-1)
    assert hml.canonical_formulas(("a",), 0) == [hml.TOP, hml.BOT]
    assert hml.canonical_formulas(("a",), 1, max_conj=0) == [
        hml.TOP, hml.BOT, hml.Diamond("a", hml.TOP)]


def test_tree_unravel_rejects_a_state_out_of_range():
    Q = catalog("Q")
    for v in (Q.n, Q.n + 5, -1):
        message = "no state %d in a system of 4 states" % v
        for d in range(4):
            with pytest.raises(ValueError, match=message):
                hml.tree_unravel(Q, v, d)
    with pytest.raises(ValueError, match="depth bound must be at least 0"):
        hml.tree_unravel(Q, Q.root, -1)


def test_tree_unravel():
    D = catalog("diamond")
    tree, proj = hml.tree_unravel(D, D.root, 2)
    assert is_rooted_tree(tree)
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


def test_characteristic_formula_leaves_no_cycle():
    tree, _ = hml.tree_unravel(catalog("Q"), 0, 3)
    assert _cyclic_garbage_after(
        lambda: hml.characteristic_formula(tree, tree.root, 3)) == 0


def test_truth_set():
    P = catalog("P_abc")
    fams = hml.canonical_formulas(P.alphabet, 1, "diamondOnly")
    ts = hml.truth_set(P, P.root, fams)
    assert 0 in ts  # T is formula 0 and always holds


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
            mask = hml.extension(G, phi, {})
            for s in range(G.n):
                got = bool(mask >> s & 1)
                assert got == holds_by_isinstance(G, s, phi), (G, s, phi)
                seen.add(got)
    assert seen == {True, False}
    junk = object()
    for phi in (junk, hml.And(hml.TOP, junk), hml.Or(hml.BOT, junk),
                hml.Neg(junk), "T"):
        with pytest.raises(TypeError):
            hml.extension(catalog("Q"), phi, {})


def test_extension_matches_pointwise_holds():
    """Bit s of extension is pointwise satisfaction at s, on seeded systems
    with self-loops and multi-character labels; one memo shared across a
    complete family gives the masks that a fresh memo per formula gives."""
    rng = random.Random(20)
    labels = ("a", "b", "go", "g")
    kinds = set()

    def formula(d):
        k = rng.randrange(7) if d else rng.randrange(2)
        if k < 2:
            phi = (hml.TOP, hml.BOT)[k]
        elif k < 4:
            phi = (hml.And, hml.Or)[k - 2](formula(d - 1), formula(d - 1))
        elif k == 6:
            phi = hml.Neg(formula(d - 1))
        else:  # "zz" is outside every alphabet: no moves
            phi = (hml.Diamond, hml.Box)[k - 4](
                rng.choice(labels + ("zz",)), formula(d - 1))
        kinds.add(type(phi))
        return phi

    families = {}  # the complete full family over each pair of labels
    for i in range(300):
        n = rng.randint(1, 6)
        edges = frozenset((rng.randrange(n), rng.choice(labels),
                           rng.randrange(n)) for _ in range(rng.randint(0, 12)))
        if i % 3 == 0:  # a self-loop at every state
            edges |= {(s, rng.choice(labels), s) for s in range(n)}
        G = FinLTS(n, labels, rng.randrange(n), edges)
        for _ in range(20):
            phi = formula(rng.randrange(5))
            mask = hml.extension(G, phi, {})
            assert mask >> G.n == 0
            for s in range(G.n):
                assert (mask >> s & 1) == holds_by_isinstance(G, s, phi), \
                    (G, s, phi)
        pair = tuple(sorted(rng.sample(labels, 2)))
        if pair not in families:
            families[pair] = hml.canonical_formulas(pair, 2, "full",
                                                    max_conj=None)
        shared = {}
        for phi in families[pair]:
            assert (hml.extension(G, phi, shared)
                    == hml.extension(G, phi, {})), (G, phi)
    assert kinds == {hml.Top, hml.Bot, hml.And, hml.Or, hml.Diamond,
                     hml.Box, hml.Neg}
    with pytest.raises(TypeError):
        hml.extension(catalog("Q"), hml.And(hml.TOP, object()), {})


def test_truth_set_checks_labels_in_order():
    """truth_set rejects the first formula, in list order, that names a
    label outside the alphabet, as satisfies on each formula would."""
    Q = catalog("Q")
    fams = hml.canonical_formulas(("a", "b", "c"), 2, "full", max_conj=None)
    assert hml.truth_set(Q, 1, fams) == frozenset(
        i for i, phi in enumerate(fams) if hml.satisfies(Q, 1, phi))
    bad = [hml.TOP, hml.Diamond("y", hml.TOP), hml.Box("x", hml.TOP)]
    with pytest.raises(ValueError, match=r"unknown label\(s\): y$"):
        hml.truth_set(Q, 0, bad)


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


# The per-fragment branch chain, the order tuple and the string tests that
# the FRAGMENTS table replaced, kept as their oracles.
OLD_FRAGMENTS = ("traceObs", "diamondOnly", "positiveExistential", "ready",
                 "full")


def oracle_in_fragment(phi, fragment):
    if fragment == "full":
        return True
    if isinstance(phi, hml.Top):
        return True
    if isinstance(phi, hml.Bot):
        return fragment != "positiveExistential"
    if isinstance(phi, hml.Diamond):
        return oracle_in_fragment(phi.body, fragment)
    if isinstance(phi, hml.Or):
        if fragment == "positiveExistential":
            return False
        return (oracle_in_fragment(phi.left, fragment)
                and oracle_in_fragment(phi.right, fragment))
    if isinstance(phi, hml.And):
        if fragment == "traceObs":
            return False
        return (oracle_in_fragment(phi.left, fragment)
                and oracle_in_fragment(phi.right, fragment))
    if isinstance(phi, hml.Neg):
        return fragment == "ready" and hml._is_inability(phi)
    if isinstance(phi, hml.Box):
        return False
    raise TypeError(phi)


def oracle_fragment_of(phi):
    for frag in ("positiveExistential", "traceObs", "diamondOnly", "ready",
                 "full"):
        if oracle_in_fragment(phi, frag):
            return frag
    return "full"


def oracle_canonical_formulas(alphabet, max_depth, fragment="diamondOnly",
                              max_conj=2):
    alphabet = tuple(sorted(alphabet))
    terms_by_depth = {0: []}
    if fragment in ("ready", "full"):
        inabilities = [hml.Neg(hml.Diamond(a, hml.TOP)) for a in alphabet]
    else:
        inabilities = []

    def conj_of(parts):
        return reduce(hml.And, parts) if parts else hml.TOP

    for d in range(1, max_depth + 1):
        pool = [t for k in range(0, d) for t in terms_by_depth[k]]
        if d == 1:
            bodies = [hml.TOP]
        else:
            if fragment == "traceObs":
                bodies = [hml.TOP] + pool
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
                new_terms.append(hml.Diamond(a, b))
            if fragment == "full":
                for b in bodies:
                    new_terms.append(hml.Box(a, b))
        terms_by_depth[d] = new_terms

    formulas = [hml.TOP]
    if fragment not in ("positiveExistential",):
        formulas.append(hml.BOT)
    if fragment in ("ready", "full"):
        formulas.extend(inabilities)
    for d in range(1, max_depth + 1):
        formulas.extend(terms_by_depth[d])
    return formulas


# node builders by kind; each random formula draws from one kind set
_BUILDERS = {
    "T": lambda rng, sub: hml.TOP,
    "F": lambda rng, sub: hml.BOT,
    "&": lambda rng, sub: hml.And(sub(), sub()),
    "|": lambda rng, sub: hml.Or(sub(), sub()),
    "<a>": lambda rng, sub: hml.Diamond(rng.choice("ab"), sub()),
    "[a]": lambda rng, sub: hml.Box(rng.choice("ab"), sub()),
    "!": lambda rng, sub: hml.Neg(sub()),
    "!<a>T": lambda rng, sub: hml.Neg(hml.Diamond(rng.choice("ab"), hml.TOP)),
}
_KIND_SETS = (("T", "<a>", "&"), ("T", "F", "<a>", "|"),
              ("T", "F", "<a>", "&", "|"),
              ("T", "F", "<a>", "&", "|", "!<a>T"), tuple(_BUILDERS))


def _random_formula(rng, kinds, d):
    leaves = [k for k in kinds if k in ("T", "F", "!<a>T")]
    kind = rng.choice(kinds if d else leaves)
    return _BUILDERS[kind](rng, lambda: _random_formula(rng, kinds, d - 1))


def test_fragment_table_matches_branch_chain():
    assert set(hml.FRAGMENTS) == set(OLD_FRAGMENTS)
    rng = random.Random(15)
    seen_kinds = set()
    smallest = set()
    for _ in range(3000):
        kinds = list(rng.choice(_KIND_SETS))
        if rng.random() < 0.3:  # one kind outside the set
            kinds.append(rng.choice(list(_BUILDERS)))
        phi = _random_formula(rng, kinds, rng.randrange(5))
        seen_kinds.update(kinds)
        for frag in OLD_FRAGMENTS:
            assert hml.in_fragment(phi, frag) == oracle_in_fragment(phi, frag), \
                (phi, frag)
        assert hml.fragment_of(phi) == oracle_fragment_of(phi), phi
        smallest.add(hml.fragment_of(phi))
    assert seen_kinds == set(_BUILDERS)
    assert smallest == set(OLD_FRAGMENTS)
    for bad in ("bogus", "Full", ""):
        with pytest.raises(ValueError, match="unknown fragment"):
            hml.in_fragment(hml.TOP, bad)
        with pytest.raises(ValueError, match="unknown fragment"):
            hml.canonical_formulas(("a",), 1, bad)
    with pytest.raises(TypeError):
        hml.in_fragment(hml.And(hml.TOP, object()), "diamondOnly")


def test_canonical_formulas_match_string_tests():
    """Every fragment, alphabet, depth 0-3 and conjunction bound, except the
    complete depth-3 families whose depth-3 body pool, the depth-2 family
    without T and F, exceeds 12 formulas: full over one label (19), ready
    and full over two (36 and 262), i.e. 2^19 to 2^262 conjunction sets."""
    too_big = []
    for frag in OLD_FRAGMENTS:
        for alphabet in (("*",), ("a", "b")):
            for max_conj in (2, None):
                for depth in range(4):
                    if max_conj is None and depth == 3:
                        pool = [p for p in oracle_canonical_formulas(
                                    alphabet, 2, frag, None)
                                if p not in (hml.TOP, hml.BOT)]
                        if len(pool) > 12:
                            too_big.append((frag, len(alphabet), len(pool)))
                            continue
                    case = (alphabet, depth, frag, max_conj)
                    assert (hml.canonical_formulas(*case)
                            == oracle_canonical_formulas(*case)), case
    assert sorted(too_big) == [("full", 1, 19), ("full", 2, 262),
                               ("ready", 2, 36)]
