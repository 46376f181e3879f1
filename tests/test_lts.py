import gc
import itertools
import random
import types

import pytest

from spectrumlab import hml
from spectrumlab.lts import (FinLTS, Homomorphism, ParseError, catalog,
                             catalog_names, catalog_systems, enumerate_homs,
                             fan, fan_lts, from_json, identity_hom, iso_check,
                             is_rooted_tree, make_lts, max_branching,
                             parse_aut, path_digraph, path_equivalent,
                             quotient, reachable_from, to_aut, to_json,
                             trace_lts, tree_depth, unlabeled)


def test_validation():
    with pytest.raises(ValueError):
        FinLTS(2, ("a",), 5, frozenset())
    with pytest.raises(ValueError):
        FinLTS(2, ("a",), 0, frozenset({(0, "b", 1)}))
    with pytest.raises(ValueError):
        FinLTS(2, ("a",), 0, frozenset({(0, "a", 7)}))


def test_names_are_metadata():
    a = unlabeled(["x", "y"], "x", [("x", "y")])
    b = unlabeled(["u", "v"], "u", [("u", "v")])
    assert a == b
    assert hash(a) == hash(b)
    assert a.name_of(1) == "y" and b.name_of(1) == "v"


def test_structure_queries():
    G = catalog("hubSpokes")
    assert G.successors(G.state("a")) == [G.state("b"), G.state("c")]
    assert G.enabled(G.state("a")) == frozenset({"*"})
    assert G.nondeterministic_states() == [G.state("a")]
    assert G.has_cycle()
    assert not catalog("P_abc").has_cycle()


def test_path_equivalence_and_quotient():
    G = catalog("hubSpokes")
    b, c = G.state("b"), G.state("c")
    assert path_equivalent(G, b, c)
    # every state of the hub keeps a successor inside the class, so the whole
    # system collapses to the one-state loop
    q = quotient(G)
    assert q.n == 1
    assert iso_check(q, catalog("selfLoop")) is not None
    F = catalog("fork")
    assert not path_equivalent(F, F.state("b"), F.state("c"))


def test_reachability():
    G = catalog("fork")
    assert reachable_from(G, G.state("b")) == {G.state("b")}
    assert reachable_from(G, G.root) == {0, 1, 2}


def test_enumerate_homs_paths():
    # chain into chain: one hom per prefix relation
    assert len(enumerate_homs(trace_lts("ab"), trace_lts("abc"))) == 1
    assert enumerate_homs(trace_lts("ab"), trace_lts("ac")) == []
    # self-loops constrain the image
    loop = catalog("selfLoop")
    two = catalog("twoCycle")
    assert enumerate_homs(loop, two) == []
    assert len(enumerate_homs(two, loop)) == 1


def test_hom_validity_and_composition():
    P1 = trace_lts("a")
    F = fan_lts("a", "a")
    f = Homomorphism(P1, F, (0, 2))
    assert f.is_valid()
    assert not Homomorphism(P1, F, (0, 0)).is_valid()
    i = identity_hom(P1)
    assert f.compose(i).mapping == f.mapping


def test_iso_check():
    assert iso_check(fan(2), fan_lts("a", "a")) is None  # different labels
    G = unlabeled(["p", "q"], "p", [("p", "q"), ("q", "p")])
    assert iso_check(G, catalog("twoCycle")) is not None


def test_tree_predicates():
    assert is_rooted_tree(trace_lts("abc"))
    assert tree_depth(trace_lts("abc")) == 3
    assert max_branching(fan(3)) == 3
    assert not is_rooted_tree(catalog("selfLoop"))


def test_aut_roundtrip():
    G = catalog("Q")
    H = parse_aut(to_aut(G))
    assert H.n == G.n and H.root == G.root
    assert len(H.transitions) == len(G.transitions)
    with pytest.raises(ParseError):
        parse_aut("des (0,2,2)\n(0,\"a\",1)\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_aut("nonsense")


def test_json_roundtrip():
    G = catalog("P_abc")
    H = from_json(to_json(G))
    assert H == G
    with pytest.raises(ParseError):
        from_json("{\"states\": []}")


def test_catalog():
    assert len(catalog_names()) == 14
    assert set(catalog_systems()) == set(catalog_names())
    assert catalog("pathDigraph", "3").n == 4
    assert catalog("fanLTS", "ab", "ac").n == 5
    with pytest.raises(KeyError):
        catalog("noSuchSystem")
    with pytest.raises(ValueError):
        catalog("selfLoop", "1")


def test_malformed_family_arguments_name_the_family():
    cases = {
        ("fan", "x"): "fan takes one integer k >= 0, got 'x'",
        ("fan",): "fan takes one integer k >= 0, got no argument",
        ("fan", "1", "2"): "fan takes one integer k >= 0, got '1', '2'",
        ("pathDigraph", "2.5"):
            "pathDigraph takes one integer n >= 0, got '2.5'",
        ("traceLTS",): "traceLTS takes one word w, got no argument",
        ("fanLTS", "a"): "fanLTS takes two words w1, w2, got 'a'",
    }
    for (name, *params), message in cases.items():
        with pytest.raises(ValueError) as info:
            catalog(name, *params)
        assert str(info.value) == message
    # a well-formed negative size is the family's own range error
    with pytest.raises(ValueError, match=r"fan\(k\) needs k >= 0, not -1"):
        catalog("fan", "-1")
    assert catalog("fan", 2) == catalog("fan", "2")


def test_parametric_shapes():
    assert tree_depth(path_digraph(4)) == 4
    w = trace_lts("abba")
    assert [w.name_of(i) for i in range(w.n)] == ["0", "1", "2", "3", "4"]
    f = fan_lts("ab", "ac")
    assert f.successors(0, "a") == [1, 3]


def test_make_lts_names():
    G = make_lts(["s", "t"], ("a",), "s", [("s", "a", "t")])
    assert G.state("t") == 1
    with pytest.raises(KeyError):
        G.state("zz")
    # a repeated name would be two states to the edges and one to state()
    with pytest.raises(ValueError, match="repeated state name 'p'"):
        make_lts(["p", "q", "p"], ("c",), "p", [("p", "c", "q")])
    with pytest.raises(ParseError):
        from_json('{"states": ["p", "q", "p"], "alphabet": ["c"], '
                  '"root": "p", "transitions": [["p", "c", "q"]]}')


def test_spectrum_budget_caps_each_search(monkeypatch):
    from spectrumlab import equivalences as eq
    from spectrumlab import geometry as geo
    from spectrumlab.lts import BudgetExceeded
    hub, two = catalog("hubSpokes"), catalog("twoCycle")
    searches = (lambda: enumerate_homs(fan(2), fan(2)),
                lambda: geo.eval_sequent(catalog("diamond"),
                                         geo.named_sigma("det")),
                lambda: eq.functional_bisim_search(hub, two))
    for search in searches:
        search()  # fits the default budget
    monkeypatch.setenv("SPECTRUM_BUDGET", "7")
    for search in searches:
        with pytest.raises(BudgetExceeded, match=r"limit 7$"):
            search()


def test_enumerate_homs_leaves_no_cycle(monkeypatch):
    """With the cyclic collector off, nothing of the search outlives a call:
    neither after it returns nor after it runs out of budget."""
    from spectrumlab.lts import BudgetExceeded

    def leftovers():
        return [o for o in gc.get_objects()
                if isinstance(o, types.FunctionType)
                and o.__module__ == "spectrumlab.lts"
                and o.__qualname__.startswith("enumerate_homs.<locals>.")]

    gc.collect()
    gc.disable()
    try:
        assert enumerate_homs(fan(2), fan(2))
        assert leftovers() == []
        monkeypatch.setenv("SPECTRUM_BUDGET", "7")
        try:
            enumerate_homs(fan(2), fan(2))
        except BudgetExceeded:
            pass
        assert leftovers() == []
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The scanning versions of the structure queries, as they were before FinLTS
# kept an index (method bodies verbatim, `self` is the system): the oracles
# for the indexed ones.


def _successors(self, s, label=None):
    if label is None:
        return sorted({t for (u, a, t) in self.transitions if u == s})
    return sorted({t for (u, a, t) in self.transitions if u == s and a == label})


def _predecessors(self, s, label=None):
    if label is None:
        return sorted({u for (u, a, t) in self.transitions if t == s})
    return sorted({u for (u, a, t) in self.transitions if t == s and a == label})


def _enabled(self, s):
    return frozenset(a for (u, a, t) in self.transitions if u == s)


def _has_edge(self, s, t, label=None):
    if label is None:
        return any(u == s and v == t for (u, a, v) in self.transitions)
    return (s, label, t) in self.transitions


def _is_deterministic_state(self, s):
    seen = set()
    for (u, a, t) in self.transitions:
        if u == s:
            if (a in seen):
                return False
            seen.add(a)
    return True


def _has_cycle(self):
    color = [0] * self.n
    def visit(u):
        color[u] = 1
        for v in _successors(self, u):
            if color[v] == 1:
                return True
            if color[v] == 0 and visit(v):
                return True
        color[u] = 2
        return False
    return any(color[u] == 0 and visit(u) for u in range(self.n))


def _is_rooted_tree(G):
    """Every state reachable from the root via a unique parent, no cycles."""
    if G.n == 0:
        return False
    parents = {G.root: None}
    queue = [G.root]
    edges = 0
    while queue:
        u = queue.pop(0)
        for (s, a, t) in sorted(G.transitions):
            if s == u:
                edges += 1
                if t in parents:
                    return False
                parents[t] = u
                queue.append(t)
    return len(parents) == G.n and edges == len(G.transitions)


def _max_branching(G):
    counts = {}
    for (s, a, t) in G.transitions:
        counts[s] = counts.get(s, 0) + 1
    return max(counts.values()) if counts else 0


def _reachable_from(G, s):
    """Reflexive-transitive closure image of s under the unlabeled step."""
    seen = {s}
    frontier = [s]
    while frontier:
        u = frontier.pop()
        for v in _successors(G, u):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _coreachable_to(G, s):
    seen = {s}
    frontier = [s]
    while frontier:
        u = frontier.pop()
        for v in _predecessors(G, u):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def coreachable_to(G, s):
    """The memoised backward reach set, copied as reachable_from copies the
    forward one."""
    return set(G._reach(s, back=True))


def _random_system(rng):
    """Up to 6 states over 1-3 labels.  Dense draws give self-loops and
    nondeterminism, sparse ones unreachable states and states with no
    moves; one draw in four is a random tree, so that the tree predicate
    is exercised on both answers."""
    n = rng.randint(1, 6)
    alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
    if rng.random() < 0.25:
        order = list(range(n))
        rng.shuffle(order)
        trans = {(order[rng.randrange(i)], rng.choice(alphabet), order[i])
                 for i in range(1, n)}
        return FinLTS(n, alphabet, order[0], frozenset(trans))
    p = rng.choice((0.05, 0.15, 0.3, 0.6))
    trans = {(s, a, t) for s in range(n) for a in alphabet for t in range(n)
             if rng.random() < p}
    return FinLTS(n, alphabet, rng.randrange(n), frozenset(trans))


def test_index_matches_scanning_oracles():
    rng = random.Random(20261018)
    seen = {"tree": 0, "not tree": 0, "self-loop": 0, "no moves": 0,
            "unreachable": 0, "nondeterministic": 0, "no edges": 0}
    for _ in range(600):
        G = _random_system(rng)
        labels = G.alphabet + ("z",)  # "z" is outside every alphabet
        for a in labels:  # only a label with a move has mask columns
            want = tuple([sum(1 << t for t in scan(G, s, a))
                          for s in range(G.n)]
                         for scan in (_successors, _predecessors))
            assert G._masks.get(a, ([0] * G.n,) * 2) == want
        for s in range(G.n):
            assert G.successors(s) == _successors(G, s)
            assert G.predecessors(s) == _predecessors(G, s)
            for a in labels:
                assert G.successors(s, a) == _successors(G, s, a)
                assert G.predecessors(s, a) == _predecessors(G, s, a)
            assert G.enabled(s) == _enabled(G, s)
            assert type(G.enabled(s)) is frozenset
            assert G.enabled(s) is G.enabled(s)  # read, not built, per call
            assert G.is_deterministic_state(s) == _is_deterministic_state(G, s)
            for t in range(G.n):
                assert G.has_edge(s, t) == _has_edge(G, s, t)
                for a in labels:
                    assert G.has_edge(s, t, a) == _has_edge(G, s, t, a)
            assert reachable_from(G, s) == _reachable_from(G, s)
            assert coreachable_to(G, s) == _coreachable_to(G, s)
            assert type(reachable_from(G, s)) is set
            for t in range(G.n):
                assert path_equivalent(G, s, t) == (
                    _reachable_from(G, s) == _reachable_from(G, t)
                    and _coreachable_to(G, s) == _coreachable_to(G, t))
            seen["self-loop"] += G.has_edge(s, s)
            seen["no moves"] += not G.enabled(s)
            seen["nondeterministic"] += not G.is_deterministic_state(s)
        seen["unreachable"] += len(_reachable_from(G, G.root)) < G.n
        seen["no edges"] += not G.transitions
        assert G.has_cycle() == _has_cycle(G)
        assert max_branching(G) == _max_branching(G)
        assert is_rooted_tree(G) == _is_rooted_tree(G)
        seen["tree" if _is_rooted_tree(G) else "not tree"] += 1
    assert all(seen.values()), seen


def test_reach_memo_is_not_shared_with_callers():
    G = catalog("fork")
    reachable_from(G, G.root).add(99)
    coreachable_to(G, G.root).add(99)
    assert reachable_from(G, G.root) == {0, 1, 2}
    assert coreachable_to(G, G.root) == {0}
    G.successors(G.root).append(99)
    assert G.successors(G.root) == [1, 2]


def test_enumerate_homs_matches_brute_force():
    rng = random.Random(4)
    found = 0
    for _ in range(300):
        T, G = _random_system(rng), _random_system(rng)
        if T.n > 4 or G.n > 4 or set(T.alphabet) - set(G.alphabet):
            continue
        want = [m for m in itertools.product(range(G.n), repeat=T.n)
                if Homomorphism(T, G, m).is_valid()]
        got = enumerate_homs(T, G)
        assert [h.mapping for h in got] == want
        assert all(h.source == T and h.target == G for h in got)
        found += bool(want)
    assert found >= 20


def _tree_unravel(G, v, d):
    """The per-path scan of the tree unraveling, as it was before the
    index."""
    paths = [((None, v),)]  # a path is a tuple of (incoming label, state)
    frontier = [((None, v),)]
    for _ in range(d):
        nxt = []
        for p in frontier:
            (_, last) = p[-1]
            for (s, a, t) in sorted(G.transitions):
                if s == last:
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
    projection = Homomorphism(tree, hml._rerooted(G, v),
                              tuple(p[-1][1] for p in paths))
    return tree, projection


def test_tree_unravel_matches_per_path_scan():
    for name, G in sorted(catalog_systems().items()):
        for v in range(G.n):
            for d in range(4):
                tree, proj = hml.tree_unravel(G, v, d)
                want_tree, want_proj = _tree_unravel(G, v, d)
                assert tree == want_tree and tree.names == want_tree.names
                assert proj == want_proj


def test_trace_lts_is_shared_and_matches_a_fresh_build():
    """Chain systems are built once per (word, alphabet): each equals a
    fresh make_lts build, and a repeated call returns the same object."""
    words = ["".join(w) for k in range(4)
             for w in itertools.product("ab", repeat=k)]
    for word in words:
        for alphabet in (None, ("a", "b"), ["a", "b"], ("a", "b", "c")):
            want = make_lts(
                ["0"] + [str(i + 1) for i in range(len(word))],
                tuple(sorted(set(word))) or ("*",) if alphabet is None
                else alphabet, "0",
                [(str(i), word[i], str(i + 1)) for i in range(len(word))])
            got = trace_lts(word, alphabet)
            assert (got.n, got.alphabet, got.root, got.transitions,
                    got.names) == (want.n, want.alphabet, want.root,
                                   want.transitions, want.names)
            assert trace_lts(word, alphabet) is got
            assert trace_lts(list(word), alphabet) is got


# ---------------------------------------------------------------------------
# The closure-based hom search that the back-edge recursion replaced, kept
# as its oracle (body as it was, budget and error from the module).


def oracle_enumerate_homs(T, G):
    from spectrumlab.lts import BudgetExceeded, enumeration_budget
    budget = enumeration_budget()
    # order: BFS from the root, then any leftover states
    order, seen = [T.root], {T.root}
    for u in order:
        for v in T.successors(u):
            if v not in seen:
                seen.add(v)
                order.append(v)
    order += [s for s in range(T.n) if s not in seen]

    results = []
    assignment = {}
    counter = [0]

    def consistent(s, g):
        for a, succ in T.moves(s).items():
            for t in succ:
                img = g if t == s else assignment.get(t)
                if img is not None and (g, a, img) not in G.transitions:
                    return False
        for (u, a, t) in T.transitions:  # s is unassigned: no self-loops
            if t == s:
                img = assignment.get(u)
                if img is not None and (img, a, g) not in G.transitions:
                    return False
        return True

    def rec(k):
        if k == len(order):
            results.append(Homomorphism(T, G, tuple(assignment[s] for s in range(T.n))))
            return
        s = order[k]
        candidates = [G.root] if s == T.root else range(G.n)
        for g in candidates:
            counter[0] += 1
            if counter[0] > budget:
                raise BudgetExceeded("hom enumeration", counter[0],
                                     "candidates", budget)
            if consistent(s, g):
                assignment[s] = g
                rec(k + 1)
                del assignment[s]

    try:
        rec(0)
    finally:
        rec = None  # rec reaches itself through this cell: break the cycle
    results.sort(key=lambda h: h.mapping)
    return results


def _homs_or_error(search, T, G):
    from spectrumlab.lts import BudgetExceeded
    try:
        return [h.mapping for h in search(T, G)]
    except BudgetExceeded as e:
        return "BudgetExceeded: %s" % e


@pytest.mark.parametrize("budget", [None, "3", "7", "20"])
def test_enumerate_homs_matches_closure_search(budget, monkeypatch):
    """Same mappings in the same order, and the same budget message, on
    seeded (T, G) pairs of up to 6 states, including unreachable states of
    T, whose images are checked only through their edges."""
    if budget is None:
        monkeypatch.delenv("SPECTRUM_BUDGET", raising=False)
    else:
        monkeypatch.setenv("SPECTRUM_BUDGET", budget)
    rng = random.Random(20261019)
    seen = {"homs": 0, "none": 0, "budget": 0}
    for _ in range(400):
        T, G = _random_system(rng), _random_system(rng)
        if set(T.alphabet) - set(G.alphabet):
            G = FinLTS(G.n, T.alphabet, G.root, G.transitions)
        got = _homs_or_error(enumerate_homs, T, G)
        assert got == _homs_or_error(oracle_enumerate_homs, T, G), (T, G)
        seen["budget" if isinstance(got, str) else
             "homs" if got else "none"] += 1
    assert seen["homs"] and seen["none"], seen
    assert bool(seen["budget"]) == (budget is not None), seen


# The back-edge search before each system kept its plan: BFS order and
# table rebuilt on every call, and every state of G tried at each position
# (bodies as they were, budget and error from the module).


def oracle_unanchored_enumerate_homs(T, G):
    from spectrumlab.lts import back_edges, enumeration_budget
    order, seen = [T.root], {T.root}
    for u in order:
        for v in T.successors(u):
            if v not in seen:
                seen.add(v)
                order.append(v)
    order += [s for s in range(T.n) if s not in seen]
    found = []  # image tuples indexed by position in order
    _unanchored_extend_hom(G, back_edges(T, order), [], 0,
                           enumeration_budget(), found)
    pos = {s: k for k, s in enumerate(order)}
    return [Homomorphism(T, G, m) for m in sorted(
        tuple(images[pos[s]] for s in range(T.n)) for images in found)]


def _unanchored_extend_hom(G, back, images, tried, budget, results):
    from spectrumlab.lts import BudgetExceeded
    k = len(images)
    if k == len(back):
        results.append(tuple(images))
        return tried
    for g in range(G.n) if k else (G.root,):
        tried += 1
        if tried > budget:
            raise BudgetExceeded("hom enumeration", tried, "candidates",
                                 budget)
        images.append(g)
        for (i, a, j) in back[k]:
            if (images[i], a, images[j]) not in G.transitions:
                break
        else:
            tried = _unanchored_extend_hom(G, back, images, tried, budget,
                                           results)
        images.pop()
    return tried


def _relabeled(G, names):
    return FinLTS(G.n, tuple(names[a] for a in G.alphabet), G.root,
                  frozenset((s, names[a], t) for (s, a, t) in G.transitions))


@pytest.mark.parametrize("budget", [None, "0", "1", "3", "7", "20"])
def test_planned_hom_search_matches_unanchored_search(budget, monkeypatch):
    """Same mappings in the same order, or the same budget message, on 500
    seeded (T, G) pairs of up to 6 states: self-loops, states of T its root
    cannot reach, and, in every other pair, labels of several characters
    (one a prefix of another)."""
    if budget is None:
        monkeypatch.delenv("SPECTRUM_BUDGET", raising=False)
    else:
        monkeypatch.setenv("SPECTRUM_BUDGET", budget)
    rng = random.Random(20261020)
    long_names = {"a": "go", "b": "g", "c": "stop"}
    seen = {"homs": 0, "none": 0, "budget": 0, "self-loop": 0,
            "unreachable": 0, "long labels": 0}
    for draw in range(500):
        T, G = _random_system(rng), _random_system(rng)
        if set(T.alphabet) - set(G.alphabet):
            G = FinLTS(G.n, T.alphabet, G.root, G.transitions)
        if draw % 2:
            T, G = _relabeled(T, long_names), _relabeled(G, long_names)
            seen["long labels"] += 1
        got = _homs_or_error(enumerate_homs, T, G)
        assert got == _homs_or_error(oracle_unanchored_enumerate_homs,
                                     T, G), (T, G)
        seen["budget" if isinstance(got, str) else
             "homs" if got else "none"] += 1
        seen["self-loop"] += any(s == t for (s, _, t) in T.transitions)
        seen["unreachable"] += len(reachable_from(T, T.root)) < T.n
    assert seen["self-loop"] and seen["unreachable"] and seen["long labels"]
    assert budget == "0" or (seen["homs"] and seen["none"]), seen
    assert bool(seen["budget"]) == (budget is not None), seen


def test_hom_plan_is_kept_on_the_source_and_leaves_it_unchanged():
    """The plan is computed once, holds only tuples, survives searches into
    different targets unchanged, and does not enter == or hash."""
    T = FinLTS(4, ("go", "g"), 0, frozenset(
        {(0, "go", 1), (0, "g", 2), (1, "g", 1), (2, "go", 1)}))
    fresh = FinLTS(T.n, T.alphabet, T.root, T.transitions)
    before = hash(T)
    plan = T._hom_plan
    assert enumerate_homs(T, _relabeled(catalog("selfLoop"),
                                        {"*": "go"})) == []
    assert len(enumerate_homs(T, FinLTS(2, ("go", "g"), 0, frozenset(
        (s, a, t) for s in (0, 1) for a in ("go", "g")
        for t in (0, 1))))) == 8
    assert T._hom_plan is plan and plan == fresh._hom_plan
    back, anchors, pos = plan
    assert type(plan) is tuple and all(type(p) is tuple for p in plan)
    assert all(type(row) is tuple for row in back)
    assert all(a is None or type(a) is tuple for a in anchors)
    # state 3 is unreachable and has no edges: it keeps all of G
    assert anchors == (None, (0, "go"), (0, "g"), None) and pos == (0, 1, 2, 3)
    assert T == fresh and hash(T) == before == hash(fresh)


def _fan_lts_two_loops(w1, w2):
    """`fan_lts` as it was, one loop per branch: its oracle."""
    names = ["0"]
    edges = []
    prev = "0"
    for i, a in enumerate(w1):
        nm = str(i + 1)
        names.append(nm)
        edges.append((prev, a, nm))
        prev = nm
    prev = "0"
    for i, a in enumerate(w2):
        nm = str(len(w1) + i + 1)
        names.append(nm)
        edges.append((prev, a, nm))
        prev = nm
    return make_lts(names, tuple(sorted(set(w1 + w2))) or ("*",), "0", edges)


def test_fan_lts_matches_two_loop_build():
    words = ["".join(w) for k in range(4)
             for w in itertools.product("ab", repeat=k)]
    for w1, w2 in itertools.product(words, repeat=2):
        got, want = fan_lts(w1, w2), _fan_lts_two_loops(w1, w2)
        assert (got, got.alphabet, got.names) == \
            (want, want.alphabet, want.names), (w1, w2)
