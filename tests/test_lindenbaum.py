import itertools
import os
import random
import subprocess
import sys

import networkx as nx
import pytest
from conftest import _cyclic_garbage_after
from networkx.algorithms import isomorphism

from spectrumlab import lindenbaum as lb
from spectrumlab.lts import (BudgetExceeded, FinLTS, catalog, catalog_systems,
                             reachable_states)


def model_count_oracle(G):
    # independent count: each state with outgoing edges chooses a nonempty
    # subset of them; absent edges are forced off
    out = 1
    for s in range(G.n):
        k = len([1 for (u, a, t) in G.transitions if u == s])
        if k:
            out *= (1 << k) - 1
    return out


def test_theory_shape():
    G = catalog("Q")
    atoms, clauses = lb.labeled_theory(G)
    assert len(atoms) == 3
    assert len(clauses) == 2  # q0 and q1 are non-terminal
    # the free atoms are the present edges; every other cell is forced false
    assert set(atoms) == {(a, s, t) for (s, a, t) in G.transitions}


def test_model_counts_match_oracle():
    for name in ("P_abc", "Q", "R6", "hubSpokes", "twoCycle"):
        G = catalog(name)
        models = lb.enumerate_models(lb.labeled_theory(G))
        assert len(models) == model_count_oracle(G), name
        assert len(set(models)) == len(models)


def test_lindenbaum_lattice_laws():
    for name in ("P_abc", "Q", "hubSpokes"):
        lind = lb.lindenbaum(catalog(name))
        L = lind.lattice
        assert L.is_distributive()
        assert L.bottom == frozenset()
        assert L.top == frozenset(lind.models)
        for ext in _atom_extensions(lind, catalog(name)).values():
            assert ext in set(L.elements)


def test_lindenbaum_sizes():
    assert len(lb.lindenbaum(catalog("P_abc")).lattice.elements) == 5
    assert len(lb.lindenbaum(catalog("Q")).lattice.elements) == 5
    assert len(lb.lindenbaum(catalog("hubSpokes")).lattice.elements) == 5


# The closure lindenbaum computed before it enumerated up-sets, in bitmask
# form over model indices: the oracle for the Birkhoff construction.


def _atom_extensions(lind, G):
    """Each free atom of G's theory -> the models containing it."""
    atoms, _ = lb.labeled_theory(G)
    return {at: frozenset(m for m in lind.models if at in m) for at in atoms}


def _closure_of_extensions(lind, G):
    index = {m: i for i, m in enumerate(lind.models)}

    def mask(ms):
        return sum(1 << index[m] for m in ms)

    current = {0, mask(lind.models)}
    current |= {mask(ext) for ext in _atom_extensions(lind, G).values()}
    while True:
        new = {v for a, b in itertools.combinations(current, 2)
               for v in (a & b, a | b)} - current
        if not new:
            break
        current |= new
    return {frozenset(m for i, m in enumerate(lind.models) if c >> i & 1)
            for c in current}


def _random_systems(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        edges = frozenset((rng.randrange(n), rng.choice("ab"), rng.randrange(n))
                          for _ in range(rng.randint(0, 4)))
        yield FinLTS(n, ("a", "b"), 0, edges)


def test_up_sets_match_closure_of_extensions():
    systems = [G for _, G in sorted(catalog_systems().items())]
    assert len(systems) == 14
    sizes = set()
    for G in systems + list(_random_systems(61, 150)):
        lind = lb.lindenbaum(G)
        L = lind.lattice
        assert len(set(L.elements)) == len(L.elements), G
        assert set(L.elements) == _closure_of_extensions(lind, G), G
        assert [len(x) for x in L.elements] == sorted(map(len, L.elements))
        sizes.add(len(L.elements))
    assert {2, 5, 19, 48, 1608} <= sizes


def test_lindenbaum_birkhoff_cross_check():
    from spectrumlab.spectrum import downset_lattice
    for name in ("P_abc", "Q", "R6"):
        L = lb.lindenbaum(catalog(name)).lattice
        J = L.join_irreducibles()
        D = downset_lattice(J, L.leq)
        assert len(D.elements) == len(L.elements), name


def _is_nucleus(L, j):
    return (all(L.leq(x, j[x]) for x in L.elements)
            and all(j[j[x]] == j[x] for x in L.elements)
            and all(j[L.meet(a, b)] == L.meet(j[a], j[b])
                    for a in L.elements for b in L.elements))


def test_nuclei():
    L = lb.lindenbaum(catalog("hubSpokes")).lattice
    nuclei = lb.enumerate_nuclei(L)
    assert all(_is_nucleus(L, j) for j in nuclei)
    assert {x: x for x in L.elements} in nuclei
    assert {x: L.top for x in L.elements} in nuclei
    assert len(nuclei) == 8
    big = lb.lindenbaum(catalog("R6")).lattice
    with pytest.raises(BudgetExceeded):
        lb.enumerate_nuclei(big)


def test_enumerate_nuclei_leaves_no_cycle():
    L = lb.lindenbaum(catalog("hubSpokes")).lattice
    assert _cyclic_garbage_after(lambda: lb.enumerate_nuclei(L)) == 0


def test_automorphisms_leave_no_cycle():
    G = catalog("hubSpokes")
    assert _cyclic_garbage_after(lambda: lb.automorphisms(G)) == 0


def test_automorphisms():
    assert len(lb.automorphisms(catalog("P_abc"))) == 1
    assert len(lb.automorphisms(catalog("Q"))) == 1
    assert len(lb.automorphisms(catalog("R6"))) == 1
    assert len(lb.automorphisms(catalog("twoCycle"))) == 2
    hub = lb.automorphisms(catalog("hubSpokes"))
    assert len(hub) == 2  # identity and the spoke swap
    # group closure: composites stay in the set
    perms = set(hub)
    for p in hub:
        for q in hub:
            assert tuple(p[q[i]] for i in range(3)) in perms


# The n! loop automorphisms ran before it backtracked, in its labeled mode:
# the first oracle for the search.


def _automorphisms_by_permutation(G):
    edges = G.transitions
    def edge_sig(s):
        return tuple((len(G.successors(s, a)), len(G.predecessors(s, a)))
                     for a in G.alphabet)
    def respects(p):
        return all((p[s], a, p[t]) in edges for (s, a, t) in edges)

    sig = {s: edge_sig(s) for s in range(G.n)}
    results = []
    for perm in itertools.permutations(range(G.n)):
        if any(sig[s] != sig[perm[s]] for s in range(G.n)):
            continue
        if respects(perm):
            results.append(perm)
    return results


def _automorphisms_by_vf2(G):
    """networkx VF2 on the digraph whose edges carry their label sets."""
    labels = {}
    for (s, a, t) in G.transitions:
        labels.setdefault((s, t), set()).add(a)
    D = nx.DiGraph()
    D.add_nodes_from(range(G.n))
    D.add_edges_from((s, t, {"labels": frozenset(ls)})
                     for (s, t), ls in labels.items())
    matcher = isomorphism.DiGraphMatcher(
        D, D, edge_match=lambda e, f: e["labels"] == f["labels"])
    return sorted(tuple(m[s] for s in range(G.n))
                  for m in matcher.isomorphisms_iter())


def _seeded_systems(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        alphabet = ("a", "b")[:rng.randint(1, 2)]
        p = rng.choice((0.05, 0.15, 0.3))
        yield FinLTS(n, alphabet, rng.randrange(n), frozenset(
            (s, a, t) for s in range(n) for a in alphabet for t in range(n)
            if rng.random() < p))


def test_automorphisms_match_permutation_oracle():
    systems = [G for _, G in sorted(catalog_systems().items())]
    sizes = set()
    for G in systems + list(_seeded_systems(83, 300)):
        got = lb.automorphisms(G)
        assert got == _automorphisms_by_permutation(G), G
        assert got == _automorphisms_by_vf2(G), G
        sizes.add(len(got))
    assert max(sizes) > 2, sizes


def test_symmetry_hom_kernel_image():
    hub = lb.symmetry_hom(catalog("hubSpokes"))
    assert hub["kernel_size"] == 1 and hub["image_size"] == 2
    two = lb.symmetry_hom(catalog("twoCycle"))
    assert two["kernel_size"] == 2 and two["image_size"] == 1
    assert lb.is_group_hom(catalog("hubSpokes"))
    assert lb.is_group_hom(catalog("twoCycle"))


def test_symmetry_hom_searches_once_per_system(monkeypatch):
    # is_group_hom and kernel_dichotomy_check share one symmetry_hom
    calls = []
    search = lb.automorphisms
    monkeypatch.setattr(lb, "automorphisms",
                        lambda G: calls.append(G) or search(G))
    lb.symmetry_hom.cache_clear()
    G = catalog("hubSpokes")
    assert lb.is_group_hom(G)
    assert lb.kernel_dichotomy_check(G)["group_size"] == 2
    assert lb.is_group_hom(G)
    assert calls == [G]
    lb.symmetry_hom.cache_clear()


# R6's lattice elements in their stored order, each set spelled out sorted so
# that the text does not depend on how the sets iterate
R6_ELEMENTS = ("[sorted(sorted(m) for m in x) "
               "for x in lb.lindenbaum(catalog('R6')).lattice.elements]")


@pytest.mark.parametrize("hash_seed", ["20", "27", "30", "32"])
def test_symmetry_hom_image_independent_of_hash_seed(hash_seed):
    # equal lattice maps must count once whatever order their sets iterate
    # in; under these string-hash seeds twoCycle's two automorphisms once
    # gave two images, and R6's elements were listed in another order
    code = ("from spectrumlab import lindenbaum as lb\n"
            "from spectrumlab.lts import catalog\n"
            "two = lb.symmetry_hom(catalog('twoCycle'))\n"
            "print(two['kernel_size'], two['image_size'])\n"
            "print(%s)\n" % R6_ELEMENTS)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.dirname(os.path.dirname(lb.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    counts, r6 = out.splitlines()
    assert counts.split() == ["2", "1"]
    assert r6 == str(eval(R6_ELEMENTS))


def test_kernel_dichotomy():
    for name in ("hubSpokes", "twoCycle", "P_abc", "Q"):
        out = lb.kernel_dichotomy_check(catalog(name))
        assert out["dichotomy"] and out["agree"], name
    # an unreachable state violates the precondition
    from spectrumlab.lts import FinLTS
    G = FinLTS(2, ("a",), 0, frozenset({(1, "a", 1)}))
    with pytest.raises(ValueError):
        lb.kernel_dichotomy_check(G)


def test_kernel_dichotomy_reads_free_choice_of_any_labels():
    # deterministic systems (input set 254 of lattices seed 1, input set 2
    # of seed 910) whose two-label branching lets the automorphism that
    # swaps two states move models: the kernel is trivial in a group of 2
    systems = [
        [(0, "a", 1), (0, "b", 6), (1, "a", 0), (1, "b", 3), (2, "b", 4),
         (3, "a", 5), (4, "b", 2), (5, "b", 2), (6, "a", 5)],
        [(0, "b", 1), (0, "c", 4), (1, "b", 0), (1, "c", 4), (2, "a", 3),
         (3, "b", 2), (4, "c", 6), (5, "a", 2), (6, "b", 5)]]
    for edges in systems:
        G = FinLTS(7, ("a", "b", "c"), 0, frozenset(edges))
        assert all(len(succ) == 1
                   for s in range(G.n) for succ in G.moves(s).values())
        out = lb.kernel_dichotomy_check(G)
        assert (out["kernel_size"], out["group_size"]) == (1, 2)
        assert out["structural"] == out["verdict"] == "trivial"
        assert out["agree"]


def _branching_systems(rng, count):
    """Systems of 2 to 5 states over {a, b, c}, every state reachable: two
    states have two out-edges each (labels and targets random), the others
    zero or one."""
    systems = []
    while len(systems) < count:
        n = rng.randint(2, 5)
        branching = rng.sample(range(n), 2)
        edges = {(s, rng.choice("abc"), rng.randrange(n)) for s in range(n)
                 for _ in range(2 if s in branching else rng.randint(0, 1))}
        G = FinLTS(n, ("a", "b", "c"), 0, frozenset(edges))
        if reachable_states(G) == set(range(n)):
            systems.append(G)
    return systems


def test_kernel_dichotomy_agrees_on_seeded_branching_systems():
    for G in _branching_systems(random.Random(23), 300):
        assert lb.kernel_dichotomy_check(G)["agree"], G


def _models_by_valuation_sets(theory):
    """enumerate_models as it was before it tested clauses as masks: each
    valuation built as a frozenset, clauses tested by membership."""
    free, clauses = theory
    models = []
    for mask in range(1 << len(free)):
        val = frozenset(at for i, at in enumerate(free) if mask >> i & 1)
        if all(any(at in val for at in clause) for clause in clauses):
            models.append(val)
    return sorted(models, key=lambda m: (len(m), sorted(m)))


def test_clause_masks_match_valuation_sets():
    rng = random.Random(62)
    dense = [FinLTS(5, ("a", "b"), 0, frozenset(
        (rng.randrange(5), rng.choice("ab"), rng.randrange(5))
        for _ in range(rng.randint(5, 10)))) for _ in range(30)]
    counts = set()
    for G in [G for _, G in sorted(catalog_systems().items())] + list(
            _random_systems(62, 150)) + dense:
        theory = lb.labeled_theory(G)
        models = lb.enumerate_models(theory)
        assert models == _models_by_valuation_sets(theory), G
        counts.add(len(models))
    assert {1, 3, 7, 9, 21} <= counts and max(counts) > 100
    # a clause naming a forced atom (r, not free) is satisfied only by its
    # free atoms
    p, q, r = ("a", 0, 1), ("b", 0, 0), ("a", 1, 0)
    for clauses, count in ((((p, r),), 2), (((r,), (p, q)), 0)):
        theory = ((p, q), clauses)
        assert lb.enumerate_models(theory) == \
            _models_by_valuation_sets(theory)
        assert len(lb.enumerate_models(theory)) == count
