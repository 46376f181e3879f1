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
from spectrumlab.lts import BudgetExceeded, FinLTS, catalog, catalog_systems


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
    th = lb.labeled_theory(G)
    assert len(th.atoms) == 3
    assert len(th.totality_clauses) == 2  # q0 and q1 are non-terminal
    n_cells = G.n * G.n * len(G.alphabet)
    assert len(th.atoms) + len(th.exclusion_forced) == n_cells


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
        for at, ext in lind.extensions.items():
            assert ext in set(L.elements)


def test_lindenbaum_sizes():
    assert len(lb.lindenbaum(catalog("P_abc")).lattice.elements) == 5
    assert len(lb.lindenbaum(catalog("Q")).lattice.elements) == 5
    assert len(lb.lindenbaum(catalog("hubSpokes")).lattice.elements) == 5


# The closure lindenbaum computed before it enumerated up-sets, in bitmask
# form over model indices: the oracle for the Birkhoff construction.


def _closure_of_extensions(lind):
    index = {m: i for i, m in enumerate(lind.models)}

    def mask(ms):
        return sum(1 << index[m] for m in ms)

    current = {0, mask(lind.models)}
    current |= {mask(ext) for ext in lind.extensions.values()}
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
        assert set(L.elements) == _closure_of_extensions(lind), G
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
