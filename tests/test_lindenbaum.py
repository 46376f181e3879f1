import os
import subprocess
import sys

import pytest

from spectrumlab import lindenbaum as lb
from spectrumlab.lts import BudgetExceeded, catalog


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


def test_lindenbaum_birkhoff_cross_check():
    from spectrumlab.spectrum import downset_lattice
    for name in ("P_abc", "Q", "R6"):
        L = lb.lindenbaum(catalog(name)).lattice
        J = L.join_irreducibles()
        D = downset_lattice(J, L.leq)
        assert len(D.elements) == len(L.elements), name


def test_nuclei():
    L = lb.lindenbaum(catalog("hubSpokes")).lattice
    nuclei = lb.enumerate_nuclei(L)
    assert all(lb.is_nucleus(L, j) for j in nuclei)
    assert {x: x for x in L.elements} in nuclei
    assert {x: L.top for x in L.elements} in nuclei
    assert len(nuclei) == 8
    big = lb.lindenbaum(catalog("R6")).lattice
    with pytest.raises(BudgetExceeded):
        lb.enumerate_nuclei(big)


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


def test_symmetry_hom_kernel_image():
    hub = lb.symmetry_hom(catalog("hubSpokes"))
    assert hub["kernel_size"] == 1 and hub["image_size"] == 2
    two = lb.symmetry_hom(catalog("twoCycle"))
    assert two["kernel_size"] == 2 and two["image_size"] == 1
    assert lb.is_group_hom(catalog("hubSpokes"))
    assert lb.is_group_hom(catalog("twoCycle"))


@pytest.mark.parametrize("hash_seed", ["20", "27", "30", "32"])
def test_symmetry_hom_image_independent_of_hash_seed(hash_seed):
    # equal lattice maps must count once whatever order their sets iterate
    # in; under these string-hash seeds twoCycle's two automorphisms once
    # gave two images
    code = ("from spectrumlab import lindenbaum as lb\n"
            "from spectrumlab.lts import catalog\n"
            "two = lb.symmetry_hom(catalog('twoCycle'))\n"
            "print(two['kernel_size'], two['image_size'])\n")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.dirname(os.path.dirname(lb.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.split() == ["2", "1"]


def test_kernel_dichotomy():
    for name in ("hubSpokes", "twoCycle", "P_abc", "Q"):
        out = lb.kernel_dichotomy_check(catalog(name))
        assert out["dichotomy"] and out["agree"], name
    # an unreachable state violates the precondition
    from spectrumlab.lts import FinLTS
    G = FinLTS(2, ("a",), 0, frozenset({(1, "a", 1)}))
    with pytest.raises(ValueError):
        lb.kernel_dichotomy_check(G)
