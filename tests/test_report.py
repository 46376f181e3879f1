import random

import pytest

from spectrumlab import hml, report
from spectrumlab.lts import FinLTS, catalog, catalog_systems, is_rooted_tree


def criterion_12_per_system():
    """criterion_12's formula loop as it was before the disjoint union: one
    memo per system across the depths and one per unraveled tree.  Returns
    the (preserved, clean trees) row values."""
    preserve = shapes = True
    families = {}  # by alphabet: depths 0 to 3, each a prefix of depth 3's
    for name in sorted(catalog_systems()):
        G, on_g = catalog(name), {}
        if G.alphabet not in families:
            deepest = hml.canonical_formulas(G.alphabet, 3, "diamondOnly")
            families[G.alphabet] = [deepest[:len(hml.canonical_formulas(
                G.alphabet, d, "diamondOnly"))] for d in range(3)] + [deepest]
        for d, family in enumerate(families[G.alphabet]):
            T, _ = hml.tree_unravel(G, G.root, d)
            if not is_rooted_tree(T):
                shapes = False
            on_t = {}
            for phi in family:
                if (hml.extension(G, phi, on_g) >> G.root & 1
                        != hml.extension(T, phi, on_t) & 1):
                    preserve = False
    return preserve, shapes


_UNRAVEL = hml.tree_unravel


def _unravel_then(target, d, change):
    """A tree_unravel whose tree of catalog system target at depth d is
    change(G, v, tree); every other call is left as it is."""
    def mutant(G, v, depth):
        tree, proj = _UNRAVEL(G, v, depth)
        if depth == d and G == catalog(target):
            tree = change(G, v, tree)
        return tree, proj
    return mutant


def _last_edge(tree):
    return max(tree.transitions, key=lambda e: e[2])


def _drop_last_edge(G, v, tree):
    return FinLTS(tree.n, tree.alphabet, tree.root,
                  tree.transitions - {_last_edge(tree)}, tree.names)


def _relabel_last_edge(G, v, tree):
    (s, a, t) = _last_edge(tree)
    other = next(b for b in tree.alphabet if b != a)
    return FinLTS(tree.n, tree.alphabet, tree.root,
                  tree.transitions - {(s, a, t)} | {(s, other, t)},
                  tree.names)


def _two_deep(G, v, tree):
    return _UNRAVEL(G, v, 2)[0]


TREE_MUTANTS = {
    "drop an edge of P_abc's depth-3 tree":
        _unravel_then("P_abc", 3, _drop_last_edge),
    "relabel an edge of P_abc's depth-3 tree":
        _unravel_then("P_abc", 3, _relabel_last_edge),
    "twoCycle's depth-2 tree for depth 3": _unravel_then("twoCycle", 3,
                                                         _two_deep),
}


def _criterion_12_values():
    title, rows = report.criterion_12()
    assert title == "Tree unraveling" and [r[0] for r in rows[2:]] == [
        "depth-d formulas preserved for every system, d <= 3",
        "every unraveling is a clean tree"]
    assert all(str(ok) == computed for (_, computed, ok) in rows[2:])
    return tuple(ok for (_, _, ok) in rows[2:])


def test_criterion_12_matches_per_system_oracle():
    assert _criterion_12_values() == criterion_12_per_system() == (True, True)


@pytest.mark.parametrize("mutant", sorted(TREE_MUTANTS))
def test_criterion_12_and_its_oracle_see_a_wrong_unraveling(monkeypatch,
                                                            mutant):
    monkeypatch.setattr(hml, "tree_unravel", TREE_MUTANTS[mutant])
    got = _criterion_12_values()
    assert got == criterion_12_per_system()
    assert got[0] is False


def _random_system(rng):
    n = rng.randint(1, 12)
    edges = frozenset((rng.randrange(n), rng.choice("ab"), rng.randrange(n))
                      for _ in range(rng.randrange(2 * n + 1)))
    return FinLTS(n, ("a", "b"), rng.randrange(n), edges)


def _unions():
    """Part lists of one alphabet each: the catalog's, with each system's
    depth-3 unraveling, and seeded random systems over {a, b}."""
    groups = {}
    for _, G in sorted(catalog_systems().items()):
        groups.setdefault(G.alphabet, []).extend(
            [G, hml.tree_unravel(G, G.root, 3)[0]])
    rng = random.Random(3203)
    return list(groups.values()) + [
        [_random_system(rng) for _ in range(rng.randint(1, 4))]
        for _ in range(8)]


def test_union_extension_is_each_part_shifted():
    """hml.extension on the union equals each part's own extension, shifted
    by the part's offset: truth is invariant under disjoint union."""
    families = {}
    for parts in _unions():
        U, offsets = report._disjoint_union(parts)
        assert U.n == sum(P.n for P in parts) and len(offsets) == len(parts)
        alphabet = parts[0].alphabet
        if alphabet not in families:
            families[alphabet] = (
                hml.canonical_formulas(alphabet, 3, "diamondOnly")
                + hml.canonical_formulas(alphabet, 2, "ready")
                + hml.canonical_formulas(alphabet, 2, "full"))
        on_u, on_parts = {}, [{} for _ in parts]
        for phi in families[alphabet]:
            whole = hml.extension(U, phi, on_u)
            for P, o, memo in zip(parts, offsets, on_parts):
                assert (whole >> o & (1 << P.n) - 1
                        == hml.extension(P, phi, memo)), (phi, P)


def test_union_rejects_unequal_alphabets():
    with pytest.raises(ValueError, match="unequal alphabets"):
        report._disjoint_union([catalog("Q"), catalog("path")])
    with pytest.raises(ValueError, match="unequal alphabets"):
        report._disjoint_union([catalog("path"), catalog("Q"), catalog("U")])
