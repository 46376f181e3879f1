"""Propositional transition theories, Lindenbaum algebras as the up-set
lattices of their models, nucleus enumeration, and the automorphism
symmetry homomorphism."""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .lts import BudgetExceeded, reachable_states
from .spectrum import SetLattice, downset_lattice

MAX_FREE_ATOMS = 24
MAX_NUCLEUS_LATTICE = 12
MAX_AUT_STATES = 10


@dataclass(frozen=True)
class PropTheory:
    atoms: tuple               # free atoms: (label, src, dst) for present edges
    exclusion_forced: tuple    # atoms fixed false (absent edges)
    totality_clauses: tuple    # per non-terminal state: tuple of its atoms


def labeled_theory(G):
    atoms = tuple(sorted((a, s, t) for (s, a, t) in G.transitions))
    present = set(atoms)
    forced = tuple(sorted((a, s, t) for s in range(G.n) for t in range(G.n)
                          for a in G.alphabet if (a, s, t) not in present))
    clauses = tuple(tuple(sorted((a, s, t) for a, succ in G.moves(s).items()
                                 for t in succ))
                    for s in range(G.n) if G.moves(s))
    return PropTheory(atoms, forced, clauses)


def enumerate_models(theory):
    """All satisfying valuations, as frozensets of true free atoms."""
    free = theory.atoms
    if len(free) > MAX_FREE_ATOMS:
        raise BudgetExceeded("model enumeration", len(free), "free atoms",
                             MAX_FREE_ATOMS)
    models = []
    for mask in range(1 << len(free)):
        val = frozenset(at for i, at in enumerate(free) if mask >> i & 1)
        if all(any(at in val for at in clause)
               for clause in theory.totality_clauses):
            models.append(val)
    return sorted(models, key=lambda m: (len(m), sorted(m)))


@dataclass
class Lindenbaum:
    theory: PropTheory
    models: list           # list of frozensets
    lattice: SetLattice
    extensions: dict       # free atom -> frozenset of models containing it


@lru_cache(maxsize=64)
def lindenbaum(G):
    """The up-sets of the models under inclusion.  By Birkhoff's theorem
    they are the sublattice of model sets generated by the atom extensions,
    the empty and the full set: ↑m is the meet of m's atoms' extensions."""
    theory = labeled_theory(G)
    models = enumerate_models(theory)
    extensions = {at: frozenset(m for m in models if at in m)
                  for at in theory.atoms}
    lattice = downset_lattice(models, lambda a, b: a >= b)
    return Lindenbaum(theory, models, lattice, extensions)


# ---------------------------------------------------------------------------
# nuclei


def enumerate_nuclei(L):
    """All inflationary idempotent meet-preserving self-maps.  Brute force
    over monotone inflationary maps (backtracking), then law filtering."""
    if len(L.elements) > MAX_NUCLEUS_LATTICE:
        raise BudgetExceeded("nucleus enumeration", len(L.elements),
                             "lattice elements", MAX_NUCLEUS_LATTICE)
    order = L.elements
    upsets = {x: [y for y in order if L.leq(x, y)] for x in order}
    maps = []
    assign = {}

    def rec(k):
        if k == len(order):
            maps.append(dict(assign))
            return
        x = order[k]
        for y in upsets[x]:
            if all(not L.leq(z, x) or L.leq(assign[z], y) for z in assign) and \
               all(not L.leq(x, z) or L.leq(y, assign[z]) for z in assign):
                assign[x] = y
                rec(k + 1)
                del assign[x]

    rec(0)

    nuclei = []
    for j in maps:
        if any(j[j[x]] != j[x] for x in order):
            continue
        if any(j[L.meet(a, b)] != L.meet(j[a], j[b])
               for a in order for b in order):
            continue
        nuclei.append(j)
    return nuclei


def is_nucleus(L, j):
    return (all(L.leq(x, j[x]) for x in L.elements)
            and all(j[j[x]] == j[x] for x in L.elements)
            and all(j[L.meet(a, b)] == L.meet(j[a], j[b])
                    for a in L.elements for b in L.elements))


# ---------------------------------------------------------------------------
# automorphisms


def automorphisms(G, labeled=True, fix_root=False):
    """All graph automorphisms (state permutations preserving the edge
    relation, label-preserving when labeled=True).  The root is not required
    to be fixed unless fix_root is set."""
    if G.n > MAX_AUT_STATES:
        raise BudgetExceeded("automorphism search", G.n, "states",
                             MAX_AUT_STATES)

    if labeled:
        edges = G.transitions
        def edge_sig(s):
            return tuple((len(G.successors(s, a)), len(G.predecessors(s, a)))
                         for a in G.alphabet)
        def respects(p):
            return all((p[s], a, p[t]) in edges for (s, a, t) in edges)
    else:
        edges = {(s, t) for (s, a, t) in G.transitions}
        def edge_sig(s):
            return (len(G.successors(s)), len(G.predecessors(s)))
        def respects(p):
            return all((p[s], p[t]) in edges for (s, t) in edges)

    sig = {s: edge_sig(s) for s in range(G.n)}
    results = []
    for perm in itertools.permutations(range(G.n)):
        if fix_root and perm[G.root] != G.root:
            continue
        if any(sig[s] != sig[perm[s]] for s in range(G.n)):
            continue
        if respects(perm):
            results.append(perm)
    return results


# ---------------------------------------------------------------------------
# the symmetry homomorphism


def induced_lattice_map(G, lind, sigma):
    """A state permutation acts on atoms, hence on models, hence on the
    up-set lattice; returns the element map as a dict."""
    def atom_image(at):
        (a, s, t) = at
        return (a, sigma[s], sigma[t])

    def model_image(m):
        return frozenset(atom_image(at) for at in m)

    out = {}
    elems = set(lind.lattice.elements)
    for x in lind.lattice.elements:
        img = frozenset(model_image(m) for m in x)
        if img not in elems:
            raise ValueError("permutation does not preserve the lattice")
        out[x] = img
    return out


def symmetry_hom(G):
    """Graph automorphisms -> lattice automorphisms of the Lindenbaum
    algebra; reports kernel and image."""
    lind = lindenbaum(G)
    autos = automorphisms(G, labeled=True)
    identity = {x: x for x in lind.lattice.elements}
    entries = []
    for sigma in autos:
        induced = induced_lattice_map(G, lind, sigma)
        entries.append((sigma, induced))
    kernel = [sigma for (sigma, ind) in entries if ind == identity]
    image = {frozenset(ind.items()) for (_, ind) in entries}
    return {
        "lindenbaum": lind,
        "automorphisms": autos,
        "entries": entries,
        "kernel": kernel,
        "kernel_size": len(kernel),
        "image_size": len(image),
    }


def is_group_hom(G):
    """Compatibility with composition and identity, on all pairs."""
    lind = lindenbaum(G)
    autos = automorphisms(G, labeled=True)
    ind = {sigma: induced_lattice_map(G, lind, sigma) for sigma in autos}
    identity = tuple(range(G.n))
    if ind[identity] != {x: x for x in lind.lattice.elements}:
        return False
    for s1 in autos:
        for s2 in autos:
            comp = tuple(s1[s2[i]] for i in range(G.n))
            composed = {x: ind[s1][ind[s2][x]] for x in lind.lattice.elements}
            if ind[comp] != composed:
                return False
    return True


def kernel_dichotomy_check(G):
    """Kernel of the symmetry homomorphism is trivial or everything, matching
    the structural nondeterminism predicate."""
    if reachable_states(G) != set(range(G.n)):
        raise ValueError("precondition: all states must be reachable from the root")
    hom = symmetry_hom(G)
    group_size = len(hom["automorphisms"])
    kernel_size = hom["kernel_size"]
    dichotomy = kernel_size in (1, group_size)
    nondet = bool(G.nondeterministic_states())
    structural = "trivial" if nondet else "maximal"
    verdict = "trivial" if kernel_size == 1 else \
              ("maximal" if kernel_size == group_size else "intermediate")
    # a trivial group makes both readings true at once
    agree = (structural == verdict
             or (kernel_size == 1 and group_size == 1))
    return {"kernel_size": kernel_size, "group_size": group_size,
            "dichotomy": dichotomy, "structural": structural,
            "verdict": verdict, "agree": agree}
