"""Propositional transition theories, Lindenbaum algebras as the up-set
lattices of their models, nucleus enumeration, label-preserving graph
automorphisms by backtracking, and the symmetry homomorphism they induce on
the lattice."""

from dataclasses import dataclass
from functools import lru_cache

from .lts import BudgetExceeded, back_edges, reachable_states
from .spectrum import SetLattice, downset_lattice

MAX_FREE_ATOMS = 24
MAX_NUCLEUS_LATTICE = 12
MAX_AUT_STATES = 10


def labeled_theory(G):
    """(atoms, clauses): the free atoms (label, src, dst), one per edge, and
    per state with a move the totality clause of its atoms.  Every absent
    edge is an atom forced false."""
    atoms = tuple(sorted((a, s, t) for (s, a, t) in G.transitions))
    clauses = tuple(tuple(sorted((a, s, t) for a, succ in G.moves(s).items()
                                 for t in succ))
                    for s in range(G.n) if G.moves(s))
    return atoms, clauses


def enumerate_models(theory):
    """All valuations of labeled_theory's (atoms, clauses) satisfying every
    clause, as frozensets of true atoms."""
    free, totality = theory
    if len(free) > MAX_FREE_ATOMS:
        raise BudgetExceeded("model enumeration", len(free), "free atoms",
                             MAX_FREE_ATOMS)
    clauses = [sum({1 << free.index(at) for at in clause if at in free})
               for clause in totality]  # an atom not in free: forced, no bit
    models = [frozenset(at for i, at in enumerate(free) if mask >> i & 1)
              for mask in range(1 << len(free))
              if all(mask & c for c in clauses)]
    return sorted(models, key=lambda m: (len(m), sorted(m)))


@dataclass
class Lindenbaum:
    models: list           # list of frozensets
    lattice: SetLattice


@lru_cache(maxsize=64)
def lindenbaum(G):
    """The up-sets of the models under inclusion.  By Birkhoff's theorem
    they are the sublattice of model sets generated by the atom extensions,
    the empty and the full set: ↑m is the meet of m's atoms' extensions."""
    models = enumerate_models(labeled_theory(G))
    return Lindenbaum(models, downset_lattice(models, lambda a, b: a >= b))


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
    _extend_monotone(L, order, upsets, {}, maps)
    nuclei = []
    for j in maps:
        if any(j[j[x]] != j[x] for x in order):
            continue
        if any(j[L.meet(a, b)] != L.meet(j[a], j[b])
               for a in order for b in order):
            continue
        nuclei.append(j)
    return nuclei


def _extend_monotone(L, order, upsets, assign, maps):
    """Give element order[len(assign)] each image above it that keeps the
    map monotone and recurse; a complete map is appended to maps."""
    if len(assign) == len(order):
        maps.append(dict(assign))
        return
    x = order[len(assign)]
    for y in upsets[x]:
        if all(not L.leq(z, x) or L.leq(assign[z], y) for z in assign) and \
           all(not L.leq(x, z) or L.leq(y, assign[z]) for z in assign):
            assign[x] = y
            _extend_monotone(L, order, upsets, assign, maps)
            del assign[x]


# ---------------------------------------------------------------------------
# automorphisms


def automorphisms(G):
    """All label-preserving graph automorphisms, as tuples p with p[s] the
    image of state s, in lexicographic order; the root may move.  States
    are assigned in order by backtracking; an image must match the state's
    per-label degree signature and keep every edge back to the states
    already assigned (McKay & Piperno, Practical graph isomorphism II)."""
    if G.n > MAX_AUT_STATES:
        raise BudgetExceeded("automorphism search", G.n, "states",
                             MAX_AUT_STATES)
    sig = [tuple((len(G.successors(s, a)), len(G.predecessors(s, a)))
                 for a in G.alphabet) for s in range(G.n)]
    results = []
    _extend_automorphism(G, sig, back_edges(G, range(G.n)), [], results)
    return results


def _extend_automorphism(G, sig, checks, perm, results):
    """Give state len(perm) each image that fits and recurse; a complete
    assignment is appended to results."""
    s = len(perm)
    if s == G.n:
        results.append(tuple(perm))
        return
    for g in range(G.n):
        if g in perm or sig[g] != sig[s]:
            continue
        perm.append(g)
        if all((perm[u], a, perm[t]) in G.transitions
               for (u, a, t) in checks[s]):
            _extend_automorphism(G, sig, checks, perm, results)
        perm.pop()


# ---------------------------------------------------------------------------
# the symmetry homomorphism


def induced_lattice_map(lind, sigma):
    """A state permutation acts on atoms, hence on models, hence on the
    up-set lattice; returns the element map as a dict."""
    image = {m: frozenset((a, sigma[s], sigma[t]) for (a, s, t) in m)
             for m in lind.models}
    out = {}
    elems = set(lind.lattice.elements)
    for x in lind.lattice.elements:
        img = frozenset(image[m] for m in x)
        if img not in elems:
            raise ValueError("permutation does not preserve the lattice")
        out[x] = img
    return out


@lru_cache(maxsize=64)
def symmetry_hom(G):
    """Graph automorphisms -> lattice automorphisms of the Lindenbaum
    algebra; reports kernel and image.  Cached, as lindenbaum is: callers
    only read the result."""
    lind = lindenbaum(G)
    autos = automorphisms(G)
    identity = {x: x for x in lind.lattice.elements}
    entries = [(sigma, induced_lattice_map(lind, sigma)) for sigma in autos]
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
    """Compatibility with composition and identity, on all pairs; the
    induced maps are symmetry_hom's."""
    hom = symmetry_hom(G)
    ind = dict(hom["entries"])
    elements = hom["lindenbaum"].lattice.elements
    return tuple(range(G.n)) in hom["kernel"] and all(
        ind[tuple(s1[i] for i in s2)]
        == {x: ind[s1][ind[s2][x]] for x in elements}
        for s1 in ind for s2 in ind)


def kernel_dichotomy_check(G):
    """Kernel of the symmetry homomorphism is trivial or everything, matching
    the structural free-choice predicate (a state with two out-edges); also
    the group's order and the image's size, so no caller searches twice."""
    if reachable_states(G) != set(range(G.n)):
        raise ValueError("precondition: all states must be reachable from the root")
    hom = symmetry_hom(G)
    group_size = len(hom["automorphisms"])
    kernel_size = hom["kernel_size"]
    dichotomy = kernel_size in (1, group_size)
    free_choice = len({s for (s, _, _) in G.transitions}) < len(G.transitions)
    structural = "trivial" if free_choice else "maximal"
    verdict = "trivial" if kernel_size == 1 else \
              ("maximal" if kernel_size == group_size else "intermediate")
    # a trivial group makes both readings true at once
    agree = (structural == verdict
             or (kernel_size == 1 and group_size == 1))
    return {"kernel_size": kernel_size, "group_size": group_size,
            "image_size": hom["image_size"], "dichotomy": dichotomy,
            "structural": structural, "verdict": verdict, "agree": agree}
