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


def symmetry_hom(G):
    """Graph automorphisms -> lattice automorphisms of the Lindenbaum
    algebra; reports kernel and image."""
    lind = lindenbaum(G)
    autos = automorphisms(G)
    identity = {x: x for x in lind.lattice.elements}
    entries = []
    for sigma in autos:
        induced = induced_lattice_map(lind, sigma)
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
    autos = automorphisms(G)
    ind = {sigma: induced_lattice_map(lind, sigma) for sigma in autos}
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
    the structural nondeterminism predicate; also the group's order and the
    image's size, so that a caller needs no second search."""
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
            "image_size": hom["image_size"], "dichotomy": dichotomy,
            "structural": structural, "verdict": verdict, "agree": agree}
