"""Decision procedures for behavioral equivalences between finite systems."""

from dataclasses import dataclass

from .lts import (BudgetExceeded, Homomorphism, enumerate_homs,
                  enumeration_budget, iso_check, path_equivalent, quotient,
                  reachable_from)

LEVELS = ("enabledness", "trace", "failures", "simulation",
          "readySimulation", "bisimulation")


# ---------------------------------------------------------------------------
# relational fixpoints: one refinement loop for the simulation family


def _all_pairs(M, N):
    return {(s, t) for s in range(M.n) for t in range(N.n)}


def _refine(M, N, rel, back=False):
    """Greatest relation inside rel where every move of s is matched from t
    inside the relation (and, with back, every move of t from s)."""
    rel = set(rel)

    def forth(s, t):
        nt = N.moves(t)
        return all(any((s2, t2) in rel for t2 in nt.get(a, ()))
                   for a, succ in M.moves(s).items() for s2 in succ)

    def backward(s, t):
        ms = M.moves(s)
        return all(any((s2, t2) in rel for s2 in ms.get(a, ()))
                   for a, succ in N.moves(t).items() for t2 in succ)

    changed = True
    while changed:
        changed = False
        for (s, t) in list(rel):
            if not forth(s, t) or (back and not backward(s, t)):
                rel.discard((s, t))
                changed = True
    return frozenset(rel)


def simulation_preorder(M, N, seed=None):
    """Greatest simulation relation (inside seed, when given): (s,t) kept iff
    every move of s is matched from t inside the relation."""
    return _refine(M, N, _all_pairs(M, N) if seed is None else seed)


def similar(M, N):
    return (M.root, N.root) in simulation_preorder(M, N)


def mutually_similar(M, N):
    return similar(M, N) and similar(N, M)


def greatest_bisimulation(M, N):
    return _refine(M, N, _all_pairs(M, N), back=True)


def bisimilar(M, N):
    """Witness bisimulation containing the root pair (restricted to pairs
    reachable from it through synchronized moves), or None."""
    gb = greatest_bisimulation(M, N)
    if (M.root, N.root) not in gb:
        return None
    seen = {(M.root, N.root)}
    frontier = [(M.root, N.root)]
    while frontier:
        (s, t) = frontier.pop()
        nt = N.moves(t)
        for a, succ in M.moves(s).items():
            for s2 in succ:
                for t2 in nt.get(a, ()):
                    if (s2, t2) in gb and (s2, t2) not in seen:
                        seen.add((s2, t2))
                        frontier.append((s2, t2))
    return frozenset(seen)


def ready_sim_equivalent(M, N):
    """Mutual greatest simulation seeded with equal enabled-label sets."""
    def ready_sim(A, B):
        seed = {(s, t) for s in range(A.n) for t in range(B.n)
                if A.enabled(s) == B.enabled(t)}
        return (A.root, B.root) in _refine(A, B, seed)
    return ready_sim(M, N) and ready_sim(N, M)


# ---------------------------------------------------------------------------
# trace-style equivalences via subset construction


def determinize(G):
    """Subset-construction automaton: dict subset -> {label: subset}."""
    start = frozenset([G.root])
    table = {}
    queue = [start]
    while queue:
        cur = queue.pop()
        if cur in table:
            continue
        row = {}
        for a in G.alphabet:
            nxt = frozenset(t for s in cur for t in G.moves(s).get(a, ()))
            if nxt:
                row[a] = nxt
                queue.append(nxt)
        table[cur] = row
    return start, table


def _subset_walk(M, N, key):
    """Walk the product of the two subset constructions from the root pair;
    False at the first subset pair whose enabled labels or key(G, subset)
    differ."""
    sM, dM = determinize(M)
    sN, dN = determinize(N)
    seen = {(sM, sN)}
    queue = [(sM, sN)]
    while queue:
        (u, v) = queue.pop()
        ru, rv = dM[u], dN[v]
        if ru.keys() != rv.keys() or key(M, u) != key(N, v):
            return False
        for a in ru:
            nxt = (ru[a], rv[a])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def trace_equivalent(M, N):
    """Exact prefix-closed trace language equality: enabled label sets agree
    on every reachable pair of the determinized systems."""
    return _subset_walk(M, N, lambda G, S: None)


def bounded_traces(G, bound):
    """All trace words of length <= bound (exact BFS over subsets)."""
    start, table = determinize(G)
    words = {""}
    frontier = {("", start)}
    for _ in range(bound):
        nxt = set()
        for (w, cur) in frontier:
            for a, sub in table[cur].items():
                nw = w + a
                if nw not in words:
                    words.add(nw)
                    nxt.add((nw, sub))
        frontier = nxt
    return words


def enabledness_equivalent(M, N):
    return M.enabled(M.root) == N.enabled(N.root)


def _minimal_enabled(G, S):
    """Inclusion-minimal enabled sets over the states of S: after a trace
    reaching S, X is refused iff X misses one of them."""
    sets = {G.enabled(s) for s in S}
    return frozenset(e for e in sets if not any(f < e for f in sets))


def failures_equivalent(M, N):
    """Failure-pair equality: traces agree and, after each trace, so do the
    minimal enabled sets, hence the refusal sets."""
    return _subset_walk(M, N, _minimal_enabled)


# ---------------------------------------------------------------------------
# bounded (depth-d) equivalence


def d_simulates(M, N, d):
    """d-round bounded simulation from (root_M) by (root_N)."""
    memo = {}
    def sim(s, t, k):
        if k == 0:
            return True
        key = (s, t, k)
        if key not in memo:
            memo[key] = True  # guard; no cycles since k strictly decreases
            nt = N.moves(t)
            memo[key] = all(any(sim(s2, t2, k - 1) for t2 in nt.get(a, ()))
                            for a, succ in M.moves(s).items() for s2 in succ)
        return memo[key]
    return sim(M.root, N.root, d)


def d_equivalent(M, N, d):
    """Roots satisfy the same diamond-only modal formulas of depth <= d,
    computed as mutual d-round bounded simulation."""
    return d_simulates(M, N, d) and d_simulates(N, M, d)


# ---------------------------------------------------------------------------
# function-pair searches


@dataclass(frozen=True)
class SimPair:
    forward: Homomorphism
    backward: Homomorphism
    coherence: str  # "functional" or "biInterpretation"


def _pair_search(M, N, coherent, tag):
    budget = enumeration_budget()
    maps = max(N.n ** M.n, M.n ** N.n)
    if maps > budget:
        raise BudgetExceeded("function-pair search", maps, "candidate maps",
                             budget)
    fwd = enumerate_homs(M, N)
    bwd = enumerate_homs(N, M)
    if len(fwd) * len(bwd) > budget:
        raise BudgetExceeded("function-pair search", len(fwd) * len(bwd),
                             "hom pairs", budget)
    for f in fwd:
        for g in bwd:
            if coherent(M, N, f, g):
                return SimPair(f, g, tag)
    return None


def functional_bisim_search(M, N):
    """Simulations f: M->N, g: N->M with both round trips path-equivalent to
    the identity, or exhaustively-verified absence."""
    def coherent(M, N, f, g):
        return (all(path_equivalent(M, g(f(s)), s) for s in range(M.n))
                and all(path_equivalent(N, f(g(t)), t) for t in range(N.n)))
    return _pair_search(M, N, coherent, "functional")


def bi_interpretation_search(M, N):
    """Like functional_bisim_search but with round trips only required to be
    mutually reachable with the identity."""
    def mutual(G, u, v):
        return v in reachable_from(G, u) and u in reachable_from(G, v)
    def coherent(M, N, f, g):
        return (all(mutual(M, g(f(s)), s) for s in range(M.n))
                and all(mutual(N, f(g(t)), t) for t in range(N.n)))
    return _pair_search(M, N, coherent, "biInterpretation")


def quotient_bridge_check(M, N):
    """Given a functional bisimulation, the path-equivalence quotients must be
    isomorphic; returns the verdict."""
    if functional_bisim_search(M, N) is None:
        raise ValueError("precondition: no functional bisimulation M <-> N")
    return iso_check(quotient(M), quotient(N)) is not None


# ---------------------------------------------------------------------------
# dispatch


def decide(M, N, level):
    if level == "enabledness":
        return enabledness_equivalent(M, N)
    if level == "trace":
        return trace_equivalent(M, N)
    if level == "failures":
        return failures_equivalent(M, N)
    if level == "simulation":
        return mutually_similar(M, N)
    if level == "readySimulation":
        return ready_sim_equivalent(M, N)
    if level == "bisimulation":
        return bisimilar(M, N) is not None
    raise ValueError("unknown level: %s" % level)
