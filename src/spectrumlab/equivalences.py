"""Decision procedures for behavioral equivalences between finite systems.

State sets are int masks.  Simulation cuts one mask of N-states per M-state
to a fixpoint; bisimulation is signature partition refinement on the
disjoint union (Kanellakis & Smolka 1990); trace and failures walk the
product of the subset constructions on the fly, up to union (Bonchi & Pous
2013)."""

from dataclasses import dataclass

from .lts import (BudgetExceeded, Homomorphism, enumerate_homs,
                  enumeration_budget, iso_check, path_equivalent, quotient,
                  reachable_from)

LEVELS = ("enabledness", "trace", "failures", "simulation",
          "readySimulation", "bisimulation")


def _label_masks(G, back=False):
    """label -> per-state mask of a-successors (a-predecessors with back)."""
    masks = {}
    for (s, a, t) in G.transitions:
        if back:
            s, t = t, s
        masks.setdefault(a, [0] * G.n)[s] |= 1 << t
    return masks


def _image(col, mask):
    """Union of col[i] over the set bits i of mask."""
    out = 0
    while mask:
        out |= col[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
    return out


# ---------------------------------------------------------------------------
# simulation family: row s of a relation is the mask of the t related to s


def _simulation(M, N, rows, rounds=None):
    """Keep t in row s only if t matches each move s -a-> s2 by an a-move
    into rows[s2]: in place to the greatest fixpoint (each round but the
    last removes a pair), or for the given number of synchronous rounds."""
    pre = _label_masks(N, back=True)
    for _ in range(M.n * N.n + 1 if rounds is None else rounds):
        old = list(rows)
        cur = rows if rounds is None else old
        for s in range(M.n):
            row = cur[s]
            for a, succ in M.moves(s).items():
                pa = pre.get(a)
                for s2 in succ:
                    row &= _image(pa, cur[s2]) if pa else 0
            rows[s] = row
        if rows == old:
            break
    return rows


def simulation_preorder(M, N, seed=None):
    """Greatest simulation relation (inside seed, when given): (s,t) kept iff
    every move of s is matched from t inside the relation."""
    rows = [(1 << N.n) - 1 if seed is None else 0] * M.n
    for (s, t) in seed or ():
        rows[s] |= 1 << t
    rows = _simulation(M, N, rows)
    return frozenset((s, t) for s in range(M.n) for t in range(N.n)
                     if rows[s] >> t & 1)


def similar(M, N):
    return d_simulates(M, N, None)


def mutually_similar(M, N):
    return similar(M, N) and similar(N, M)


def d_simulates(M, N, d):
    """d-round bounded simulation of root_M by root_N: d synchronous rounds
    of the simulation step from all pairs (to the fixpoint when d is None)."""
    rows = _simulation(M, N, [(1 << N.n) - 1] * M.n, d)
    return rows[M.root] >> N.root & 1 == 1


def d_equivalent(M, N, d):
    """Roots satisfy the same diamond-only modal formulas of depth <= d,
    computed as mutual d-round bounded simulation."""
    return d_simulates(M, N, d) and d_simulates(N, M, d)


def ready_sim_equivalent(M, N):
    """Mutual greatest simulation seeded with equal enabled-label sets."""
    def ready_sim(A, B):
        same = {}
        for t in range(B.n):
            same[B.enabled(t)] = same.get(B.enabled(t), 0) | 1 << t
        rows = [same.get(A.enabled(s), 0) for s in range(A.n)]
        return _simulation(A, B, rows)[A.root] >> B.root & 1 == 1
    return ready_sim(M, N) and ready_sim(N, M)


def _bisim_blocks(M, N):
    """Block of each state of M then N in the coarsest stable partition of
    their union; each round splits blocks by the (label, block) moves."""
    out = [[(a, off + y) for a, ys in G.moves(s).items() for y in ys]
           for G, off in ((M, 0), (N, M.n)) for s in range(G.n)]
    block, count = [0] * len(out), 1
    while True:
        ids = {}
        new = [ids.setdefault((block[x], frozenset((a, block[y])
                                                   for a, y in moves)),
                              len(ids)) for x, moves in enumerate(out)]
        if len(ids) == count:
            return block
        block, count = new, len(ids)


def greatest_bisimulation(M, N):
    block = _bisim_blocks(M, N)
    return frozenset((s, t) for s in range(M.n) for t in range(N.n)
                     if block[s] == block[M.n + t])


def bisimilar(M, N):
    """Witness bisimulation containing the root pair (restricted to pairs
    reachable from it through synchronized moves), or None."""
    block = _bisim_blocks(M, N)
    seen, todo = set(), [(M.root, N.root)]
    while todo:
        (s, t) = todo.pop()
        if block[s] == block[M.n + t] and (s, t) not in seen:
            seen.add((s, t))
            todo.extend((s2, t2) for a, succ in M.moves(s).items()
                        for s2 in succ for t2 in N.moves(t).get(a, ()))
    return frozenset(seen) if seen else None


def determinize(G):
    """Subset-construction automaton: dict subset -> {label: subset}."""
    start = frozenset([G.root])
    table, queue = {}, [start]
    while queue:
        cur = queue.pop()
        if cur not in table:
            table[cur] = {a: nxt for a in G.alphabet if (nxt := frozenset(
                t for s in cur for t in G.moves(s).get(a, ())))}
            queue.extend(table[cur].values())
    return start, table


def _subset_walk(M, N, key):
    """Walk the product of the two subset constructions from the root pair;
    False at the first pair of state masks whose enabled labels or key(G,
    mask) differ.  A union of checked pairs is skipped: both observations
    are unions over states (bisimulation up to union)."""
    succ_m, succ_n = _label_masks(M), _label_masks(N)
    done, todo = [], [(1 << M.root, 1 << N.root)]
    for (u, v) in todo:  # breadth first: the loop reaches what is appended
        ju = jv = 0
        for (x, y) in done:
            if not (x & ~u or y & ~v):
                ju, jv = ju | x, jv | y
        if ju == u and jv == v:
            continue
        ru = {a: m for a, col in succ_m.items() if (m := _image(col, u))}
        rv = {a: m for a, col in succ_n.items() if (m := _image(col, v))}
        if ru.keys() != rv.keys() or key(M, u) != key(N, v):
            return False
        done.append((u, v))
        todo.extend((ru[a], rv[a]) for a in ru)
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
    """Inclusion-minimal enabled sets over the states of mask S: after a
    trace reaching S, X is refused iff X misses one of them."""
    sets = {G.enabled(s) for s in range(G.n) if S >> s & 1}
    return frozenset(e for e in sets if not any(f < e for f in sets))


def failures_equivalent(M, N):
    """Failure-pair equality: traces agree and, after each trace, so do the
    minimal enabled sets, hence the refusal sets."""
    return _subset_walk(M, N, _minimal_enabled)


# ---------------------------------------------------------------------------
# function-pair searches


@dataclass(frozen=True)
class SimPair:
    forward: Homomorphism
    backward: Homomorphism
    coherence: str  # "functional" or "biInterpretation"


def _pair_search(M, N, same, tag):
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
            if (all(same(M, g(f(s)), s) for s in range(M.n))
                    and all(same(N, f(g(t)), t) for t in range(N.n))):
                return SimPair(f, g, tag)
    return None


def functional_bisim_search(M, N):
    """Simulations f: M->N, g: N->M with both round trips path-equivalent to
    the identity, or exhaustively-verified absence."""
    return _pair_search(M, N, path_equivalent, "functional")


def bi_interpretation_search(M, N):
    """Like functional_bisim_search but with round trips only required to be
    mutually reachable with the identity."""
    def mutual(G, u, v):
        return v in reachable_from(G, u) and u in reachable_from(G, v)
    return _pair_search(M, N, mutual, "biInterpretation")


def quotient_bridge_check(M, N):
    """Given a functional bisimulation, the path-equivalence quotients must be
    isomorphic; returns the verdict."""
    if functional_bisim_search(M, N) is None:
        raise ValueError("precondition: no functional bisimulation M <-> N")
    return iso_check(quotient(M), quotient(N)) is not None


def decide(M, N, level):
    deciders = {"enabledness": enabledness_equivalent,
                "trace": trace_equivalent, "failures": failures_equivalent,
                "simulation": mutually_similar,
                "readySimulation": ready_sim_equivalent,
                "bisimulation": lambda M, N: bisimilar(M, N) is not None}
    if level not in deciders:
        raise ValueError("unknown level: %s" % level)
    return deciders[level](M, N)
