"""Decision procedures for behavioral equivalences between finite systems.

State sets are int masks; mask columns and enabled sets are read from each
FinLTS's index.  Simulation cuts one mask of N-states per M-state to a
fixpoint, each (label, row) preimage computed once; bisimulation is
signature partition refinement on the disjoint union (Kanellakis & Smolka
1990); trace and failures walk the product of the subset constructions up
to union (Bonchi & Pous 2013), indexing checked pairs by lowest state."""

from .lts import (BudgetExceeded, _image, enumerate_homs, enumeration_budget,
                  iso_check, path_equivalent, quotient)

LEVELS = ("enabledness", "trace", "failures", "simulation",
          "readySimulation", "bisimulation")


# ---------------------------------------------------------------------------
# simulation family: row s of a relation is the mask of the t related to s


def _simulation(M, N, rows, rounds=None):
    """Keep t in row s only if t matches each move s -a-> s2 by an a-move
    into rows[s2]: in place to the greatest fixpoint (each round but the
    last removes a pair), or for the given number of synchronous rounds."""
    cols, memo = N._masks, {a: {} for a in M.alphabet}
    for _ in range(M.n * N.n + 1 if rounds is None else rounds):
        old = list(rows)
        cur = rows if rounds is None else old
        for s in range(M.n):
            row = cur[s]
            for a, succ in M.moves(s).items():
                ma, ca = memo[a], cols.get(a)  # ma: row -> its a-preimage
                for s2 in succ:
                    if cur[s2] not in ma:
                        ma[cur[s2]] = _image(ca[1], cur[s2]) if ca else 0
                    row &= ma[cur[s2]]
            rows[s] = row
        if rows == old:
            break
    return rows


def simulation_preorder(M, N, seed=None):
    """Greatest simulation relation, inside seed when one is given."""
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
    if d is not None and d < 0:
        raise ValueError("depth bound must be at least 0, not %d" % d)
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
    their union; each round splits blocks by the (label, block) moves, as
    bits block * k + i of one int, i < k numbering M's then N's labels."""
    labels = M.alphabet + N.alphabet
    k, num = len(labels), {a: i for i, a in enumerate(labels)}
    out = [[(num[a], off + y) for a, ys in G.moves(s).items() for y in ys]
           for G, off in ((M, 0), (N, M.n)) for s in range(G.n)]
    block, count = [0] * len(out), 1
    while True:
        ids, new = {}, []
        for x, moves in enumerate(out):
            sig = 0
            for i, y in moves:
                sig |= 1 << (block[y] * k + i)
            new.append(ids.setdefault((block[x], sig), len(ids)))
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
    """Walk the product of the subset constructions from the root pair: False
    at the first mask pair whose enabled labels or key(G, mask) differ.  A
    union of checked pairs is skipped: observations are unions over states."""
    done, todo = {}, [(1 << M.root, 1 << N.root)]
    for (u, v) in todo:  # breadth first: the loop reaches what is appended
        ju, jv, bits = 0, 0, u
        while bits:  # a checked (x, y) is listed under x's lowest state
            for (x, y) in done.get(bits & -bits, ()):
                if not (x & ~u or y & ~v):
                    ju, jv = ju | x, jv | y
            bits &= bits - 1
        if ju == u and jv == v:
            continue
        ru = {a: m for a, c in M._masks.items() if (m := _image(c[0], u))}
        rv = {a: m for a, c in N._masks.items() if (m := _image(c[0], v))}
        if ru.keys() != rv.keys() or key(M, u) != key(N, v):
            return False
        done.setdefault(u & -u, []).append((u, v))
        todo.extend((ru[a], rv[a]) for a in ru)
    return True


def trace_equivalent(M, N):
    """Trace language equality: enabled labels agree on the subset walk."""
    return _subset_walk(M, N, lambda G, S: None)


def bounded_traces(G, bound):
    """All trace words of length <= bound (exact BFS over subsets), joined at
    the end, as label sequences can coincide once joined (a.bc, ab.c)."""
    start, table = determinize(G)
    words, frontier = {()}, {((), start)}
    for _ in range(bound):  # each word reaches one subset: no word repeats
        frontier = {(w + (a,), sub) for (w, cur) in frontier
                    for a, sub in table[cur].items()}
        words |= {w for (w, _) in frontier}
    return {"".join(w) for w in words}


def enabledness_equivalent(M, N):
    return M.enabled(M.root) == N.enabled(N.root)


def _minimal_enabled(G, S):
    """Inclusion-minimal enabled sets over the states of mask S: after a
    trace reaching S, X is refused iff X misses one of them."""
    sets = set()
    while S:
        sets.add(G.enabled((S & -S).bit_length() - 1))
        S &= S - 1
    return frozenset(e for e in sets if not any(f < e for f in sets))


def failures_equivalent(M, N):
    """Failure-pair equality: traces agree and, after each trace, so do the
    minimal enabled sets, hence the refusal sets."""
    return _subset_walk(M, N, _minimal_enabled)


# ---------------------------------------------------------------------------
# function-pair searches


def functional_bisim_search(M, N):
    """The first hom pair (f: M->N, g: N->M) with both round trips
    path-equivalent to the identity, or None: exhaustively-verified
    absence."""
    budget = enumeration_budget()
    maps = max(N.n ** M.n, M.n ** N.n)
    if maps > budget:
        raise BudgetExceeded("function-pair search", maps, "candidate maps",
                             budget)
    fwd, bwd = enumerate_homs(M, N), enumerate_homs(N, M)
    if len(fwd) * len(bwd) > budget:
        raise BudgetExceeded("function-pair search", len(fwd) * len(bwd),
                             "hom pairs", budget)
    for f in fwd:
        for g in bwd:
            if (all(path_equivalent(M, g(f(s)), s) for s in range(M.n))
                    and all(path_equivalent(N, f(g(t)), t)
                            for t in range(N.n))):
                return f, g
    return None


def bi_interpretation_search(M, N):
    """Hom pairs with round trips mutually reachable with the identity:
    functional_bisim_search, since two states reach each other exactly when
    they reach the same states, which is path equivalence."""
    return functional_bisim_search(M, N)


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
