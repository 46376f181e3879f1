"""Seeded input generators for the benchmark workloads.

A system is a plain spec ``(n, alphabet, root, transitions)`` with
``transitions`` a frozenset of ``(src, label, dst)`` triples.  The workloads
turn specs into ``FinLTS`` objects, so the program under test receives only
the generated systems and never the generator.  Formulas are produced as
text in the syntax ``hml.parse_formula`` reads.  Every function draws only
from the ``random.Random`` it is given, so one seed gives one input set.
"""

ALPHABET = ("a", "b")
OUT_DEGREE = 2
PROFILE_ALPHABET = ("a", "b", "c")
EDGE_PROBABILITY = 0.3


def random_system(rng, n):
    """Each state gets ``OUT_DEGREE`` distinct edges with random labels and
    random targets; the root is state 0."""
    trans = set()
    for s in range(n):
        edges = set()
        while len(edges) < OUT_DEGREE:
            edges.add((s, rng.choice(ALPHABET), rng.randrange(n)))
        trans |= edges
    return (n, ALPHABET, 0, frozenset(trans))


def subset_count(spec, limit):
    """Number of nonempty state sets the subset construction reaches from
    the root, or a number above ``limit`` once it passes it (the count is
    heavy-tailed, and a full count would hold thousands of sets)."""
    n, alphabet, root, trans = spec
    succ = {}
    for (s, a, t) in trans:
        succ.setdefault((s, a), set()).add(t)
    start = frozenset([root])
    seen, stack = {start}, [start]
    while stack:
        cur = stack.pop()
        for a in alphabet:
            nxt = frozenset(t for s in cur for t in succ.get((s, a), ()))
            if nxt and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
        if len(seen) > limit:
            break
    return len(seen)


def banded_system(rng, n, lo, hi):
    """A ``random_system`` whose subset construction reaches between ``lo``
    and ``hi`` sets (the count is heavy-tailed over random systems)."""
    while True:
        spec = random_system(rng, n)
        if lo <= subset_count(spec, hi) <= hi:
            return spec


def permuted(rng, spec):
    """An isomorphic copy: states renumbered by a random permutation."""
    n, alphabet, root, trans = spec
    p = list(range(n))
    rng.shuffle(p)
    return (n, alphabet, p[root],
            frozenset((p[s], a, p[t]) for (s, a, t) in trans))


def mutant(rng, spec):
    """Move one edge to a (label, target) its source does not have yet, so
    every out-degree is kept."""
    n, alphabet, root, trans = spec
    old = sorted(trans)[rng.randrange(len(trans))]
    s = old[0]
    fresh = [(s, a, t) for a in alphabet for t in range(n)
             if (s, a, t) not in trans]
    new = fresh[rng.randrange(len(fresh))]
    return (n, alphabet, root, (trans - {old}) | {new})


def reachable(spec):
    n, _, root, trans = spec
    seen, stack = {root}, [root]
    while stack:
        u = stack.pop()
        for (s, _, t) in trans:
            if s == u and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def profiled_system(rng, profile, n):
    """A system whose states 0, 1, ... have the out-degrees in ``profile``
    and whose other states have out-degree 0 or 1, with every state
    reachable from the root 0.  States of out-degree 1 add no free choice to
    the propositional theory, so the Lindenbaum lattice size depends on the
    profile alone while labels, targets and state count stay random."""
    while True:
        degrees = list(profile) + [int(rng.random() < 0.8)
                                   for _ in range(n - len(profile))]
        trans = set()
        for s, k in enumerate(degrees):
            edges = set()
            while len(edges) < k:
                edges.add((s, rng.choice(PROFILE_ALPHABET),
                           rng.randrange(n)))
            trans |= edges
        spec = (n, PROFILE_ALPHABET, 0, frozenset(trans))
        if len(reachable(spec)) == n:
            return spec


def edge_probability_system(rng, n):
    """Each possible edge present with probability ``EDGE_PROBABILITY``
    (the shape of the report's seeded oracle cases, with the state count
    fixed)."""
    trans = frozenset((s, a, t) for s in range(n) for a in ALPHABET
                      for t in range(n) if rng.random() < EDGE_PROBABILITY)
    return (n, ALPHABET, 0, trans)


def formula_with_diamonds(rng, diamonds):
    """A positive existential formula with exactly ``diamonds`` diamonds,
    nested or conjoined at random."""
    if diamonds == 0:
        return "T"
    if diamonds >= 2 and rng.random() < 0.4:
        k = rng.randint(1, diamonds - 1)
        return "(%s & %s)" % (formula_with_diamonds(rng, k),
                              formula_with_diamonds(rng, diamonds - k))
    return "<%s>%s" % (rng.choice(ALPHABET),
                       formula_with_diamonds(rng, diamonds - 1))


def random_formula(rng, depth):
    """A random positive existential formula of modal depth <= ``depth``."""
    if depth == 0 or rng.random() < 0.3:
        return "T"
    if rng.random() < 0.6:
        return "<%s>%s" % (rng.choice(ALPHABET),
                           random_formula(rng, depth - 1))
    return "(%s & %s)" % (random_formula(rng, depth),
                          random_formula(rng, depth))
