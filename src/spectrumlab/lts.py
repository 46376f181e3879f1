"""Finite rooted labeled transition systems.

States are positional (0..n-1); display names are metadata and never affect
equality or hashing.  Unlabeled systems use the single label "*".
"""

import itertools
import json
import os
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

STAR = "*"

DEFAULT_BUDGET = 10 ** 6


def enumeration_budget():
    """Candidate-assignment budget for exhaustive searches (env-overridable)."""
    raw = os.environ.get("SPECTRUM_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    return int(raw)


class ParseError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """An exhaustive search hit its budget (distinct from a negative
    answer); names the search, the amount it reached and the limit."""

    def __init__(self, operation, used, unit, limit):
        super().__init__("%s: %d %s, limit %d" % (operation, used, unit, limit))


@dataclass(frozen=True)
class FinLTS:
    n: int
    alphabet: tuple
    root: int
    transitions: frozenset  # of (src, label, dst)
    names: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not (0 <= self.root < self.n):
            raise ValueError("root out of range")
        labels = set(self.alphabet)
        for (s, a, t) in self.transitions:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError("transition endpoint out of range")
            if a not in labels:
                raise ValueError("transition label %r not in alphabet" % (a,))
        if self.names and len(self.names) != self.n:
            raise ValueError("name count mismatch")

    # -- display names -------------------------------------------------

    def name_of(self, i):
        if self.names:
            return self.names[i]
        return "s%d" % i

    def state(self, name):
        """Index of the state with the given display name."""
        for i in range(self.n):
            if self.name_of(i) == name:
                return i
        raise KeyError(name)

    # -- structure queries, read from an index built part by part on first
    # use.  Labels are never ordered (they need not be of one type), so no
    # caller may depend on the order of labels in a row. --------------------

    @cached_property
    def _out(self):
        """Per state: label -> sorted list of successors."""
        rows = [{} for _ in range(self.n)]
        for (s, a, t) in self.transitions:
            rows[s].setdefault(a, []).append(t)
        for row in rows:
            for succ in row.values():
                succ.sort()
        return rows

    @cached_property
    def _masks(self):
        """Per label a with a move, its two mask columns: per state the mask
        of its a-successors, and per state that of its a-predecessors."""
        masks = {}
        for (s, a, t) in self.transitions:
            if a not in masks:
                masks[a] = ([0] * self.n, [0] * self.n)
            succ, pred = masks[a]
            succ[s] |= 1 << t
            pred[t] |= 1 << s
        return masks

    @cached_property
    def _enabled(self):
        """Per state, its enabled labels: one frozenset per distinct set."""
        sets = {}
        return tuple(sets.setdefault(e, e) for e in map(frozenset, self._out))

    @cached_property
    def _hom_plan(self):
        """enumerate_homs's plan from this system: back_edges over the BFS
        order from the root, then any unreachable states; per position k an
        anchor (i, a), an edge i -a-> k with i < k, or None; per state its
        position."""
        order, seen = [self.root], {self.root}
        for u in order:
            for v in self.successors(u):
                if v not in seen:
                    seen.add(v)
                    order.append(v)
        order += [s for s in range(self.n) if s not in seen]
        back = back_edges(self, order)
        anchors = tuple(next(((i, a) for (i, a, j) in row if i < j == k), None)
                        for k, row in enumerate(back))
        return (tuple(map(tuple, back)), anchors,
                tuple(sorted(range(self.n), key=order.__getitem__)))

    @cached_property
    def _reach_memo(self):
        return {}

    def _reach(self, s, back=False):
        """Frozen reflexive-transitive reach set of s (co-reach with back),
        computed once per state."""
        memo = self._reach_memo
        if (s, back) not in memo:
            step = self.predecessors if back else self.successors
            seen, frontier = {s}, [s]
            while frontier:
                for v in step(frontier.pop()):
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
            memo[(s, back)] = frozenset(seen)
        return memo[(s, back)]

    def moves(self, s):
        """label -> sorted list of the a-successors of s, for each enabled
        label a.  Shared with the index: read it, never mutate it."""
        return self._out[s]

    def successors(self, s, label=None):
        if label is None:
            return sorted({t for succ in self._out[s].values() for t in succ})
        return list(self._out[s].get(label, ()))

    def predecessors(self, s, label=None):
        mask = 0
        for a, (_, pred) in self._masks.items():
            if label is None or a == label:
                mask |= pred[s]
        return [u for u in range(mask.bit_length()) if mask >> u & 1]

    def enabled(self, s):
        return self._enabled[s]

    def has_edge(self, s, t, label=None):
        if label is None:
            return any(t in succ for succ in self._out[s].values())
        return (s, label, t) in self.transitions

    def is_deterministic_state(self, s):
        return all(len(succ) == 1 for succ in self._out[s].values())

    def nondeterministic_states(self):
        return [s for s in range(self.n) if not self.is_deterministic_state(s)]

    def has_cycle(self):
        return self._cyclic

    @cached_property
    def _cyclic(self):
        """Some edge s -> t leads back: s is reachable from t."""
        return any(s in self._reach(t)
                   for s in range(self.n) for t in self.successors(s))


def _image(col, mask):
    """Union of col[i] over the set bits i of mask."""
    out = 0
    while mask:
        out |= col[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
    return out


def make_lts(names, alphabet, root_name, edges):
    """Build a FinLTS from display names and (src, label, dst) name triples."""
    names = tuple(names)
    idx = {nm: i for i, nm in enumerate(names)}
    if len(idx) != len(names):  # a repeated name would resolve two ways
        raise ValueError("repeated state name %r" % next(
            nm for i, nm in enumerate(names) if idx[nm] != i))
    trans = frozenset((idx[s], a, idx[t]) for (s, a, t) in edges)
    return FinLTS(len(names), tuple(alphabet), idx[root_name], trans, names)


def unlabeled(names, root_name, pairs):
    return make_lts(names, (STAR,), root_name, [(s, STAR, t) for (s, t) in pairs])


# ---------------------------------------------------------------------------
# reachability / path equivalence / quotient


def reachable_from(G, s):
    """Reflexive-transitive closure image of s under the unlabeled step."""
    return set(G._reach(s))


def reachable_states(G):
    return reachable_from(G, G.root)


def path_equivalence_classes(G):
    """Partition by (forward reach set, backward reach set)."""
    classes = {}
    for s in range(G.n):
        classes.setdefault((G._reach(s), G._reach(s, back=True)), []).append(s)
    return sorted(classes.values())


def path_equivalent(G, s, t):
    return (G._reach(s) == G._reach(t)
            and G._reach(s, back=True) == G._reach(t, back=True))


def quotient(G):
    classes = path_equivalence_classes(G)
    cls_of = {}
    for i, c in enumerate(classes):
        for s in c:
            cls_of[s] = i
    names = tuple("+".join(G.name_of(s) for s in c) for c in classes)
    trans = frozenset((cls_of[s], a, cls_of[t]) for (s, a, t) in G.transitions)
    return FinLTS(len(classes), G.alphabet, cls_of[G.root], trans, names)


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class Homomorphism:
    source: FinLTS
    target: FinLTS
    mapping: tuple  # mapping[i] = image of source state i

    def __call__(self, s):
        return self.mapping[s]

    def is_valid(self):
        if self.mapping[self.source.root] != self.target.root:
            return False
        return all((self.mapping[s], a, self.mapping[t]) in self.target.transitions
                   for (s, a, t) in self.source.transitions)

    def compose(self, other):
        """self o other (apply other first)."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return Homomorphism(other.source, self.target,
                            tuple(self.mapping[x] for x in other.mapping))


def identity_hom(G):
    return Homomorphism(G, G, tuple(range(G.n)))


def enumerate_homs(T, G):
    """All root- and label-preserving homomorphisms T -> G, sorted by
    mapping: T's states are assigned in the order of T._hom_plan, an
    anchored one among the successors of its anchor's image, each image
    keeping the edges back to those assigned.  The budget counts 1 for the
    root and G.n per partial assignment extended, as if all of G were
    tried; exceeding it raises BudgetExceeded, never a wrong answer."""
    back, anchors, pos = T._hom_plan
    found = []  # image tuples indexed by position in the plan's order
    _extend_hom(G, back, anchors, [], 0, enumeration_budget(), found)
    return [Homomorphism(T, G, m) for m in sorted(
        tuple(images[k] for k in pos) for images in found)]


def _extend_hom(G, back, anchors, images, tried, budget, results):
    """Assign position len(images) each image that keeps its back edges (the
    root, at 0, only G's root) and recurse; returns the candidates counted."""
    k = len(images)
    if k == len(back):
        results.append(tuple(images))
        return tried
    tried += G.n if k else 1
    if tried > budget:
        raise BudgetExceeded("hom enumeration", budget + 1, "candidates",
                             budget)
    for g in ((G.root,) if not k else range(G.n) if anchors[k] is None
              else G._out[images[anchors[k][0]]].get(anchors[k][1], ())):
        images.append(g)
        for (i, a, j) in back[k]:
            if (images[i], a, images[j]) not in G.transitions:
                break
        else:
            tried = _extend_hom(G, back, anchors, images, tried, budget,
                                results)
        images.pop()
    return tried


def back_edges(G, order):
    """Per position k of `order` (every state once), the edges (i, a, j) of
    G by positions whose later end is k: those to check on assigning k."""
    pos = {s: k for k, s in enumerate(order)}
    back = [[] for _ in pos]
    for (s, a, t) in G.transitions:
        back[max(pos[s], pos[t])].append((pos[s], a, pos[t]))
    return back


def iso_check(G, H):
    """A root/label-preserving bijective homomorphism with homomorphic
    inverse, or None."""
    if G.n != H.n or len(G.transitions) != len(H.transitions):
        return None
    if sorted(G.alphabet) != sorted(H.alphabet):
        return None
    for h in enumerate_homs(G, H):
        if len(set(h.mapping)) != G.n:
            continue
        inv = [0] * H.n
        for s, g in enumerate(h.mapping):
            inv[g] = s
        back = Homomorphism(H, G, tuple(inv))
        if back.is_valid():
            return h
    return None


def is_rooted_tree(G):
    """Every state reachable from the root via a unique parent, no cycles."""
    seen, stack = {G.root}, [G.root]
    while stack:  # every state is pushed once, so every edge is read once
        for succ in G.moves(stack.pop()).values():
            if not seen.isdisjoint(succ):
                return False
            seen.update(succ)
            stack.extend(succ)
    return len(seen) == G.n


def tree_depth(G):
    if not is_rooted_tree(G):
        raise ValueError("not a rooted tree")
    return height(G, G.root)


def height(G, s):
    """Length of the longest path from s in an acyclic system."""
    return max((1 + height(G, t) for t in G.successors(s)), default=0)


def max_branching(G):
    return max(sum(map(len, row.values())) for row in G._out)


# ---------------------------------------------------------------------------
# Aldebaran .aut + JSON formats


_AUT_HEADER = re.compile(r'^\s*des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$')
_AUT_LINE = re.compile(r'^\s*\(\s*(\d+)\s*,\s*"([^"]*)"\s*,\s*(\d+)\s*\)\s*$')


def parse_aut(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    m = _AUT_HEADER.match(lines[0])
    if not m:
        raise ParseError("malformed des header")
    first, ntrans, nstates = (int(x) for x in m.groups())
    if first >= nstates:
        raise ParseError("root state index out of range")
    body = lines[1:]
    if len(body) != ntrans:
        raise ParseError("transition count mismatch: header says %d, found %d"
                         % (ntrans, len(body)))
    trans = set()
    labels = set()
    for ln in body:
        m = _AUT_LINE.match(ln)
        if not m:
            raise ParseError("malformed transition line: %r" % ln)
        s, a, t = int(m.group(1)), m.group(2), int(m.group(3))
        if s >= nstates or t >= nstates:
            raise ParseError("state index >= nstates")
        trans.add((s, a, t))
        labels.add(a)
    return FinLTS(nstates, tuple(sorted(labels)) or (STAR,), first, frozenset(trans),
                  tuple(str(i) for i in range(nstates)))


def to_aut(G):
    lines = ["des (%d,%d,%d)" % (G.root, len(G.transitions), G.n)]
    for (s, a, t) in sorted(G.transitions):
        lines.append('(%d,"%s",%d)' % (s, a, t))
    return "\n".join(lines) + "\n"


def from_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(str(e))
    try:
        names = list(obj["states"])
        alphabet = list(obj["alphabet"])
        root = obj["root"]
        edges = [tuple(e) for e in obj["transitions"]]
    except (KeyError, TypeError) as e:
        raise ParseError("missing field: %s" % e)
    # formulas and .aut files name states and labels by text; other JSON
    # values (numbers, lists, null) would reach comparisons and dict keys
    if not all(isinstance(x, str) for x in
               itertools.chain(names, alphabet, [root], *edges)):
        raise ParseError("states and labels must be strings")
    try:
        return make_lts(names, alphabet, root, edges)
    except KeyError as e:
        raise ParseError("undeclared state: %s" % e)
    except ValueError as e:  # e.g. a label outside the alphabet
        raise ParseError(str(e))


def to_json(G):
    return json.dumps({
        "states": [G.name_of(i) for i in range(G.n)],
        "alphabet": list(G.alphabet),
        "root": G.name_of(G.root),
        "transitions": [[G.name_of(s), a, G.name_of(t)]
                        for (s, a, t) in sorted(G.transitions)],
    }, indent=2)


# ---------------------------------------------------------------------------
# witness catalog


def path_digraph(n):
    if n < 0:
        raise ValueError("pathDigraph(n) needs n >= 0, not %d" % n)
    names = [str(i) for i in range(n + 1)]
    return unlabeled(names, "0", [(str(i), str(i + 1)) for i in range(n)])


def fan(k):
    if k < 0:
        raise ValueError("fan(k) needs k >= 0, not %d" % k)
    names = ["r"] + ["l%d" % i for i in range(1, k + 1)]
    return unlabeled(names, "r", [("r", "l%d" % i) for i in range(1, k + 1)])


def trace_lts(word, alphabet=None):
    """The chain system of a word (a string or a sequence of labels), built
    once per (word, alphabet) and shared between callers: FinLTS is
    immutable, and a shared system keeps its index."""
    if alphabet is None:
        alphabet = sorted(set(word)) or (STAR,)
    return _trace_lts(tuple(word), tuple(alphabet))


@lru_cache(maxsize=256)  # 42 keys per report; bounded for `topology support`
def _trace_lts(word, alphabet):
    names = ["0"] + [str(i + 1) for i in range(len(word))]
    edges = [(str(i), word[i], str(i + 1)) for i in range(len(word))]
    return make_lts(names, alphabet, "0", edges)


def fan_lts(w1, w2):
    """Two chains from one root, numbered branch after branch."""
    names, edges = ["0"], []
    for w in (w1, w2):
        prev = "0"
        for a in w:
            names.append(str(len(names)))
            edges.append((prev, a, names[-1]))
            prev = names[-1]
    return make_lts(names, tuple(sorted(set(w1 + w2))) or (STAR,), "0", edges)


def _fixed_catalog():
    cat = {}
    cat["selfLoop"] = unlabeled(["a"], "a", [("a", "a")])
    cat["twoCycle"] = unlabeled(["x", "y"], "x", [("x", "y"), ("y", "x")])
    cat["fork"] = unlabeled(["a", "b", "c"], "a",
                            [("a", "b"), ("a", "c"), ("b", "b")])
    cat["path"] = unlabeled(["x", "y"], "x", [("x", "y"), ("y", "y")])
    cat["hubSpokes"] = unlabeled(["a", "b", "c"], "a",
                                 [("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")])
    cat["diamond"] = unlabeled(["a", "b", "c", "d"], "a",
                               [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
                                ("d", "d")])
    cat["confluenceTree"] = unlabeled(
        ["a", "b", "c", "d1", "d2"], "a",
        [("a", "b"), ("a", "c"), ("b", "d1"), ("c", "d2"),
         ("d1", "d1"), ("d2", "d2")])
    cat["backEdge"] = unlabeled(["rt", "lp"], "rt",
                                [("rt", "lp"), ("lp", "lp"), ("lp", "rt")])
    cat["cycleEntry"] = unlabeled(["a", "b", "c"], "a",
                                  [("a", "b"), ("b", "c"), ("c", "b")])
    cat["stretchedEntry"] = unlabeled(["a", "b", "c", "d"], "a",
                                      [("a", "b"), ("b", "c"), ("c", "d"),
                                       ("d", "c")])
    abc = ("a", "b", "c")
    cat["P_abc"] = make_lts(["p0", "p1", "p2", "p3", "p4"], abc, "p0",
                            [("p0", "a", "p1"), ("p0", "a", "p2"),
                             ("p1", "b", "p3"), ("p2", "c", "p4")])
    cat["Q"] = make_lts(["q0", "q1", "q2", "q3"], abc, "q0",
                        [("q0", "a", "q1"), ("q1", "b", "q2"), ("q1", "c", "q3")])
    cat["R6"] = make_lts(["r0", "r1", "r2", "r3", "r4", "r5"], abc, "r0",
                         [("r0", "a", "r1"), ("r0", "a", "r2"),
                          ("r1", "b", "r3"), ("r2", "b", "r4"),
                          ("r2", "c", "r5")])
    cat["U"] = make_lts(["u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7"], abc,
                        "u0",
                        [("u0", "a", "u1"), ("u0", "a", "u2"), ("u0", "a", "u3"),
                         ("u1", "b", "u4"), ("u2", "c", "u5"),
                         ("u3", "b", "u6"), ("u3", "c", "u7")])
    return cat


_CATALOG = _fixed_catalog()

PARAMETRIC = {
    "pathDigraph": (path_digraph, 1, True, "one integer n >= 0"),
    "fan": (fan, 1, True, "one integer k >= 0"),
    "traceLTS": (trace_lts, 1, False, "one word w"),
    "fanLTS": (fan_lts, 2, False, "two words w1, w2"),
}


def catalog(name, *params):
    if name in _CATALOG:
        if params:
            raise ValueError("%s takes no parameters" % name)
        return _CATALOG[name]
    if name in PARAMETRIC:
        build, arity, integer, takes = PARAMETRIC[name]
        if len(params) != arity or integer and not re.fullmatch(
                r"\s*[+-]?\d+\s*", str(params[0])):
            raise ValueError("%s takes %s, got %s" % (
                name, takes, ", ".join(map(repr, params)) or "no argument"))
        return build(*(int(p) for p in params) if integer else params)
    raise KeyError("unknown catalog name: %s" % name)


def catalog_names():
    return sorted(_CATALOG)


def catalog_systems():
    """The fixed (non-parametric) witness systems, name -> FinLTS."""
    return dict(_CATALOG)


def unlabeled_catalog_systems():
    return {k: v for k, v in _CATALOG.items() if v.alphabet == (STAR,)}
