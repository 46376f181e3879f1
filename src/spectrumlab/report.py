"""The reproduction report: thirteen criterion suites, each a list of
(claim, computed, ok) rows, rendered as deterministic markdown."""

import itertools
import json
import random

from . import closure as cl
from . import equivalences as eq
from . import geometry as geo
from . import hml
from . import lindenbaum as lb
from . import spectrum as sp
from . import topology as tp
from .lts import (FinLTS, catalog, catalog_systems, fan, is_rooted_tree,
                  iso_check, path_digraph, quotient)

RANDOM_SEED = 1729


def _row(claim, value):
    return (claim, str(value), bool(value))


def _eqrow(claim, computed, expected):
    return (claim, str(computed), computed == expected)


# ---------------------------------------------------------------------------


def criterion_1():
    L, prov, rounds = sp.spectrum_lattice()
    named = [v for v in L.elements if v in sp.NAME_OF_VECTOR]
    rows = [
        _eqrow("closure has 30 elements", len(L.elements), 30),
        _eqrow("13 named elements", len(named), 13),
        _eqrow("17 unnamed elements", len(L.elements) - len(named), 17),
        _eqrow("stabilizes in 3 rounds", rounds, 3),
    ]
    return ("Lattice closure", rows)


def criterion_2():
    L, _, _ = sp.spectrum_lattice()
    J = L.join_irreducibles()
    M = L.meet_irreducibles()
    j_named = sorted(sp.NAME_OF_VECTOR[v] for v in J if v in sp.NAME_OF_VECTOR)
    ind = sp.indecomposability_check(L)
    rows = [
        _eqrow("|join irreducibles| = 10", len(J), 10),
        _eqrow("|meet irreducibles| = 10", len(M), 10),
        _eqrow("named join irreducibles are B,F,IF,T", j_named,
               ["B", "F", "IF", "T"]),
        _eqrow("comparability graph of J connected", ind["connected"], True),
        _eqrow("12 covering relations inside J", len(ind["j_covers"]), 12),
        _eqrow("distributive on all 27000 triples", L.is_distributive(), True),
    ]
    return ("Irreducibles", rows)


SUBTRACTION_TABLE = (
    ("S", "T", ("S",)),
    ("F", "T", ("F",)),
    ("B", "RS", ("B",)),
    ("RS", "S", ("F",)),
    ("2S", "RS", ("IF",)),
    ("PF", "IF", ("S", "PF")),   # meet of the two
)


def adjunctions(L):
    """Heyting and co-Heyting adjunctions on element numbers, over all z at
    once: {z : z & a <= b} is down[a -> b] and {z : b <= a | z} is
    up[b \\ a], each set a union of the groups {z : z op a = w}.  The first
    set depends on b only through b & a, the second through b | a."""
    n, up, down = range(len(L.elements)), L.up, L.down
    hey = cohey = True
    for a in n:
        meets, joins = {}, {}
        for z in n:
            for groups, w in ((meets, L.meet_table[z][a]),
                              (joins, L.join_table[z][a])):
                groups[w] = groups.get(w, 0) | 1 << z
        low = {c: sum(m for w, m in meets.items() if down[c] >> w & 1)
               for c in meets}
        high = {d: sum(m for w, m in joins.items() if up[d] >> w & 1)
                for d in joins}
        hey = hey and all(down[L.heyting_n(a, b)] == low[L.meet_table[b][a]]
                          for b in n)
        cohey = cohey and all(
            up[L.coheyting_n(b, a)] == high[L.join_table[b][a]] for b in n)
    return hey, cohey


def criterion_3():
    L, _, _ = sp.spectrum_lattice()
    NV = sp.NAMED_VECTORS
    rows = [_eqrow("S -> F = IF", L.heyting(NV["S"], NV["F"]), NV["IF"])]
    pairs = sp.incomparable_named_pairs()
    rows.append(_eqrow("32 incomparable ordered named pairs", len(pairs), 32))
    unnamed = [(a, b) for (a, b) in pairs
               if L.heyting(NV[a], NV[b]) not in sp.NAME_OF_VECTOR]
    rows.append(_eqrow("6 of their implications unnamed", len(unnamed), 6))
    rows.append(_row("not x = E for all x above bottom",
                     all(L.pseudocomplement(x) == NV["E"]
                         for x in L.elements if x != NV["E"])))
    rows.append(_row("co-not x = B for all x below top",
                     all(L.conegation(x) == NV["B"]
                         for x in L.elements if x != NV["B"])))
    core = sorted(L.boolean_core())
    rows.append(_eqrow("Boolean core = {E, B}", core,
                       sorted([NV["E"], NV["B"]])))
    for (x, y, expect) in SUBTRACTION_TABLE:
        want = NV[expect[0]]
        for nm in expect[1:]:
            want = sp.vec_meet(want, NV[nm])
        got = L.coheyting(NV[x], NV[y])
        rows.append(_eqrow("%s \\ %s = %s" % (x, y, "^".join(expect)),
                           sp.format_vector(got), sp.format_vector(want)))
    naive_ok = all(sp.naive_subtraction(NV[x], NV[y])[0] == 0
                   for (x, y, _) in SUBTRACTION_TABLE)
    rows.append(_row("naive subtraction kills the depth slot on the table "
                     "pairs", naive_ok))
    hey, cohey = adjunctions(L)
    rows.append(_row("Heyting adjunction on all triples", hey))
    rows.append(_row("co-Heyting adjunction on all triples", cohey))
    return ("Bi-Heyting structure", rows)


def criterion_4():
    D = sp.downset_lattice(sp.NAMED_VECTORS.values(), sp.vec_leq)
    nj = len(D.join_irreducibles())
    rows = [
        _eqrow("downset lattice of the 13 vectors has 13 join irreducibles",
               nj, 13),
        _row("which differs from the 10 of the closure", nj != 10),
    ]
    return ("Coordinatization", rows)


def _names(G, rel):
    return sorted((G[0].name_of(s), G[1].name_of(t)) for (s, t) in rel)


def criterion_5():
    fork, path = catalog("fork"), catalog("path")
    hub, two = catalog("hubSpokes"), catalog("twoCycle")
    dia, conf = catalog("diamond"), catalog("confluenceTree")
    loop = catalog("selfLoop")
    rows = []
    rows.append(_eqrow("fork and path mutually simulate",
                       eq.mutually_similar(fork, path), True))
    rows.append(_eqrow("fork and path are not bisimilar",
                       eq.bisimilar(fork, path), None))
    cert = geo.topos_separation_certificate(fork, path)
    rows.append(_eqrow("totality sequent separates fork from path",
                       cert and cert["name"], "tot"))
    wit = eq.bisimilar(hub, two)
    rows.append(_eqrow("hubSpokes/twoCycle bisimulation witness",
                       _names((hub, two), wit or ()),
                       [("a", "x"), ("b", "y"), ("c", "y")]))
    rows.append(_row("functional bisimulation hubSpokes <-> twoCycle exists",
                     eq.functional_bisim_search(hub, two) is not None))
    cert = geo.topos_separation_certificate(hub, two)
    rows.append(_eqrow("determinism sequent separates them",
                       cert and cert["name"], "det"))
    rows.append(_row("diamond/confluenceTree bisimilar",
                     eq.bisimilar(dia, conf) is not None))
    cert = geo.topos_separation_certificate(dia, conf)
    rows.append(_eqrow("confluence sequent separates them",
                       cert and cert["name"], "conf"))
    wit = eq.bisimilar(loop, two)
    rows.append(_eqrow("selfLoop/twoCycle bisimulation witness",
                       _names((loop, two), wit or ()),
                       [("a", "x"), ("a", "y")]))
    rows.append(_eqrow("no functional bisimulation selfLoop <-> twoCycle",
                       eq.functional_bisim_search(loop, two), None))
    cert = geo.topos_separation_certificate(loop, two)
    rows.append(_eqrow("self-loop sequent separates them",
                       cert and cert["name"], "loop"))
    rows.append(_row("quotients of hubSpokes and twoCycle isomorphic",
                     iso_check(quotient(hub), quotient(two)) is not None))
    return ("Hierarchy separations", rows)


def criterion_6():
    rows = []
    # depth-0 modal formulas are constant across states
    const = True
    for phi in hml.canonical_formulas(("*",), 0):
        vals = {hml.satisfies(G, s, phi)
                for G in catalog_systems().values() if G.alphabet == ("*",)
                for s in range(G.n)}
        if len(vals) > 1:
            const = False
    rows.append(_row("depth-0 modal formulas are constant", const))
    for d in (0, 1, 2):
        suite = geo.vanbenthem_suite(d)
        ok = all(r["ok"] for r in suite)
        inv = sum(1 for r in suite if r["invariant"])
        sep = sum(1 for r in suite if not r["invariant"])
        rows.append(_row("depth %d: %d invariant, %d separated, all verified"
                         % (d, inv, sep), ok))
    return ("Bounded invariance suites", rows)


def criterion_7():
    P, Q = catalog("P_abc"), catalog("Q")
    R6, U = catalog("R6"), catalog("U")
    rows = [_eqrow("P_abc and Q trace-equivalent",
                   eq.trace_equivalent(P, Q), True)]
    checks = (
        ("<a>(<b>T & <c>T)", Q, P, "Q", "P_abc"),
        ("<a>(<b>T & !<c>T)", R6, Q, "R6", "Q"),
        ("[a]<c>T", Q, R6, "Q", "R6"),
    )
    for (text, yes, no, yn, nn) in checks:
        phi = hml.parse_formula(text)
        got = (hml.satisfies(yes, yes.root, phi),
               hml.satisfies(no, no.root, phi))
        rows.append(_eqrow("%s true at %s, false at %s" % (text, yn, nn),
                           got, (True, False)))
    rows.append(_eqrow("Q and U not bisimilar", eq.bisimilar(Q, U), None))
    rows.append(_eqrow("Q and U mutually simulate",
                       eq.mutually_similar(Q, U), True))
    return ("Labeled four-level separations", rows)


def _model_count_oracle(G):
    """Independent count: per state, any nonempty subset of its outgoing
    atoms; states choose independently."""
    total = 1
    for s in range(G.n):
        k = len([1 for (u, a, t) in G.transitions if u == s])
        if k:
            total *= 2 ** k - 1
    return total


def criterion_8():
    rows = []
    # R6 stays red: 48, not 25; see README, "Install and test"
    expected = {"P_abc": (5, 3), "Q": (5, 3), "R6": (25, 9),
                "hubSpokes": (5, 3)}
    for name in ("P_abc", "Q", "R6", "hubSpokes"):
        lind = lb.lindenbaum(catalog(name))
        want_size, want_models = expected[name]
        rows.append(_eqrow("Lindenbaum size of %s" % name,
                           len(lind.lattice.elements), want_size))
        # Birkhoff cross-check of the computed size: a finite distributive
        # lattice has as many elements as its irreducible poset has downsets
        J = lind.lattice.join_irreducibles()
        birkhoff = len(sp.downset_lattice(J, lind.lattice.leq).elements)
        rows.append(_eqrow("size of %s matches its Birkhoff downset count"
                           % name, len(lind.lattice.elements), birkhoff))
        rows.append(_eqrow("model count of %s" % name, len(lind.models),
                           want_models))
        rows.append(_eqrow("model count matches the per-state product oracle",
                           len(lind.models),
                           _model_count_oracle(catalog(name))))
    hub = lb.lindenbaum(catalog("hubSpokes"))
    rows.append(_eqrow("hubSpokes lattice has 3 join irreducibles",
                       len(hub.lattice.join_irreducibles()), 3))
    nuclei = lb.enumerate_nuclei(hub.lattice)
    rows.append(_eqrow("8 nuclei on the hubSpokes lattice", len(nuclei), 8))
    id_in_all = True
    for name in ("P_abc", "Q", "hubSpokes", "twoCycle"):
        lat = lb.lindenbaum(catalog(name)).lattice
        ns = lb.enumerate_nuclei(lat)
        if not any(all(j[x] == x for x in lat.elements) for j in ns):
            id_in_all = False
    rows.append(_row("identity nucleus present in every enumeration",
                     id_in_all))
    return ("Lindenbaum algebras", rows)


def criterion_9():
    rows = []
    for name in ("P_abc", "Q", "R6"):
        rows.append(_eqrow("only the identity automorphism on %s" % name,
                           len(lb.automorphisms(catalog(name))), 1))
    # each check runs symmetry_hom once; hubSpokes' and twoCycle's rows
    # read their kernel, image and group sizes from it
    checks = {name: lb.kernel_dichotomy_check(G)
              for name, G in catalog_systems().items()}
    hub, two = checks["hubSpokes"], checks["twoCycle"]
    rows.append(_eqrow("hubSpokes kernel trivial", hub["kernel_size"], 1))
    rows.append(_eqrow("hubSpokes image has order 2", hub["image_size"], 2))
    rows.append(_eqrow("twoCycle kernel is the whole order-2 group",
                       (two["kernel_size"], two["group_size"]), (2, 2)))
    agree = all(check["agree"] for check in checks.values())
    rows.append(_row("kernel dichotomy on every catalog system", agree))
    hom_ok = all(lb.is_group_hom(catalog(n))
                 for n in ("hubSpokes", "twoCycle", "diamond"))
    rows.append(_row("induced maps respect composition and identity",
                     hom_ok))
    return ("Symmetry homomorphism", rows)


def criterion_10():
    rows = []
    bounds = tp.SiteBounds(2, 4)
    UF = tp.MorphismUniverse(fan(2), bounds)
    S = tp.path_sieve(UF)
    rows.append(_eqrow("path-generated sieve on fan(2) is trace-covering",
                       tp.is_covering(S, tp.PATHS, UF).covering, True))
    rows.append(_eqrow("and is not bisim-covering",
                       tp.is_covering(S, tp.TREES, UF).covering, False))
    sample = [path_digraph(1), path_digraph(2), fan(2), catalog("twoCycle")]
    for C in (tp.PATHS, tp.TREES):
        rep = tp.grothendieck_axiom_check(C, sample, bounds)
        ok = rep["maximality"] and rep["stability"] and rep["transitivity"]
        rows.append(_row("%s covering passes all three axioms" % C.name, ok))
    naive = tp.grothendieck_axiom_check(tp.TREES, sample, bounds, naive=True)
    rows.append(_eqrow("naive predicate: maximality and transitivity pass",
                       (naive["maximality"], naive["transitivity"]),
                       (True, True)))
    rows.append(_eqrow("naive predicate: stability fails",
                       naive["stability"], False))
    wit = tp.naive_instability_witness(bounds)
    rows.append(_eqrow("instability witness on the labeled fan",
                       (wit["base_covering"], wit["pullback_covering"],
                        wit["identity_in_pullback"]), (True, False, False)))
    words = [""]
    for k in range(1, 5):
        words.extend("".join(w) for w in itertools.product("ab", repeat=k))
    prefix_ok = all(tp.prefix_hom_check(w1, w2)["ok"]
                    for w1 in words for w2 in words)
    rows.append(_row("prefix-hom law on all word pairs of length <= 4",
                     prefix_ok))
    bracket_ok = True
    for G in sample:
        U = tp.MorphismUniverse(G, bounds)
        for S in [tp.maximal_sieve(U), tp.path_sieve(U),
                  tp.generate_sieve(U, [])]:
            trees_c = tp.is_covering(S, tp.TREES, U).covering
            paths_c = tp.is_covering(S, tp.PATHS, U).covering
            for name, E in sorted(sp.NAMED_VECTORS.items()):
                energy_c = tp.is_covering(S, tp.energy_class(E), U).covering
                if trees_c and not energy_c:
                    bracket_ok = False
                # the downward leg applies when the class holds every
                # bounded path probe
                if E[0] >= bounds.max_test_depth and E[1] >= 1:
                    if energy_c and not paths_c:
                        bracket_ok = False
    rows.append(_row("bracket bisim => energy(E) => trace on sampled sieves",
                     bracket_ok))
    dens = all(tp.density_check(G, bounds) for G in sample)
    rows.append(_row("chain systems are dense in the sample", dens))
    return ("Covering topologies", rows)


_REGIME_TABLE = (
    ("<a>T", "<b>T", "independent"),
    ("<b>T", "<a>T & <b>T", "residual"),
    ("<a>T", "<a><b>T", "depthIncreasing"),
    ("<a><b>T", "<a>T", "entailment"),
)


def _random_system(rng):
    n = rng.randint(1, 4)
    alphabet = ("a", "b")
    trans = set()
    for s in range(n):
        for a in alphabet:
            for t in range(n):
                if rng.random() < 0.3:
                    trans.add((s, a, t))
    return FinLTS(n, alphabet, 0, frozenset(trans))


def _random_pe_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return hml.TOP
    roll = rng.random()
    label = rng.choice(("a", "b"))
    if roll < 0.6:
        return hml.Diamond(label, _random_pe_formula(rng, depth - 1))
    return hml.And(_random_pe_formula(rng, depth),
                   _random_pe_formula(rng, depth))


def criterion_11():
    rows = []
    for (ptext, qtext, want) in _REGIME_TABLE:
        phi, psi = hml.parse_formula(ptext), hml.parse_formula(qtext)
        got = cl.regime_classify(phi, psi)
        claim = "regime of (%s, %s)" % (ptext, qtext)
        if want == "residual":
            rows.append(_eqrow(claim, (got["regime"], str(got["residual"])),
                               ("residual", "<a>T")))
        else:
            rows.append(_eqrow(claim, got["regime"], want))
    agree = True
    small = [catalog("Q"), catalog("P_abc")]
    for (ptext, qtext, _) in _REGIME_TABLE:
        phi, psi = hml.parse_formula(ptext), hml.parse_formula(qtext)
        for G in small:
            for v in range(G.n):
                a = cl.heyting_implication_presheaf(G, v, phi, psi)
                b = cl.brute_force_implication(G, v, phi, psi, G.n + 2)
                if a != b:
                    agree = False
    rows.append(_row("oracle agreement on all regime instances", agree))
    rng = random.Random(RANDOM_SEED)
    rand_ok = True
    for _ in range(200):
        G = _random_system(rng)
        v = rng.randrange(G.n)
        phi = _random_pe_formula(rng, 2)
        psi = _random_pe_formula(rng, 2)
        a = cl.heyting_implication_presheaf(G, v, phi, psi)
        b = cl.brute_force_implication(G, v, phi, psi, G.n + 2)
        if a != b:
            rand_ok = False
    rows.append(_row("oracle agreement on 200 seeded random cases", rand_ok))
    collapse_ok = True
    for G in catalog_systems().values():
        for text in ("<a>T", "<a><b>T"):
            phi = hml.parse_formula(text)
            if not hml.labels_of(phi) <= set(G.alphabet):
                continue
            for v in range(G.n):
                rep = cl.negation_collapse_check(G, v, phi)
                if rep["negation"] or not rep["double_negation"]:
                    collapse_ok = False
    rows.append(_row("negation collapse on every labeled catalog vertex",
                     collapse_ok))
    return ("Geometric closure", rows)


def _disjoint_union(parts):
    """(U, offsets): parts side by side, parts[i]'s s at offsets[i] + s."""
    alphabet = parts[0].alphabet
    if any(P.alphabet != alphabet for P in parts):
        raise ValueError("parts over unequal alphabets")
    offsets = list(itertools.accumulate((P.n for P in parts), initial=0))
    edges = frozenset((o + s, a, o + t) for P, o in zip(parts, offsets)
                      for (s, a, t) in P.transitions)
    return FinLTS(offsets.pop(), alphabet, parts[0].root, edges), offsets


def criterion_12():
    rows = []
    dia = catalog("diamond")
    tree, proj = hml.tree_unravel(dia, dia.state("a"), 2)
    names = sorted(tree.name_of(i) for i in range(tree.n))
    rows.append(_eqrow("unraveling diamond to depth 2 has 5 vertices",
                       tree.n, 5))
    rows.append(_eqrow("vertex names", names, sorted(["ε", "b", "c", "bd", "cd"])))
    preserve = shapes = True
    groups = {}  # by alphabet: per system G, then T_0 to T_3, each rooted at 0
    for _, G in sorted(catalog_systems().items()):
        parts = [G] + [hml.tree_unravel(G, G.root, d)[0] for d in range(4)]
        shapes = all([is_rooted_tree(T) for T in parts[1:]]) and shapes
        groups.setdefault(G.alphabet, []).extend(parts)
    for alphabet, parts in groups.items():
        # Modal truth is invariant under disjoint union: one extension on the
        # union of an alphabet's systems and unravelings answers every root.
        U, offsets = _disjoint_union(parts)
        deepest, memo = hml.canonical_formulas(alphabet, 3, "diamondOnly"), {}
        masks = [hml.extension(U, phi, memo) for phi in deepest]
        sizes = [len(hml.canonical_formulas(alphabet, d, "diamondOnly"))
                 for d in range(3)] + [len(deepest)]  # prefixes of deepest
        for i in range(0, len(parts), 5):
            g = offsets[i] + parts[i].root
            for t, size in zip(offsets[i + 1:i + 5], sizes):
                preserve &= all(m >> g & 1 == m >> t & 1 for m in masks[:size])
    rows.append(_row("depth-d formulas preserved for every system, d <= 3",
                     preserve))
    rows.append(_row("every unraveling is a clean tree", shapes))
    return ("Tree unraveling", rows)


def criterion_13():
    sigs = {}
    for name in sorted(catalog_systems()):
        G = catalog(name)
        sigs[name] = (G.n, len(lb.lindenbaum(G).lattice.elements),
                      len(lb.automorphisms(G)),
                      tuple(sorted(eq.bounded_traces(G, 3))))
    names = sorted(sigs)
    clashes = [(a, b) for a, b in itertools.combinations(names, 2)
               if sigs[a] == sigs[b]]
    rows = [
        _eqrow("invariant tuples pairwise distinct over all 14 systems",
               clashes, []),
    ]
    return ("Separation matrix", rows)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12, criterion_13)


def _sections():
    """(number, title, rows) of each criterion, in order."""
    for i, crit in enumerate(CRITERIA, start=1):
        yield (i,) + crit()


def generate_report():
    """Markdown report; deterministic byte-for-byte."""
    lines, all_ok = ["# Reproduction report", ""], True
    for i, title, rows in _sections():
        lines += ["## %d. %s" % (i, title), "",
                  "| claim | computed | verdict |", "|---|---|---|"]
        for (claim, computed, ok) in rows:
            all_ok = all_ok and ok
            lines.append("| %s | %s | %s |"
                         % (claim, computed, "PASS" if ok else "FAIL"))
        lines.append("")
    lines.append("Overall: %s" % ("PASS" if all_ok else "FAIL"))
    return "\n".join(lines) + "\n", all_ok


def report_json():
    out, all_ok = [], True
    for i, title, rows in _sections():
        for (claim, computed, ok) in rows:
            all_ok = all_ok and ok
            out.append({"criterion": i, "section": title, "claim": claim,
                        "computed": computed, "ok": ok})
    return json.dumps({"rows": out, "ok": all_ok}, indent=2,
                      ensure_ascii=False), all_ok
