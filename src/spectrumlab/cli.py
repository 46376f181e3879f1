"""Command-line surface.

Exit status: 0 when the queried property holds (or the command just prints
data), 1 when a checked property comes out false, 2 on usage, parse and
precondition errors, 3 when an exhaustive search exceeds its budget.
"""

import argparse
import json
import os
import sys

from . import closure as cl
from . import equivalences as eq
from . import geometry as geo
from . import hml
from . import lindenbaum as lb
from . import report as rp
from . import spectrum as sp
from . import topology as tp
from .lts import (BudgetExceeded, ParseError, catalog, catalog_names,
                  from_json, parse_aut, to_aut, to_json)


class UsageError(Exception):
    pass


def _load_system(spec):
    """Catalog name, parametric name(args), or a .aut / .json file path."""
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
        if spec.endswith(".json"):
            return from_json(text)
        return parse_aut(text)
    if "(" in spec and spec.endswith(")"):
        name, raw = spec[:-1].split("(", 1)
        args = [a.strip() for a in raw.split(",")] if raw.strip() else []
        try:
            return catalog(name.strip(), *args)
        except (KeyError, ValueError, TypeError) as e:
            raise UsageError(str(e))
    try:
        return catalog(spec)
    except KeyError:
        raise UsageError("unknown system %r (catalog: %s)"
                         % (spec, ", ".join(catalog_names())))


def _state(G, name):
    try:
        return G.state(name)
    except KeyError:
        raise UsageError("unknown state %r" % name)


def _formula(text):
    try:
        return hml.parse_formula(text)
    except ParseError as e:
        raise UsageError("bad formula: %s" % e)


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in text_lines:
            print(line)


_LEVEL_ALIASES = {
    "bisim": "bisimulation", "sim": "simulation", "readySim": "readySimulation",
}


def cmd_equiv(args):
    M = _load_system(args.M)
    N = _load_system(args.N)
    level = _LEVEL_ALIASES.get(args.level, args.level)
    payload = {}
    lines = []
    if args.all:
        for lv in eq.LEVELS:
            payload[lv] = eq.decide(M, N, lv)
            lines.append("%s: %s" % (lv, "yes" if payload[lv] else "no"))
        d2 = eq.d_equivalent(M, N, 2)
        oracle = hml.d_equivalence_oracle(M, N, 2)
        payload["depth2"] = d2
        payload["depth2_oracle_agrees"] = (d2 == oracle)
        lines.append("depth-2: %s (formula oracle agrees: %s)"
                     % ("yes" if d2 else "no", d2 == oracle))
        verdict = payload[_LEVEL_ALIASES.get("bisim")]
    elif level.startswith("depth:"):
        try:
            d = int(level.split(":")[1])
        except ValueError:
            raise UsageError("bad depth in level %r" % args.level)
        verdict = eq.d_equivalent(M, N, d)
        payload = {"level": level, "verdict": verdict}
        lines.append("depth-%d equivalent: %s" % (d, "yes" if verdict else "no"))
        if d <= 2:
            lines.append("formula oracle agrees: %s"
                         % (hml.d_equivalence_oracle(M, N, d) == verdict))
    else:
        if level not in eq.LEVELS:
            raise UsageError("unknown level %r" % args.level)
        verdict = eq.decide(M, N, level)
        payload = {"level": level, "verdict": verdict}
        name = "bisimilar" if level == "bisimulation" else level
        lines.append("%s: %s" % (name, "yes" if verdict else "no"))
    if args.witness:
        wit = eq.bisimilar(M, N)
        gb = eq.greatest_bisimulation(M, N)
        pre = eq.simulation_preorder(M, N)
        payload["witness"] = sorted((M.name_of(s), N.name_of(t))
                                    for (s, t) in (wit or ()))
        lines.append("bisimulation witness: %s"
                     % (payload["witness"] if wit else "none"))
        lines.append("greatest bisimulation size: %d, simulation preorder "
                     "size: %d" % (len(gb), len(pre)))
    if args.functional:
        pair = eq.functional_bisim_search(M, N)
        bi = eq.bi_interpretation_search(M, N)
        payload["functional"] = pair is not None
        payload["biInterpretation"] = bi is not None
        lines.append("functional bisimulation: %s"
                     % ("yes" if pair else "none"))
        lines.append("bi-interpretation: %s" % ("yes" if bi else "none"))
        if pair is not None:
            bridge = eq.quotient_bridge_check(M, N)
            payload["quotient_bridge"] = bridge
            lines.append("quotient bridge (quotients isomorphic): %s" % bridge)
    _emit(args, payload, lines)
    return 0 if verdict else 1


def cmd_distinguish(args):
    M = _load_system(args.M)
    N = _load_system(args.N)
    phi = hml.distinguishing_formula(M, N, fragment=args.fragment,
                                     depth_bound=args.depth)
    if phi is None:
        _emit(args, {"formula": None}, ["no distinguishing formula "
                                        "within the bounded family"])
        return 1
    _emit(args, {"formula": str(phi), "fragment": hml.fragment_of(phi)},
          ["formula: %s" % phi, "fragment: %s" % hml.fragment_of(phi)])
    return 0


def cmd_sigma(args):
    lines = []
    payload = {}
    if args.name == "bridge":
        M = _load_system(args.M)
        rows = geo.semantic_bridge_check(M)
        ok = all(r["agree"] for r in rows.values())
        for nm in geo.SIGMA_NAMES:
            r = rows[nm]
            lines.append("%s: eval=%s structural=%s agree=%s"
                         % (nm, r["eval"], r["structural"], r["agree"]))
        payload = {"rows": rows, "ok": ok}
        _emit(args, payload, lines)
        return 0 if ok else 1
    if args.name == "theory":
        M = _load_system(args.M)
        th = geo.generate_theory(M)
        holds = all(geo.eval_sequent(M, s) for s in th.all_sequents())
        lines.append("sequents: %d, all valid in the canonical model: %s"
                     % (len(th), holds))
        _emit(args, {"count": len(th), "holds": holds}, lines)
        return 0 if holds else 1
    if args.name == "separate":
        M = _load_system(args.M)
        if args.N is None:
            raise UsageError("separate needs two systems")
        N = _load_system(args.N)
        cert = geo.topos_separation_certificate(M, N)
        if cert is None:
            _emit(args, {"certificate": None},
                  ["not separated by the named family"])
            return 1
        lines = ["separating sequent: %s (%s)" % (cert["name"], cert["sequent"]),
                 "holds in the %s system" % cert["holds_in"]]
        _emit(args, {"name": cert["name"], "sequent": str(cert["sequent"]),
                     "holds_in": cert["holds_in"]}, lines)
        return 0
    if args.name == "custom":
        if args.N is None:
            raise UsageError("custom needs a sequent and a system")
        sigma = geo.parse_sequent(args.M)
        M = _load_system(args.N)
        try:
            verdict = geo.eval_sequent(M, sigma)
        except KeyError as e:
            raise UsageError("unknown state constant %s" % e)
        _emit(args, {"sequent": str(sigma), "verdict": verdict},
              ["%s: %s" % (sigma, "holds" if verdict else "fails")])
        return 0 if verdict else 1
    try:
        sigma = geo.named_sigma(args.name)
    except KeyError:
        raise UsageError("unknown sequent name %r" % args.name)
    M = _load_system(args.M)
    verdict = geo.eval_sequent(M, sigma)
    _emit(args, {"name": args.name, "verdict": verdict},
          ["sigma_%s: %s" % (args.name, "holds" if verdict else "fails")])
    return 0 if verdict else 1


def cmd_lattice(args):
    L, prov, rounds = sp.spectrum_lattice()
    NV = sp.NAMED_VECTORS
    lines = []
    payload = {}
    if args.topic == "closure":
        named = sum(1 for v in L.elements if v in sp.NAME_OF_VECTOR)
        lines.append("%d elements (%d named, %d unnamed), rounds=%d"
                     % (len(L.elements), named, len(L.elements) - named,
                        rounds))
        for v in L.elements:
            lines.append("  %s = %s" % (sp.format_vector(v), prov[v]))
        payload = {"size": len(L.elements), "named": named, "rounds": rounds,
                   "provenance": {sp.format_vector(v): prov[v]
                                  for v in L.elements}}
    elif args.topic == "irreducibles":
        J = L.join_irreducibles()
        ind = sp.indecomposability_check(L)
        lines.append("join irreducibles: %d, meet irreducibles: %d"
                     % (len(J), len(L.meet_irreducibles())))
        lines.append("J comparability graph connected: %s, covers in J: %d"
                     % (ind["connected"], len(ind["j_covers"])))
        lines.append("distributive: %s" % L.is_distributive())
        payload = {"join": len(J), "meet": len(L.meet_irreducibles()),
                   "connected": ind["connected"],
                   "j_covers": len(ind["j_covers"])}
    elif args.topic == "biheyting":
        core = L.boolean_core()
        lines.append("S -> F = %s" % sp.format_vector(
            L.heyting(NV["S"], NV["F"])))
        for (x, y, _) in rp.SUBTRACTION_TABLE:
            got = L.coheyting(NV[x], NV[y])
            lines.append("%s \\ %s = %s   (naive: %s)"
                         % (x, y, sp.format_vector(got),
                            sp.format_vector(sp.naive_subtraction(NV[x], NV[y]))))
        lines.append("Boolean core: %s"
                     % [sp.NAME_OF_VECTOR.get(v, sp.format_vector(v))
                        for v in core])
        lines.append("incomparable named pairs: %d"
                     % len(sp.incomparable_named_pairs()))
        payload = {"core": [sp.format_vector(v) for v in core]}
    elif args.topic == "coordinatization":
        D = sp.downset_lattice(NV.values(), sp.vec_leq)
        lines.append("downset lattice: %d elements, %d join irreducibles"
                     % (len(D.elements), len(D.join_irreducibles())))
        payload = {"size": len(D.elements),
                   "join": len(D.join_irreducibles())}
    else:
        raise UsageError("unknown lattice topic %r" % args.topic)
    _emit(args, payload, lines)
    return 0


def cmd_lindenbaum(args):
    G = _load_system(args.M)
    lind = lb.lindenbaum(G)
    lines = ["models: %d, lattice size: %d, join irreducibles: %d"
             % (len(lind.models), len(lind.lattice.elements),
                len(lind.lattice.join_irreducibles()))]
    payload = {"models": len(lind.models),
               "size": len(lind.lattice.elements)}
    if args.nuclei:
        nuclei = lb.enumerate_nuclei(lind.lattice)
        payload["nuclei"] = len(nuclei)
        lines.append("nuclei: %d" % len(nuclei))
    if args.symmetry:
        dich = lb.kernel_dichotomy_check(G)
        payload.update({"automorphisms": dich["group_size"],
                        "kernel": dich["kernel_size"],
                        "image": dich["image_size"],
                        "dichotomy": dich["verdict"]})
        lines.append("automorphisms: %d, kernel: %d, image: %d"
                     % (dich["group_size"], dich["kernel_size"],
                        dich["image_size"]))
        lines.append("kernel dichotomy: %s (structural reading agrees: %s)"
                     % (dich["verdict"], dich["agree"]))
    _emit(args, payload, lines)
    return 0


def cmd_topology(args):
    wanted = {"matrix": 1, "density": 1, "support": 2, "prefix": 2}
    if None in (args.M, args.N)[:wanted.get(args.topic, 0)]:
        raise UsageError("topology %s: missing argument" % args.topic)
    bounds = tp.SiteBounds(args.depth_bound, args.size_bound)
    lines = []
    payload = {}
    status = 0
    if args.topic == "matrix":
        G = _load_system(args.M)
        U = tp.MorphismUniverse(G, bounds)
        sieves = [("maximal", tp.maximal_sieve(U)),
                  ("paths", tp.path_sieve(U))]
        classes = [tp.PATHS, tp.TREES] + [
            tp.energy_class(sp.NAMED_VECTORS[n]) for n in ("T", "F", "B")]
        for (nm, S) in sieves:
            for C in classes:
                v = tp.is_covering(S, C, U)
                key = "%s/%s" % (nm, C.name)
                payload[key] = v.covering
                lines.append("%-28s %s%s" % (key,
                                             "covering" if v.covering
                                             else "not covering",
                                             " (truncated)" if v.truncated
                                             else ""))
    elif args.topic == "axioms":
        C = {"paths": tp.PATHS, "trees": tp.TREES}.get(args.cls)
        if C is None:
            raise UsageError("unknown class %r (paths, trees)" % args.cls)
        sample = [_load_system(s) for s in
                  (args.M.split("+") if args.M else
                   ["pathDigraph(1)", "pathDigraph(2)", "fan(2)", "twoCycle"])]
        rep = tp.grothendieck_axiom_check(C, sample, bounds, naive=args.naive)
        for ax in ("maximality", "stability", "transitivity"):
            lines.append("%s: %s" % (ax, "pass" if rep[ax] else "FAIL"))
        payload = {ax: rep[ax]
                   for ax in ("maximality", "stability", "transitivity")}
        status = 0 if all(payload.values()) else 1
    elif args.topic == "instability":
        # the witness applies tp.naive_covering to the sieve that
        # tp.generate_sieve builds from the right leg and to its
        # tp.sieve_pullback along the left leg
        wit = tp.naive_instability_witness(bounds)
        lines.append("sieve generated by the right leg: %d arrows, naive "
                     "covering: %s" % (wit["sieve_size"], wit["base_covering"]))
        lines.append("pullback along the left leg: %d arrows, naive "
                     "covering: %s" % (wit["pullback_size"],
                                       wit["pullback_covering"]))
        lines.append("identity excluded from the pullback: %s"
                     % (not wit["identity_in_pullback"]))
        payload = dict(wit)
        status = 0 if (wit["base_covering"]
                       and not wit["pullback_covering"]) else 1
    elif args.topic == "support":
        G = _load_system(args.M)
        words = sorted(tp.trace_support(G, int(args.N)))
        lines.append("support: %s" % ", ".join(repr(w) for w in words))
        payload = {"words": words}
    elif args.topic == "prefix":
        repc = tp.prefix_hom_check(args.M, args.N)
        lines.append("hom exists: %s (count %d), prefix: %s, law holds: %s"
                     % (repc["exists"], repc["count"], repc["prefix"],
                        repc["ok"]))
        payload = repc
        status = 0 if repc["ok"] else 1
    elif args.topic == "density":
        G = _load_system(args.M)
        v = tp.density_check(G, bounds)
        lines.append("chain-generated sieve trace-covering: %s" % v)
        payload = {"dense": v}
        status = 0 if v else 1
    else:
        raise UsageError("unknown topology topic %r" % args.topic)
    _emit(args, payload, lines)
    return status


def cmd_himp(args):
    G = _load_system(args.M)
    v = _state(G, args.v)
    phi = _formula(args.phi)
    psi = _formula(args.psi)
    fe = cl.free_extension(G, v, phi)
    verdict = cl.heyting_implication_presheaf(G, v, phi, psi)
    oracle = cl.brute_force_implication(G, v, phi, psi, G.n + 2)
    lines = [
        "implication at (%s, %s): %s" % (args.M, args.v, verdict),
        "free extension: %d states (%d fresh witnesses)"
        % (fe.extended.n, len(fe.witnesses)),
        "bounded oracle agrees: %s" % (verdict == oracle),
    ]
    payload = {"verdict": verdict, "oracle": oracle,
               "witnesses": len(fe.witnesses)}
    if args.regime:
        reg = cl.regime_classify(phi, psi)
        payload["regime"] = reg["regime"]
        payload["residual"] = str(reg["residual"])
        lines.append("regime: %s%s" % (reg["regime"],
                                       " (residual %s)" % reg["residual"]
                                       if reg["regime"] == "residual" else ""))
    if args.checks:
        mono = cl.monotonicity_check(phi) and cl.monotonicity_check(psi)
        adj = cl.adjunction_check(phi, psi, psi)
        neg = cl.negation_collapse_check(G, v, phi)
        payload.update({"monotone": mono, "adjunction": adj,
                        "negation_collapse": not neg["negation"]})
        lines.append("subfunctors monotone: %s, adjunction: %s, "
                     "negation collapses: %s"
                     % (mono, adj, not neg["negation"]))
    _emit(args, payload, lines)
    if verdict != oracle:
        return 1
    return 0 if verdict else 1


def cmd_unravel(args):
    G = _load_system(args.M)
    v = _state(G, args.v)
    tree, proj = hml.tree_unravel(G, v, args.d)
    lines = ["%d vertices: %s"
             % (tree.n, ", ".join(tree.name_of(i) for i in range(tree.n))),
             "clean tree: %s" % hml.tree_shape_checks(tree)]
    payload = {"vertices": [tree.name_of(i) for i in range(tree.n)],
               "projection": list(proj.mapping)}
    if args.formula:
        chi = hml.characteristic_formula(tree, 0, args.d)
        payload["characteristic"] = str(chi)
        lines.append("characteristic formula: %s" % chi)
        if G.alphabet == ("*",):
            st = geo.standard_translation(chi)
            payload["translation"] = str(st)
            lines.append("standard translation: %s" % st)
    _emit(args, payload, lines)
    return 0


def cmd_vanbenthem(args):
    rows = geo.vanbenthem_suite(args.d)
    lines = []
    ok = True
    for r in rows:
        ok = ok and r["ok"]
        kind = "invariant" if r["invariant"] else "separated"
        lines.append("%-26s %-10s %s" % (r["atom"], kind,
                                         "ok" if r["ok"] else "FAIL"))
    _emit(args, {"rows": rows, "ok": ok}, lines)
    return 0 if ok else 1


def cmd_show(args):
    G = _load_system(args.M)
    if args.format == "json":
        print(to_json(G))
    else:
        print(to_aut(G), end="")
    return 0


def cmd_report(args):
    if args.json:
        text, ok = rp.report_json()
    else:
        text, ok = rp.generate_report()
    print(text, end="")
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="spectrumlab")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, *specs, **flags):
        sp_ = sub.add_parser(name)
        for (nm, kw) in specs:
            sp_.add_argument(nm, **kw)
        for (nm, kw) in flags.get("options", ()):
            sp_.add_argument(nm, **kw)
        sp_.add_argument("--json", action="store_true")
        sp_.set_defaults(fn=fn)
        return sp_

    add("equiv", cmd_equiv, ("M", {}), ("N", {}),
        options=(("--level", {"default": "bisimulation"}),
                 ("--all", {"action": "store_true"}),
                 ("--witness", {"action": "store_true"}),
                 ("--functional", {"action": "store_true"})))
    add("distinguish", cmd_distinguish, ("M", {}), ("N", {}),
        options=(("--fragment", {"default": "diamondOnly"}),
                 ("--depth", {"type": int, "default": 2})))
    add("sigma", cmd_sigma, ("name", {}), ("M", {}),
        ("N", {"nargs": "?", "default": None}))
    add("lattice", cmd_lattice, ("topic", {}))
    add("lindenbaum", cmd_lindenbaum, ("M", {}),
        options=(("--nuclei", {"action": "store_true"}),
                 ("--symmetry", {"action": "store_true"})))
    add("topology", cmd_topology, ("topic", {}),
        ("M", {"nargs": "?", "default": None}),
        ("N", {"nargs": "?", "default": None}),
        options=(("--naive", {"action": "store_true"}),
                 ("--cls", {"default": "trees"}),
                 ("--depth-bound", {"type": int, "default": 2}),
                 ("--size-bound", {"type": int, "default": 4})))
    add("himp", cmd_himp, ("M", {}), ("v", {}), ("phi", {}), ("psi", {}),
        options=(("--regime", {"action": "store_true"}),
                 ("--checks", {"action": "store_true"})))
    add("unravel", cmd_unravel, ("M", {}), ("v", {}), ("d", {"type": int}),
        options=(("--formula", {"action": "store_true"}),))
    add("vanbenthem", cmd_vanbenthem, ("d", {"type": int}))
    add("show", cmd_show, ("M", {}),
        options=(("--format", {"default": "aut", "choices": ("aut", "json")}),))
    add("report", cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError, FileNotFoundError) as e:
        # ValueError covers ParseError and every rejected precondition
        print("error: %s" % e, file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print("error: budget exceeded: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
