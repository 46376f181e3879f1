import inspect
import json
import re
import subprocess
import sys

import pytest

from conftest import run_cli
from spectrumlab import cli, report
from spectrumlab.lts import catalog, to_aut, to_json


def test_equiv_levels():
    code, out, _ = run_cli("equiv", "P_abc", "Q", "--level", "trace")
    assert code == 0 and "trace: yes" in out
    code, out, _ = run_cli("equiv", "P_abc", "Q")
    assert code == 1 and "bisimilar: no" in out
    code, out, _ = run_cli("equiv", "hubSpokes", "twoCycle",
                           "--witness", "--functional")
    assert code == 0
    assert "bisimulation witness" in out and "quotient bridge" in out
    code, out, _ = run_cli("equiv", "P_abc", "Q", "--level", "depth:1")
    assert code == 0 and "formula oracle agrees: True" in out
    code, out, _ = run_cli("equiv", "P_abc", "Q", "--level", "depth:2")
    assert code == 1 and "formula oracle agrees: True" in out


def test_equiv_all_json():
    code, out, _ = run_cli("equiv", "P_abc", "Q", "--all", "--json")
    payload = json.loads(out)
    assert payload["trace"] is True and payload["bisimulation"] is False
    assert payload["depth2_oracle_agrees"] is True


def test_distinguish():
    code, out, _ = run_cli("distinguish", "Q", "P_abc")
    assert code == 0 and "formula:" in out
    code, out, _ = run_cli("distinguish", "P_abc", "Q",
                           "--fragment", "traceObs")
    assert code == 1


def test_sigma():
    code, out, _ = run_cli("sigma", "loop", "selfLoop")
    assert code == 0 and "holds" in out
    code, out, _ = run_cli("sigma", "loop", "twoCycle")
    assert code == 1
    code, out, _ = run_cli("sigma", "bridge", "diamond")
    assert code == 0
    code, out, _ = run_cli("sigma", "separate", "selfLoop", "twoCycle")
    assert code == 0 and "loop" in out
    code, out, _ = run_cli("sigma", "custom",
                           "D(x,y) & D(x,z) |- y = z", "selfLoop")
    assert code == 0
    code, out, _ = run_cli("sigma", "nosuch", "selfLoop")
    assert code == 2


def test_lattice():
    code, out, _ = run_cli("lattice", "closure")
    assert code == 0 and "30 elements (13 named, 17 unnamed), rounds=3" in out
    code, out, _ = run_cli("lattice", "irreducibles", "--json")
    payload = json.loads(out)
    assert payload["join"] == 10 and payload["meet"] == 10
    code, out, _ = run_cli("lattice", "biheyting")
    assert code == 0 and "Boolean core" in out
    code, out, _ = run_cli("lattice", "coordinatization", "--json")
    payload = json.loads(out)
    assert payload["join"] == 13


def test_lindenbaum():
    code, out, _ = run_cli("lindenbaum", "hubSpokes",
                           "--nuclei", "--symmetry", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["models"] == 3 and payload["size"] == 5
    assert payload["nuclei"] == 8
    assert payload["kernel"] == 1 and payload["image"] == 2


def test_lindenbaum_symmetry_searches_once(monkeypatch):
    from spectrumlab import lindenbaum as lb
    calls = []
    search = lb.automorphisms
    monkeypatch.setattr(lb, "automorphisms",
                        lambda G: calls.append(G) or search(G))
    lb.symmetry_hom.cache_clear()  # an earlier test may have filled it
    code, out, _ = run_cli("lindenbaum", "twoCycle", "--symmetry")
    assert code == 0 and len(calls) == 1
    assert "automorphisms: 2, kernel: 2, image: 1" in out
    assert "kernel dichotomy: maximal (structural reading agrees: True)" in out


def test_topology():
    code, out, _ = run_cli("topology", "matrix", "fan(2)")
    assert code == 0 and "covering" in out
    code, out, _ = run_cli("topology", "instability")
    assert code == 0 and "naive covering: True" in out
    code, out, _ = run_cli("topology", "support", "Q", "2", "--json")
    payload = json.loads(out)
    assert payload["words"] == ["", "a", "ab", "ac"]
    code, out, _ = run_cli("topology", "prefix", "ab", "abab")
    assert code == 0 and "law holds: True" in out
    code, out, _ = run_cli("topology", "density", "fanLTS(ab,ac)")
    assert code == 0


def test_himp():
    code, out, _ = run_cli("himp", "Q", "q0", "<a>T", "<a>T",
                           "--regime", "--checks")
    assert code == 0
    assert "bounded oracle agrees: True" in out
    assert "regime: entailment" in out
    code, out, _ = run_cli("himp", "Q", "q0", "<a>T", "<b>T")
    assert code == 1
    code, out, _ = run_cli("himp", "Q", "q0", "<a>T |", "<b>T")
    assert code == 2


def test_unravel():
    code, out, _ = run_cli("unravel", "diamond", "a", "2", "--formula")
    assert code == 0
    for nm in ("ε", "bd", "cd"):
        assert nm in out
    assert "standard translation" in out


def test_vanbenthem():
    for d in ("0", "1", "2"):
        code, out, _ = run_cli("vanbenthem", d)
        assert code == 0 and "FAIL" not in out


def test_show_roundtrip(tmp_path):
    code, out, _ = run_cli("show", "Q")
    assert code == 0 and out == to_aut(catalog("Q"))
    path = tmp_path / "q.json"
    path.write_text(to_json(catalog("Q")))
    code, out, _ = run_cli("show", str(path), "--format", "json")
    assert code == 0 and json.loads(out) == json.loads(to_json(catalog("Q")))


def test_usage_errors():
    code, _, err = run_cli("equiv", "nosuch", "Q")
    assert code == 2 and "unknown system" in err
    code, _, err = run_cli("equiv", "P_abc", "Q", "--level", "nope")
    assert code == 2
    code, _, err = run_cli("topology", "support", "Q", "x")
    assert code == 2
    assert err == ("error: topology support: length must be an integer, "
                   "not 'x'\n")


# used and limit: 30 free atoms (24), 12 states (10), 10 base states (8),
# 50003 lattice elements (50000): the 7-edge star's up-sets number about
# 2.4e12, so only the lattice cap stops the enumeration; under
# SPECTRUM_BUDGET=3, 4 hom candidates (3): a hom search reports one past
# its limit
_BUDGET_NUMBERS = {
    ("lindenbaum", "fan(30)"): (30, 24),
    ("lindenbaum", "fan(7)"): (50003, 50000),
    ("lindenbaum", "pathDigraph(11)", "--symmetry"): (12, 10),
    ("himp", "pathDigraph(9)", "0", "<*>T", "<*>T"): (10, 8),
    ("topology", "prefix", "ab", "abb"): (4, 3),
}

_BAD_JSON = {
    "undeclared_state.json": {"transitions": [["a", "x", "zz"]]},
    "undeclared_label.json": {"transitions": [["a", "y", "b"]]},
    # edges and state() would resolve the second "a" differently
    "repeated_state.json": {"states": ["a", "b", "a"],
                            "transitions": [["a", "x", "b"]]},
}


@pytest.mark.parametrize("argv,code", [
    (["himp", "Q", "q0", "<a T", "<a>T"], 2),
    (["himp", "Q", "q0", "[a T", "<a>T"], 2),
    (["sigma", "custom", "D(x,c_zz) |- T", "Q"], 2),
    (["equiv", "P_abc", "Q", "--level", "depth:abc"], 2),
    (["equiv", "P_abc", "Q", "--level", "depth:"], 2),
    (["distinguish", "Q", "P_abc", "--depth", "4"], 2),
    (["show", "undeclared_state.json"], 2),
    (["show", "undeclared_label.json"], 2),
    (["lindenbaum", "fan(30)"], 3),
    (["lindenbaum", "pathDigraph(11)", "--symmetry"], 3),
    (["himp", "pathDigraph(9)", "0", "<*>T", "<*>T"], 3),
    (["lindenbaum", "fan(7)"], 3),
    (["sigma", "custom", "T |- D(c_a,c_b)", "repeated_state.json"], 2),
    (["unravel", "repeated_state.json", "a", "1"], 2),
    (["distinguish", "Q", "P_abc", "--fragment", "bogus"], 2),
    (["topology", "matrix"], 2),
    (["topology", "density"], 2),
    (["topology", "support", "Q"], 2),
    (["topology", "prefix", "ab"], 2),
    (["topology", "axioms", "--cls", "bogus"], 2),
    (["distinguish", "Q", "P_abc", "--depth", "-1"], 2),
    (["equiv", "P_abc", "Q", "--level", "depth:-1"], 2),
    (["unravel", "Q", "q0", "-1"], 2),
    (["topology", "support", "Q", "-1"], 2),
    (["topology", "support", "Q", "x"], 2),
    (["lindenbaum", "fan(-1)"], 2),
    (["lindenbaum", "pathDigraph(-1)"], 2),
    (["lindenbaum", "fan(x)"], 2),
    (["lindenbaum", "fan()"], 2),
    (["lindenbaum", "fan(1,2)"], 2),
    (["lindenbaum", "fanLTS(a)"], 2),
    (["sigma", "custom", "D(x,&) |- D(&,x)", "Q"], 2),
])
def test_errors_are_not_verdicts(tmp_path, argv, code):
    # an error or an exhausted budget never reads as "property fails"
    for name, fields in _BAD_JSON.items():
        (tmp_path / name).write_text(json.dumps(
            dict({"states": ["a", "b"], "alphabet": ["x"], "root": "a"},
                 **fields)))
    argv = [str(tmp_path / a) if a in _BAD_JSON else a for a in argv]
    if argv in (["topology", "matrix"], ["lindenbaum", "fan(30)"]):
        # pin the `python -m` entry point and sys.exit(main()), once per code
        proc = subprocess.run([sys.executable, "-m", "spectrumlab.cli", *argv],
                              capture_output=True, text=True, timeout=30)
        got, err = proc.returncode, proc.stderr
    else:
        got, _, err = run_cli(*argv)
    assert got == code
    assert "Traceback" not in err
    assert err.startswith("error: ")
    # an exhausted budget says how much was asked for, and the limit
    for number in _BUDGET_NUMBERS.get(tuple(argv), ()):
        assert re.search(r"\b%d\b" % number, err), number
    # a malformed family argument names the family and what it takes
    if argv == ["lindenbaum", "fan(x)"]:
        assert err == "error: fan takes one integer k >= 0, got 'x'\n"
    if argv[:2] == ["sigma", "custom"] and "&" in argv[2]:
        assert err == "error: expected an identifier, got '&'\n"


def test_directory_as_system_is_a_usage_error(tmp_path):
    # a path that exists but cannot be read as a file is not "property fails"
    for argv in (["show", str(tmp_path)], ["equiv", str(tmp_path), "Q"]):
        code, _, err = run_cli(*argv)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


def test_hom_budget_names_amount_and_limit(monkeypatch):
    # the hom search counts every state of the target per extended
    # assignment, so a set budget stops it where it always did
    monkeypatch.setenv("SPECTRUM_BUDGET", "3")
    argv = ("topology", "prefix", "ab", "abb")
    code, _, err = run_cli(*argv)
    assert code == 3 and err.startswith("error: budget exceeded: ")
    for number in _BUDGET_NUMBERS[argv]:
        assert re.search(r"\b%d\b" % number, err), number


@pytest.mark.parametrize("budget", ["-1", "abc", "1.5", ""])
def test_bad_budget_is_a_usage_error_naming_the_variable(monkeypatch, budget):
    monkeypatch.setenv("SPECTRUM_BUDGET", budget)
    code, out, err = run_cli("topology", "prefix", "ab", "abb")
    assert (code, out) == (2, "")
    assert err.startswith("error: SPECTRUM_BUDGET must be a non-negative "
                          "integer"), err


def test_zero_budget_is_a_budget(monkeypatch):
    monkeypatch.setenv("SPECTRUM_BUDGET", "0")
    code, _, err = run_cli("topology", "prefix", "ab", "abb")
    assert code == 3 and err.startswith("error: budget exceeded: "), err


def test_topology_support_multi_character_labels(tmp_path):
    # a label is an atom: "go" is one step, not the letters g and o
    path = tmp_path / "gostop.json"
    path.write_text(json.dumps({
        "states": ["s", "t", "u", "v"], "alphabet": ["go", "stop"],
        "root": "s", "transitions": [["s", "go", "t"], ["t", "go", "u"],
                                     ["t", "stop", "v"]]}))
    code, out, err = run_cli("topology", "support", str(path), "2")
    assert code == 0, err
    assert "support: '', 'go', 'gogo', 'gostop'" in out


def test_cli_surface_mentions_core_operations():
    # the command surface must reach every core operation by name
    src = inspect.getsource(cli) + inspect.getsource(report)
    names = [
        "decide", "d_equivalent", "d_equivalence_oracle",
        "greatest_bisimulation", "simulation_preorder",
        "functional_bisim_search", "bi_interpretation_search",
        "quotient_bridge_check", "distinguishing_formula",
        "semantic_bridge_check", "generate_theory",
        "topos_separation_certificate", "named_sigma", "eval_sequent",
        "spectrum_lattice", "join_irreducibles", "heyting", "coheyting",
        "naive_subtraction", "downset_lattice", "incomparable_named_pairs",
        "lindenbaum", "enumerate_nuclei", "symmetry_hom",
        "kernel_dichotomy_check", "automorphisms",
        "generate_sieve", "sieve_pullback", "is_covering", "naive_covering",
        "grothendieck_axiom_check", "naive_instability_witness",
        "trace_support", "prefix_hom_check", "density_check",
        "free_extension", "heyting_implication_presheaf",
        "brute_force_implication", "regime_classify", "monotonicity_check",
        "adjunction_check", "negation_collapse_check",
        "tree_unravel", "characteristic_formula", "standard_translation",
        "vanbenthem_suite", "to_aut", "to_json", "parse_aut", "from_json",
    ]
    missing = [n for n in names if n not in src]
    assert not missing, missing
