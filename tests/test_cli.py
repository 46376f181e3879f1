import inspect
import json
import os
import re
import subprocess
import sys

import pytest

import spectrumlab
from spectrumlab import cli, report
from spectrumlab.lts import catalog, to_aut, to_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_equiv_levels(capsys):
    code, out, _ = run(capsys, "equiv", "P_abc", "Q", "--level", "trace")
    assert code == 0 and "trace: yes" in out
    code, out, _ = run(capsys, "equiv", "P_abc", "Q")
    assert code == 1 and "bisimilar: no" in out
    code, out, _ = run(capsys, "equiv", "hubSpokes", "twoCycle",
                       "--witness", "--functional")
    assert code == 0
    assert "bisimulation witness" in out and "quotient bridge" in out
    code, out, _ = run(capsys, "equiv", "P_abc", "Q", "--level", "depth:1")
    assert code == 0 and "formula oracle agrees: True" in out
    code, out, _ = run(capsys, "equiv", "P_abc", "Q", "--level", "depth:2")
    assert code == 1 and "formula oracle agrees: True" in out


def test_equiv_all_json(capsys):
    code, out, _ = run(capsys, "equiv", "P_abc", "Q", "--all", "--json")
    payload = json.loads(out)
    assert payload["trace"] is True and payload["bisimulation"] is False
    assert payload["depth2_oracle_agrees"] is True


def test_distinguish(capsys):
    code, out, _ = run(capsys, "distinguish", "Q", "P_abc")
    assert code == 0 and "formula:" in out
    code, out, _ = run(capsys, "distinguish", "P_abc", "Q",
                       "--fragment", "traceObs")
    assert code == 1


def test_sigma(capsys):
    code, out, _ = run(capsys, "sigma", "loop", "selfLoop")
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "sigma", "loop", "twoCycle")
    assert code == 1
    code, out, _ = run(capsys, "sigma", "bridge", "diamond")
    assert code == 0
    code, out, _ = run(capsys, "sigma", "separate", "selfLoop", "twoCycle")
    assert code == 0 and "loop" in out
    code, out, _ = run(capsys, "sigma", "custom",
                       "D(x,y) & D(x,z) |- y = z", "selfLoop")
    assert code == 0
    code, out, _ = run(capsys, "sigma", "nosuch", "selfLoop")
    assert code == 2


def test_lattice(capsys):
    code, out, _ = run(capsys, "lattice", "closure")
    assert code == 0 and "30 elements (13 named, 17 unnamed), rounds=3" in out
    code, out, _ = run(capsys, "lattice", "irreducibles", "--json")
    payload = json.loads(out)
    assert payload["join"] == 10 and payload["meet"] == 10
    code, out, _ = run(capsys, "lattice", "biheyting")
    assert code == 0 and "Boolean core" in out
    code, out, _ = run(capsys, "lattice", "coordinatization", "--json")
    payload = json.loads(out)
    assert payload["join"] == 13


def test_lindenbaum(capsys):
    code, out, _ = run(capsys, "lindenbaum", "hubSpokes",
                       "--nuclei", "--symmetry", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["models"] == 3 and payload["size"] == 5
    assert payload["nuclei"] == 8
    assert payload["kernel"] == 1 and payload["image"] == 2


def test_lindenbaum_symmetry_searches_once(capsys, monkeypatch):
    from spectrumlab import lindenbaum as lb
    calls = []
    search = lb.automorphisms
    monkeypatch.setattr(lb, "automorphisms",
                        lambda G: calls.append(G) or search(G))
    code, out, _ = run(capsys, "lindenbaum", "twoCycle", "--symmetry")
    assert code == 0 and len(calls) == 1
    assert "automorphisms: 2, kernel: 2, image: 1" in out
    assert "kernel dichotomy: maximal (structural reading agrees: True)" in out


def test_topology(capsys):
    code, out, _ = run(capsys, "topology", "matrix", "fan(2)")
    assert code == 0 and "covering" in out
    code, out, _ = run(capsys, "topology", "instability")
    assert code == 0 and "naive covering: True" in out
    code, out, _ = run(capsys, "topology", "support", "Q", "2", "--json")
    payload = json.loads(out)
    assert payload["words"] == ["", "a", "ab", "ac"]
    code, out, _ = run(capsys, "topology", "prefix", "ab", "abab")
    assert code == 0 and "law holds: True" in out
    code, out, _ = run(capsys, "topology", "density", "fanLTS(ab,ac)")
    assert code == 0


def test_himp(capsys):
    code, out, _ = run(capsys, "himp", "Q", "q0", "<a>T", "<a>T",
                       "--regime", "--checks")
    assert code == 0
    assert "bounded oracle agrees: True" in out
    assert "regime: entailment" in out
    code, out, _ = run(capsys, "himp", "Q", "q0", "<a>T", "<b>T")
    assert code == 1
    code, out, _ = run(capsys, "himp", "Q", "q0", "<a>T |", "<b>T")
    assert code == 2


def test_unravel(capsys):
    code, out, _ = run(capsys, "unravel", "diamond", "a", "2", "--formula")
    assert code == 0
    for nm in ("ε", "bd", "cd"):
        assert nm in out
    assert "standard translation" in out


def test_vanbenthem(capsys):
    for d in ("0", "1", "2"):
        code, out, _ = run(capsys, "vanbenthem", d)
        assert code == 0 and "FAIL" not in out


def test_show_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "show", "Q")
    assert code == 0 and out == to_aut(catalog("Q"))
    path = tmp_path / "q.json"
    path.write_text(to_json(catalog("Q")))
    code, out, _ = run(capsys, "show", str(path), "--format", "json")
    assert code == 0 and json.loads(out) == json.loads(to_json(catalog("Q")))


def test_usage_errors(capsys):
    code, _, err = run(capsys, "equiv", "nosuch", "Q")
    assert code == 2 and "unknown system" in err
    code, _, err = run(capsys, "equiv", "P_abc", "Q", "--level", "nope")
    assert code == 2


# used and limit: 30 free atoms (24), 12 states (10), 10 base states (8),
# 50003 lattice elements (50000): the 7-edge star's up-sets number about
# 2.4e12, so only the lattice cap stops the enumeration
_BUDGET_NUMBERS = {
    ("lindenbaum", "fan(30)"): (30, 24),
    ("lindenbaum", "fan(7)"): (50003, 50000),
    ("lindenbaum", "pathDigraph(11)", "--symmetry"): (12, 10),
    ("himp", "pathDigraph(9)", "0", "<*>T", "<*>T"): (10, 8),
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
])
def test_errors_are_not_verdicts(tmp_path, argv, code):
    # an error or an exhausted budget never reads as "property fails"
    for name, fields in _BAD_JSON.items():
        (tmp_path / name).write_text(json.dumps(
            dict({"states": ["a", "b"], "alphabet": ["x"], "root": "a"},
                 **fields)))
    argv = [str(tmp_path / a) if a in _BAD_JSON else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(spectrumlab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "spectrumlab.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    # an exhausted budget says how much was asked for, and the limit
    for number in _BUDGET_NUMBERS.get(tuple(argv), ()):
        assert re.search(r"\b%d\b" % number, proc.stderr), number


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
