"""Property test of the command surface: whatever the arguments, the CLI
answers with a documented exit status (0 holds, 1 fails, 2 usage or parse
error, 3 budget exceeded) and never with a traceback.

Inputs are drawn from small pools so that every example runs in well under
a second: catalog systems except U (whose Lindenbaum algebra alone takes tens
of seconds), parametric systems with small numbers, little .aut/.json files,
and formulas and sequents from a grammar mixed with raw junk text."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import run_cli
from spectrumlab.lts import catalog_names

LABELS = ("a", "b", "c", "*", "x")

CATALOG = [n for n in catalog_names() if n != "U"]

_num = st.integers(-1, 4).map(str)
_word = st.text("abc*", max_size=3)

_parametric = st.one_of(
    st.builds("pathDigraph({})".format, _num),
    st.builds("fan({})".format, _num),
    st.builds("traceLTS({})".format, _word),
    st.builds("fanLTS({},{})".format, _word, _word),
    st.sampled_from(["fan()", "fan(x)", "selfLoop(1)", "nosuch", "fan(1,2)"]),
)


def _aut_text(draw):
    n = draw(st.integers(1, 4))
    edges = draw(st.lists(st.tuples(st.integers(0, n), st.sampled_from(LABELS),
                                    st.integers(0, n)), max_size=5))
    declared = draw(st.sampled_from([len(edges), len(edges) + 1]))
    lines = ["des (%d,%d,%d)" % (draw(st.integers(0, n)), declared, n)]
    lines += ['(%d,"%s",%d)' % e for e in edges]
    return "\n".join(lines) + "\n"


def _json_text(draw):
    states = draw(st.lists(st.sampled_from(["p", "q", "r", "s", 0]),
                           min_size=1, max_size=4, unique=True))
    labels = st.sampled_from(LABELS + (1, None, ["a"]))  # not all text
    alphabet = draw(st.lists(labels, max_size=3, unique_by=repr))
    endpoint = st.sampled_from(states + ["zz"])
    edges = draw(st.lists(st.tuples(endpoint, labels, endpoint).map(list),
                          max_size=5))
    obj = {"states": states, "alphabet": alphabet,
           "root": draw(st.sampled_from(states + ["zz"])),
           "transitions": edges}
    if draw(st.booleans()):
        del obj[draw(st.sampled_from(sorted(obj)))]
    return json.dumps(obj)


@st.composite
def _files(draw):
    """A pair of (file name, text): a small .aut or .json system, well
    formed or not."""
    kind = draw(st.sampled_from([".aut", ".json"]))
    if draw(st.integers(0, 5)) == 0:
        text = draw(st.text("des(),\"0123abc{}[]: \n", max_size=30))
    elif kind == ".aut":
        text = _aut_text(draw)
    else:
        text = _json_text(draw)
    return "sys" + kind, text


_system = st.one_of(st.sampled_from(CATALOG), _parametric, st.just("FILE"))


def _formula_grammar():
    leaf = st.sampled_from(["T", "F"])

    def extend(inner):
        label = st.sampled_from(LABELS)
        return st.one_of(
            st.builds("<{}>{}".format, label, inner),
            st.builds("[{}]{}".format, label, inner),
            st.builds("!{}".format, inner),
            st.builds("({} & {})".format, inner, inner),
            st.builds("({} | {})".format, inner, inner))
    return st.recursive(leaf, extend, max_leaves=3)


def _positive_grammar():
    """T / & / <a>: the fragment the implication commands accept."""
    def extend(inner):
        return st.one_of(
            st.builds("<{}>{}".format, st.sampled_from("ab*"), inner),
            st.builds("({} & {})".format, inner, inner))
    return st.recursive(st.just("T"), extend, max_leaves=3)


_formula = st.one_of(_positive_grammar(), _positive_grammar(),
                     _formula_grammar(),
                     st.text("<>[]()&|!TFab* ", max_size=8))

# a system with one of its state names (or a name it lacks)
_pointed = st.sampled_from([
    ("selfLoop", "a"), ("path", "x"), ("path", "y"), ("Q", "q0"),
    ("Q", "q1"), ("fork", "a"), ("traceLTS(ab)", "0"), ("fan(2)", "r"),
    ("pathDigraph(2)", "1"), ("twoCycle", "y"), ("FILE", "0"),
    ("FILE", "p"), ("Q", "zz")])


def _sequent_grammar():
    term = st.sampled_from(["x", "y", "c_a", "c_0", "c_zz"])
    atom = st.one_of(
        st.builds("{}({},{})".format, st.sampled_from("DGT"), term, term),
        st.builds("{} = {}".format, term, term),
        st.sampled_from(["T", "F"]))

    def extend(inner):
        return st.one_of(st.builds("{} & {}".format, inner, inner),
                         st.builds("({} | {})".format, inner, inner),
                         st.builds("E y. {}".format, inner))
    side = st.recursive(atom, extend, max_leaves=3)
    return st.builds("{} |- {}".format, side, side)


_sequent = st.one_of(_sequent_grammar(), st.text("DGT(),=|-&xy. ",
                                                 max_size=12))


def _flags(*names):
    return st.lists(st.sampled_from(names), unique=True, max_size=2)


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["equiv", "distinguish", "sigma", "lattice",
                                "lindenbaum", "topology", "himp", "unravel",
                                "vanbenthem", "show", "bogus"]))
    sys_ = lambda: draw(_system)  # noqa: E731
    if cmd == "equiv":
        argv = [cmd, sys_(), sys_()]
        argv += draw(_flags("--all", "--witness", "--functional", "--json"))
        if draw(st.booleans()):
            argv += ["--level", draw(st.sampled_from(
                ["trace", "failures", "sim", "bisim", "readySim",
                 "enabledness", "depth:0", "depth:2", "depth:x", "depth:",
                 "nope"]))]
    elif cmd == "distinguish":
        argv = [cmd, sys_(), sys_(), "--depth", draw(_num), "--fragment",
                draw(st.sampled_from(["diamondOnly", "traceObs", "ready",
                                      "full", "positiveExistential",
                                      "bogus"]))]
    elif cmd == "sigma":
        name = draw(st.sampled_from(["tot", "det", "conf", "loop", "bridge",
                                     "theory", "separate", "custom", "nope"]))
        first = draw(_sequent) if name == "custom" else sys_()
        argv = [cmd, name, first] + draw(st.lists(_system, max_size=1))
    elif cmd == "lattice":
        argv = [cmd, draw(st.sampled_from(["closure", "irreducibles",
                                           "biheyting", "coordinatization",
                                           "nope"]))]
    elif cmd == "lindenbaum":
        argv = [cmd, sys_()] + draw(_flags("--nuclei", "--symmetry"))
    elif cmd == "topology":
        topic = draw(st.sampled_from(["matrix", "support", "prefix",
                                      "density", "instability", "nope"]))
        argv = [cmd, topic]
        if topic == "prefix":
            argv += [draw(_word), draw(_word)]
        elif topic == "support":
            argv += [sys_(), draw(st.sampled_from(["0", "2", "x", "-1"]))]
        elif topic != "instability":
            argv += [sys_()]
        argv += ["--depth-bound", draw(st.sampled_from(["0", "1", "2", "2"])),
                 "--size-bound", draw(st.sampled_from(["0", "1", "3", "3"]))]
    elif cmd == "himp":
        argv = [cmd, *draw(_pointed), draw(_formula), draw(_formula)]
        argv += draw(_flags("--regime", "--checks"))
    elif cmd == "unravel":
        argv = [cmd, *draw(_pointed),
                draw(st.sampled_from(["-1", "0", "1", "2", "x"]))]
        argv += draw(_flags("--formula"))
    elif cmd == "vanbenthem":
        argv = [cmd, draw(_num)]
    elif cmd == "show":
        argv = [cmd, sys_(), "--format", draw(st.sampled_from(["aut",
                                                               "json"]))]
    else:
        argv = [cmd]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(argv=_argv(), file=_files())
def test_cli_answers_with_a_documented_exit_status(tmp_path, argv, file):
    name, text = file
    path = tmp_path / name
    path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = run_cli(*argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err + out
    if code in (2, 3) and not err.startswith("usage:"):
        assert err.startswith("error: "), err


@st.composite
def _negative_bound(draw):
    """A bounded command with its bound drawn below the documented range,
    and that bound."""
    n = str(draw(st.integers(-10**6, -1)))
    system = lambda: draw(st.sampled_from(CATALOG))  # noqa: E731
    family = "%s(%s)" % (draw(st.sampled_from(["fan", "pathDigraph"])), n)
    argv = draw(st.sampled_from([
        ["unravel", *draw(st.sampled_from([
            ("selfLoop", "a"), ("Q", "q1"), ("diamond", "b"), ("fan(2)", "r"),
            ("traceLTS(ab)", "0")])), n],
        ["topology", "support", system(), n],
        ["distinguish", system(), system(), "--depth", n],
        ["equiv", system(), system(), "--level", "depth:" + n],
        ["lindenbaum", family],
        ["equiv", system(), family],
    ]))
    return argv, n


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_negative_bound())
def test_negative_bounds_exit_2_with_one_error_line(case):
    argv, n = case
    code, out, err = run_cli(*argv)
    assert code == 2, (argv, code, out, err)
    assert out == ""
    # one error line, and it is about the bound: it ends with the number
    assert err.startswith("error: ") and err.endswith(", not %s\n" % n), \
        (argv, err)
    assert err.count("\n") == 1
