import contextlib
import gc
import io
import signal

import pytest

from spectrumlab import cli, hml

# Every test's call fails once it has run this long: more than 10x the
# slowest test (5-8 s), so that a hang fails one test and never decides a
# passing run.
TEST_TIME_LIMIT_S = 120

# Per session, the nodeids of the tests interrupted so far.  Once a second
# one is, the run stops and prints its summary: every further test of a
# hang would cost the limit again, up to the CI job's own limit.
_INTERRUPTED = pytest.StashKey[list]()


class _PastTimeLimit(BaseException):
    """Raised by SIGALRM in the running test; BaseException, so that no
    `except Exception` in the code under test swallows it."""


def _past_time_limit(signum, frame):
    raise _PastTimeLimit(frame.f_code.co_name)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Run the test under an alarm.  Past the limit, fail it by message
    only: pytest cannot render the frame the signal interrupted (its
    tb_lineno is None on Python 3.11).  The second such test stops the
    session."""
    previous = signal.signal(signal.SIGALRM, _past_time_limit)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        return (yield)
    except _PastTimeLimit as e:
        where = e.args[0]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    interrupted = item.session.stash.setdefault(_INTERRUPTED, [])
    interrupted.append(item.nodeid)
    if len(interrupted) >= 2:
        item.session.shouldstop = ("%d tests ran past %d s: %s"
                                   % (len(interrupted), TEST_TIME_LIMIT_S,
                                      ", ".join(interrupted)))
    pytest.fail("test ran past %d s, interrupted in %s()"
                % (TEST_TIME_LIMIT_S, where), pytrace=False)


def pytest_terminal_summary(terminalreporter):
    """Test seconds per file (set-up, call and teardown), slowest first."""
    seconds = {}
    for reports in terminalreporter.stats.values():
        for report in reports:
            if isinstance(report, pytest.TestReport):
                path = report.nodeid.split("::")[0]
                seconds[path] = seconds.get(path, 0) + report.duration
    if seconds:
        terminalreporter.write_sep("-", "test seconds per file")
        for path in sorted(seconds, key=lambda p: (-seconds[p], p)):
            terminalreporter.write_line("%8.2f  %s" % (seconds[path], path))
        terminalreporter.write_line("%8.2f  in all" % sum(seconds.values()))


def _cyclic_garbage_after(call):
    """What the cyclic collector finds after call(), run with the collector
    off; a warm-up call first keeps one-time caches out of the count."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def run_cli(*argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process; only
    argparse's SystemExit is caught, so an escaping error fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def holds_by_isinstance(G, s, phi):
    """Pointwise satisfaction by an isinstance chain: the oracle for
    hml.extension.  A label outside the alphabet has no moves."""
    if isinstance(phi, hml.Top):
        return True
    if isinstance(phi, hml.Bot):
        return False
    if isinstance(phi, hml.And):
        return (holds_by_isinstance(G, s, phi.left)
                and holds_by_isinstance(G, s, phi.right))
    if isinstance(phi, hml.Or):
        return (holds_by_isinstance(G, s, phi.left)
                or holds_by_isinstance(G, s, phi.right))
    if isinstance(phi, hml.Diamond):
        return any(holds_by_isinstance(G, t, phi.body)
                   for t in G.moves(s).get(phi.label, ()))
    if isinstance(phi, hml.Box):
        return all(holds_by_isinstance(G, t, phi.body)
                   for t in G.moves(s).get(phi.label, ()))
    if isinstance(phi, hml.Neg):
        return not holds_by_isinstance(G, s, phi.body)
    raise TypeError(phi)
