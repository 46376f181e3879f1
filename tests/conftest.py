import contextlib
import gc
import io

from spectrumlab import cli, hml


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
