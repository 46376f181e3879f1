"""Write ``perfbench/expected.json``: the outputs the benchmark compares
against.  Run it only on a commit whose outputs are known to be right; the
committed file was written on the seed code, where every report row is PASS
except criterion 8's "Lindenbaum size of R6" row, recorded red as computed.

    python3 perfbench/record_expected.py
"""

import json
import random
from types import SimpleNamespace

from run import ROOT, load_spectrumlab  # also puts src/ on sys.path
from perfbench import gen, workloads as wl


def main():
    modules = load_spectrumlab()
    sl = SimpleNamespace(**modules)
    lb, eq, lts = sl.lindenbaum, sl.equivalences, sl.lts
    rows = {}
    for k in (1, 2, 3, 4, 5, 6, 7, 8, 12):
        _, got = getattr(sl.report, "criterion_%d" % k)()
        rows[str(k)] = [list(r) for r in got]
    signatures = {
        name: [G.n, len(lb.lindenbaum(G).lattice.elements),
               len(lb.automorphisms(G)), sorted(eq.bounded_traces(G, 3))]
        for name, G in sorted(lts.catalog_systems().items()) if name != "U"}
    rng = random.Random(0)
    sizes = {
        ",".join(map(str, p)): len(lb.lindenbaum(lts.FinLTS(
            *gen.profiled_system(rng, p, wl.LATTICE_STATES))).lattice.elements)
        for p in wl.LATTICE_PROFILES}
    expected = {"report_rows": rows, "signatures": signatures,
                "lattice_sizes": sizes,
                "sieve_rows": wl.sieve_rows(sl, wl.criterion_10_sample(lts))}
    (ROOT / "perfbench" / "expected.json").write_text(
        json.dumps(expected, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
