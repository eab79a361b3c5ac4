"""Paper-scale guards on memory and CSV bytes, run by CI after the test suite.

Usage (from the repo root; no argument runs both guards, sweep first):

    PYTHONPATH=src python tests/ci_guards.py [sweep] [read]

Exits 1 if any guard fails. The file has no ``test_`` prefix, so pytest
does not collect it: both guards take about 20 s on a 2-core machine.

sweep
    Paper-scale fig2 and fig3 sweeps (n=5000, 30 days; 1 iteration over
    all 144 slots) never hold the 30-day series, and every estimator
    answers at most 2^15 SBS x slot rows at once (fig2 holds one weighted
    cumsum per exponent), so the peak RSS of both stays under 200 MB.
    Their CSV bytes are pinned too: the only pins on paper-scale MLC
    (k = 3, cells of up to 5000 SBSs), recorded before the sorted-run
    Lloyd steps replaced the per-step argsort.
read
    Reading a 5000-SBS x 1-day loads CSV (20 MB) holds the parsed rows and
    the series, not a dict entry per cell: about 40 MB under tracemalloc
    with numpy 2.4, where the dict reader took 217 MB.
"""

import hashlib
import json
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

from cellsleep.cli import main
from cellsleep.dataio import read_loads_csv

PAPER_CSV_SHA256 = {
    "fig2": "945397e907444625da2aecf7238d3aa9cf804eaadf54fb102571f319268801b3",
    "fig3": "5528a5b477e249d89f6c3f737b0ad4d284a6a524d62e606e1d2c2a64510e096b",
}


def sweep_guard() -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "paper_full_day.json"
        config.write_text(json.dumps({"experiment": {"n_iterations": 1, "slot_stride": 1}}))
        codes = [main(["sweep", "--experiment", e, "--profile", "paper",
                       "--config", str(config), "--out", tmp]) for e in PAPER_CSV_SHA256]
        digests = {e: hashlib.sha256((Path(tmp) / f"{e}_paper_0.csv").read_bytes()).hexdigest()
                   for e in PAPER_CSV_SHA256}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"paper fig2, fig3 sweeps: exit {codes}, peak RSS {peak_mb:.0f} MB (limit 200)")
    moved = [e for e in PAPER_CSV_SHA256 if digests[e] != PAPER_CSV_SHA256[e]]
    print(f"paper CSV sha256: {digests}; moved: {moved or 'none'}")
    return not (any(codes) or peak_mb > 200 or moved)


def read_guard() -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["synth", "--n-sbs", "5000", "--grid-side", "100", "--days", "1", "--out", tmp])
        tracemalloc.start()
        series = read_loads_csv(Path(tmp) / "loads.csv")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    peak_mb = peak / 1e6
    print(f"{series.n_sbs} x {series.n_slots} loads CSV read: synth exit {code}, "
          f"tracemalloc peak {peak_mb:.0f} MB (limit 50)")
    return code == 0 and peak_mb <= 50


# In run order: the sweep guard reads the process's peak RSS, so it runs first.
GUARDS = {"sweep": sweep_guard, "read": read_guard}

if __name__ == "__main__":
    names = sys.argv[1:] or list(GUARDS)
    unknown = sorted(set(names) - set(GUARDS))
    if unknown:
        sys.exit(f"unknown guard(s) {unknown}; choose from {list(GUARDS)}")
    results = [GUARDS[name]() for name in GUARDS if name in names]
    sys.exit(0 if all(results) else 1)
