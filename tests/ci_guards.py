"""Paper-scale guards on memory and CSV bytes, run by CI after the test suite.

Usage (from the repo root; no argument runs every guard, sweep first):

    PYTHONPATH=src python tests/ci_guards.py [sweep] [read] [ingest]

Exits 1 if any guard fails. The file has no ``test_`` prefix, so pytest
does not collect it: the guards take about 25 s on a 2-core machine.

sweep
    Paper-scale fig2 and fig3 sweeps (n=5000, 30 days; 1 iteration over
    all 144 slots) never hold the 30-day series, and every estimator
    answers at most 2^15 SBS x slot rows at once (fig2 holds one weighted
    cumsum per exponent), and the nearest ranking holds at most 2^16
    sleeper-to-active distances at once, so the peak RSS of the whole
    guard stays under 120 MB (74 MB measured with numpy 2.4; 95 MB when
    the ranking held three full 500 x 4500 matrices).
    Their CSV bytes are pinned too: the pins on paper-scale MLC at k = 3
    (cells of up to 5000 SBSs), recorded before the sorted-run Lloyd steps
    replaced the per-step argsort. A paper fig3 run with elbow-selected k
    (every 12th slot, ``mlc_k_override`` null, about 2 s) pins the elbow
    path at paper scale, recorded before MLC kept one value order per slot
    row for all its layers. Paper fig2 and fig3 over slot 0 alone
    (``slot_stride`` 144, about 1.5 s together) pin the one-column fold of
    30 days, recorded before a build finished only the evaluated slots. So
    are the bytes of paper fig4 and fig5 sweeps (12 iterations, s = 10, 30,
    50, 70, L = 1..7, about 0.3 s each), recorded before switching sweeps
    batched the MLC calls of a run of iterations and greedy read per-SBS
    coefficient arrays. Fig2, the elbow fig3 run, fig4 and fig5 run again at 2
    workers, and must hit the same pins: fig4's and fig5's runs of
    iterations differ there, and fig2's one full-day run and the elbow
    run are each set up in a worker process.
    One desk fig5 study pins greedy where tiers fill, at 1 and 2 workers:
    1000 synthetic SBSs read as measured data, L = 1 and 3, 4 iterations
    over slots 0 and 36, where both tiers fill (MBS 0.995, HAPS 0.999) and
    one deployed decision is infeasible (about 0.5 s). It was recorded
    before every optimizer decided feasibility by ``CapacityState``'s rule
    and all SBSs shared one power coefficient set. Its inputs are named
    relative to the guard's temporary directory, so the config hash in the
    CSV's first line does not depend on where that directory lies.
    One paper fig5 study at s = 16 alone (L = 1 and 3, 12 iterations,
    about 0.5 s) pins the exhaustive search where the incumbent carries
    across its four 2^14-state chunks, at 1 and 2 workers. It was
    recorded before the search unpacked its states from index bits and
    summed tier use by doubling over the SBSs.
read
    Reading a 5000-SBS x 1-day loads CSV (20 MB) holds the parsed rows and
    the series, not a dict entry per cell: about 40 MB under tracemalloc
    with numpy 2.4, where the dict reader took 217 MB.
ingest
    ``cellsleep ingest`` of one generated day of Milan-layout CDR text
    (about 144 000 records over 955 squares) holds one 56-byte array entry
    per record, not one object per record, and writes the loads CSV one
    SBS row at a time: about 22 MB under tracemalloc with numpy 2.4, where
    per-record objects and a joined CSV text took 64 MB.
"""

import hashlib
import json
import os
import resource
import sys
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from cellsleep.cli import main
from cellsleep.dataio import read_loads_csv, read_placements_json, write_placements_json

CSV_SHA256 = {
    "fig2": "945397e907444625da2aecf7238d3aa9cf804eaadf54fb102571f319268801b3",
    "fig3": "5528a5b477e249d89f6c3f737b0ad4d284a6a524d62e606e1d2c2a64510e096b",
    "fig3-elbow": "4bd13911aeffe969ff4131c157b6d44c21d9e6a55aba218e7160efb7dcac7abb",
    "fig2-one-slot": "bba590c24fcb95b628c25b50b9024989fd2ae786ce199e5adf309dd391fc0786",
    "fig3-one-slot": "50ee75fd820a2753edb96c851d2560c37f3abd24074a4c560a90c771d09e9208",
    "fig4": "72b334247fb3455ac09546aa6a9b9055be3d9f0ead9ae2d3140668bccd97962f",
    "fig5": "ebd15fb3301e4d7d293e928b8d88c2511db6ae99ea648d9aba5f9f0c7d75b000",
    "fig5-binding": "9c7a4ea8bd781ff9574795677162d678bfa5963634d5f3dd553af0d7f7601277",
    "fig2-jittered": "a201738f55431d60169410a4b844e3debfa89768c78d930bc7bd6fec35ad8081",
    "fig5-chunks": "eef5c79136386541d7a0f335746c477e41643c2139009dfab883171dc6558e3e",
}
# The pinned runs, by name: (experiment, its config). Error sweeps take one
# iteration over the full day, over slot 0 alone, or every 12th slot with
# elbow-selected k; switching sweeps 12 iterations (one slot each) at the
# default grids.
FULL_DAY = {"n_iterations": 1, "slot_stride": 1}
ONE_SLOT = {"n_iterations": 1, "slot_stride": 144}
PAPER_RUNS = {
    "fig2": ("fig2", FULL_DAY),
    "fig3": ("fig3", FULL_DAY),
    "fig3-elbow": ("fig3", {"n_iterations": 1, "slot_stride": 12, "mlc_k_override": None}),
    "fig2-one-slot": ("fig2", ONE_SLOT),
    "fig3-one-slot": ("fig3", ONE_SLOT),
    "fig4": ("fig4", {"n_iterations": 12}),
    "fig5": ("fig5", {"n_iterations": 12}),
}
# Every pinned run, by name: (experiment, profile, config, grid flags). The
# binding-tier study reads the 1000 SBSs that BINDING_SYNTH writes.
RUNS = {name: (e, "paper", config, []) for name, (e, config) in PAPER_RUNS.items()}
RUNS["fig5-binding"] = (
    "fig5", "desk",
    {"data_source": "milan", "loads_csv": "inp/loads.csv", "placements_json": "inp/placements.json",
     "n_days": 1, "mlc_k_override": 3, "n_iterations": 4, "slot_stride": 36},
    ["--s-values", "1000", "--l-values", "1,3"],
)
BINDING_SYNTH = ["synth", "--out", "inp", "--seed", "3", "--n-sbs", "1000", "--grid-side", "40", "--days", "1",
                 "--correlation-length", "1500"]
# The jittered study reads the 5000 SBSs that JITTER_SYNTH writes, moved by write_jittered_input.
RUNS["fig2-jittered"] = (
    "fig2", "paper",
    {"data_source": "milan", "loads_csv": "jit/loads.csv", "placements_json": "jit/placements.json",
     "n_days": 1, **ONE_SLOT},
    [],
)
JITTER_SYNTH = ["synth", "--seed", "4", "--n-sbs", "5000", "--grid-side", "100", "--days", "1"]
# Exhaustive search over 2^16 states, four chunks of 2^14, at L = 1 and 3.
RUNS["fig5-chunks"] = ("fig5", "paper", {"n_iterations": 12}, ["--s-values", "16", "--l-values", "1,3"])
# Rerun at 2 workers, where each is set up in a worker process and fig4
# and fig5 split their iterations into other runs: the same pins must hold.
PARALLEL_RUNS = ("fig2", "fig3-elbow", "fig4", "fig5", "fig5-binding", "fig5-chunks")
# Run at 2 workers only: its one task reads the 20 MB loads CSV in a worker
# process, so the read does not lift this process's peak RSS.
WORKER_ONLY_RUNS = ("fig2-jittered",)
RSS_LIMIT_MB = 120
MILAN_EPOCH_MS = 1383260400000  # 2013-11-01 00:00 CET, the Milan data's first interval
INGEST_SQUARES = 955
INGEST_LIMIT_MB = 30


def write_jittered_input(root: str) -> int:
    """Write JITTER_SYNTH's input under ``root``, each placement moved to a seeded
    uniform point of its 235 m square; return the synth's exit code."""
    code = main([*JITTER_SYNTH, "--out", str(Path(root) / "jit")])
    path = Path(root) / "jit" / "placements.json"
    placements = read_placements_json(path)
    offsets = np.random.default_rng(0).uniform(-117.5, 117.5, (len(placements), 2)).tolist()
    moved = [replace(p, x_m=p.x_m + dx, y_m=p.y_m + dy) for p, (dx, dy) in zip(placements, offsets)]
    write_placements_json(moved, path, grid_side=100)
    return code


def sweep_guard() -> bool:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the binding-tier and jittered runs name their inputs relative to here
        try:
            codes, digests = [main(BINDING_SYNTH)], {}
            # In a child process: the synth's 5000-row series would lift this process's peak RSS.
            with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
                codes.append(pool.submit(write_jittered_input, tmp).result())
            for name, workers in ([(name, 1) for name in RUNS if name not in WORKER_ONLY_RUNS]
                                  + [(name, 2) for name in PARALLEL_RUNS + WORKER_ONLY_RUNS]):
                e, profile, experiment, grid = RUNS[name]
                out = Path(tmp) / f"{name}_workers{workers}"
                config = Path(tmp) / f"{profile}_{name}.json"
                config.write_text(json.dumps({"experiment": experiment}))
                codes.append(main(["sweep", "--experiment", e, "--profile", profile, "--workers", str(workers),
                                   "--config", str(config), "--out", str(out), *grid]))
                digests[name, workers] = hashlib.sha256((out / f"{e}_{profile}_0.csv").read_bytes()).hexdigest()
        finally:
            os.chdir(home)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"sweeps {list(RUNS)} ({', '.join(PARALLEL_RUNS)} also, {', '.join(WORKER_ONLY_RUNS)} only, "
          f"at 2 workers): exit {codes}, "
          f"peak RSS {peak_mb:.0f} MB (limit {RSS_LIMIT_MB})")
    moved = [f"{name} at {w} worker(s)" for (name, w), digest in digests.items() if digest != CSV_SHA256[name]]
    print(f"CSV sha256: {digests}; moved: {moved or 'none'}")
    return not (any(codes) or peak_mb > RSS_LIMIT_MB or moved)


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


def write_milan_cdr(path: Path, n_squares: int) -> int:
    """Write one seeded day of Milan-layout CDR text and return its number of records.

    Every 10-minute interval has one country-39 row for 95 % of the squares
    and a second, country-46 row for a tenth of those; a quarter of the
    counters are empty. The counters are written with ``repr``.
    """
    rng = np.random.default_rng(0)
    n_records = 0
    with open(path, "w") as fh:
        for slot in range(144):
            present = np.flatnonzero(rng.random(n_squares) >= 0.05) + 1
            squares = np.concatenate([present, present[rng.random(present.size) < 0.10]])
            counters = rng.exponential(1.0, (squares.size, 5)).tolist()
            empty = (rng.random((squares.size, 5)) < 0.25).tolist()
            prefix = f"\t{MILAN_EPOCH_MS + slot * 600_000}\t"
            fh.write("".join(
                f"{sq}{prefix}{39 if i < present.size else 46}\t"
                + "\t".join("" if blank else repr(v) for v, blank in zip(row, gaps)) + "\n"
                for i, (sq, row, gaps) in enumerate(zip(squares.tolist(), counters, empty))
            ))
            n_records += squares.size
    return n_records


def ingest_guard() -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        cdr = Path(tmp) / "cdr.txt"
        n_records = write_milan_cdr(cdr, INGEST_SQUARES)
        tracemalloc.start()
        code = main(["ingest", str(cdr), "--out", tmp])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    peak_mb = peak / 1e6
    print(f"ingest of {n_records} Milan-layout records: exit {code}, "
          f"tracemalloc peak {peak_mb:.0f} MB (limit {INGEST_LIMIT_MB})")
    return code == 0 and peak_mb <= INGEST_LIMIT_MB


# In run order: the sweep guard reads the process's peak RSS, so it runs first.
GUARDS = {"sweep": sweep_guard, "read": read_guard, "ingest": ingest_guard}

if __name__ == "__main__":
    names = sys.argv[1:] or list(GUARDS)
    unknown = sorted(set(names) - set(GUARDS))
    if unknown:
        sys.exit(f"unknown guard(s) {unknown}; choose from {list(GUARDS)}")
    results = [GUARDS[name]() for name in GUARDS if name in names]
    sys.exit(0 if all(results) else 1)
