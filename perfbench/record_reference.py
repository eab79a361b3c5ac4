"""Record the reference quality values that every benchmark run checks against.

Run from the root of a cellsleep checkout, on the commit whose outputs are
the reference:

    python3 perfbench/record_reference.py

For every workload, size and input variant it runs one study and stores
each sweep point's ``mean_error`` (error workloads), or each MLC point's
``gap_rel`` and ``decision_change_rate`` (switching), in
``perfbench/reference.json``. The tolerances in that file are kept. They
are the accepted drift of one point: last digits from a reordered sum, or
the about 1.3 % that an exact 1-D clustering moved the per-layer MLC
errors (ROADMAP.md). A change that moves estimates further re-records the
references and says so.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import harness_command
from workloads import VARIANTS, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

DEFAULT_TOLERANCE = {
    "mean_error": {"abs": 1e-9, "rel": 0.02},
    "gap_rel": {"abs": 1e-6, "rel": 0.02},
    "decision_change_rate": {"abs": 1e-4, "rel": 0.02},
}


def record_one(root: Path, size: str, workload: str, variant: int) -> dict:
    out = root / ".perfbench_run" / f"record-{workload}-{size}-{variant}"
    cmd, env = harness_command(root, out, workload, variant, 0, 0, size, "--record")
    subprocess.run(cmd, cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
    result = json.loads((out / "result.json").read_text())
    if result["failed"]:
        raise RuntimeError(f"{workload} {size} variant {variant}: the study failed; see its stderr")
    print(f"{size} {workload} {variant}: {result['quality']}", flush=True)
    return result["points"]


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    root = Path.cwd()
    values: dict = {}
    for size in ("tiny", "full"):
        for workload in WORKLOADS:
            for variant in range(VARIANTS):
                points = record_one(root, size, workload, variant)
                values.setdefault(size, {}).setdefault(workload, {})[str(variant)] = points
    tolerance = DEFAULT_TOLERANCE
    if REFERENCE.is_file():
        tolerance = json.loads(REFERENCE.read_text()).get("tolerance", tolerance)
    REFERENCE.write_text(json.dumps({"tolerance": tolerance, "values": values}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
