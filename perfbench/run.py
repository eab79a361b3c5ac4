"""cellsleep benchmark: time the paper's studies end to end, or per layer.

Run from the root of a cellsleep checkout:

    python3 perfbench/run.py --workload mlc-desk --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json. The run happens in a child process
(``harness.py``) with ``src`` on its import path and the BLAS/OpenMP thread
counts set to 1. The readable report goes to stdout; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of a traced run with ``--trace 1``. Results, spans and the first
study's reports are kept under ``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 175  # the whole run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def harness_command(root: Path, out: Path, workload: str, seed: int, seconds: float, trace: int,
                    size: str, *extra: str) -> tuple[list[str], dict]:
    """Command line and environment of one harness process."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size, "--out", str(out), *extra]
    return cmd, env


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cellsleep" / "__init__.py").is_file():
        print(f"perfbench: no cellsleep sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out = root / ".perfbench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    cmd, env = harness_command(root, out, args.workload, args.seed, args.seconds, args.trace, args.size)
    # A terminated benchmark also ends its child: SystemExit reaches the finally.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    child = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = child.wait(timeout=max(1.0, TIME_LIMIT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        print("perfbench: workload run exceeded the time limit", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    result_path = out / "result.json"
    if code != 0 or not result_path.is_file():
        print(f"perfbench: workload run failed (exit code {code})", file=sys.stderr)
        return code or 4

    result = json.loads(result_path.read_text())
    values = result["per_layer"] if args.trace else result["end_to_end"]
    units = declared_metrics(args.trace)
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 5
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
