"""Layered benchmark of wideseg: one workload per call.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ramp1d_ladder --seed 0 --seconds 30 --trace 0

Each pass of a workload runs in a fresh worker process (``worker.py``), so
that set-up is measured from process start and every pass starts from the
same state.  With ``--trace 0`` ``SETUP_SAMPLES - 1`` workers only set
up, then workers run the workload while another pass fits in
``--seconds`` (at least one), and the last line of standard output
carries the end-to-end metrics.  With ``--trace 1`` one worker runs the
workload untraced and another traced; the line carries the per-layer
metrics instead, and the per-rung table is printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
#: set-up times per untraced run: the setup-only workers plus every pass
SETUP_SAMPLES = 7
TIMEOUT_S = 170.0
#: environment variables that change what is measured: BLAS threads, and
#: the glibc allocator thresholds that decide how often array memory is
#: returned to the kernel and faulted in again
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "MALLOC_ARENA_MAX",
            "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
            "MALLOC_TOP_PAD_")


def spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def spawn(args: list, deadline: float) -> dict:
    """Run one worker; return its last stdout line, echo the rest."""
    cmd = [sys.executable, str(WORKER)] + args + ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def _cache_size(level: int) -> str:
    """Size of CPU 0's data or unified cache of this level, as Linux names it."""
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (idx / "level").read_text().strip() == str(level) and \
                    (idx / "type").read_text().strip() != "Instruction":
                return (idx / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def environment() -> dict:
    """Machine and library record printed next to every result."""
    import numpy
    import scipy

    cfg = getattr(numpy.__config__, "CONFIG", {})
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name", "unknown"),
        "env_vars": {v: os.environ[v] for v in ENV_VARS
                     if v in os.environ} or "none set",
        "L2": _cache_size(2),
        "L3": _cache_size(3),
    }
    return env


def main(argv=None) -> int:
    workloads = [w["name"] for w in spec()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True,
                    help="recorded and passed on as the optimizer seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "wideseg" / "__init__.py").is_file():
        sys.exit("run from the root of a wideseg checkout (no src/wideseg)")

    deadline = time.monotonic() + TIMEOUT_S
    env = environment()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    if args.trace:
        # a fresh process for each pass, so both pay the same first-pass costs
        plain = spawn(base + ["--trace", "0"], deadline)
        traced = spawn(base + ["--trace", "1"], deadline)
        if traced["counts"] != plain["counts"]:
            traced["problems"].append(
                "traced and untraced runs differ in rungs, iterations, "
                "convergence or verdicts")
        runs = [plain, traced]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        listed = spec()["per_layer"]
        print(f"field_bytes {values.get('functional.field_bytes')} "
              f"L2 {env['L2']} L3 {env['L3']}")
    else:
        setups = [spawn(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        runs = []
        start = time.monotonic()
        while True:
            runs.append(spawn(base, deadline))
            elapsed = time.monotonic() - start
            if elapsed + runs[-1]["wall_s"] > args.seconds:
                break
        setups += [r["setup_s"] for r in runs]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "rung_converged_frac": runs[-1]["converged_frac"],
        }
        listed = spec()["end_to_end"]
    for r in runs:
        for problem in r["problems"]:
            print(f"CHECK FAILED: {problem}")
    # every metric computed, so that the self-test sees one that
    # BENCHMARK.json does not list, or one it lists and this does not compute
    units = {m["name"]: m["unit"] for m in listed}
    metrics = {name: {"value": value, "unit": units.get(name, "unlisted")}
               for name, value in values.items()}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    failed = sum(bool(r["problems"]) for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
