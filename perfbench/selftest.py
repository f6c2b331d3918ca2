"""Self-tests of the benchmark; not part of the package's test suite.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload (all by default) this runs ``run.py`` once untraced and
twice traced, prints the untraced run's end-to-end metrics, and checks that

- the workload names are the ones BENCHMARK.json lists, and the metrics
  ``run.py`` computes are exactly the ones it lists, no more and no fewer;
- the two traced runs report identical counts;
- every run passes its output check; for a traced run that includes the
  comparison of its traced pass with its untraced pass (rung sequence,
  iterations, convergence and ``wideseg run`` verdicts).

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import OUT_DIR, WORKLOADS  # noqa: E402

COUNTS = ("functional.value_calls", "functional.grad_calls",
          "optimizer.iters", "optimizer.capped_rungs", "optimizer.rungs",
          "oracle.march_steps", "oracle.elliptic_iters",
          "continuation.refine_iters", "diagnostics.bumps")
RUNG_COUNTS = ("eps", "beta", "kind", "init", "iters", "value_calls",
               "grad_calls", "stop")


def run(workload: str, trace: int, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def same_names(metrics: dict, listed: list) -> str:
    """Empty when the computed metrics are the listed ones, else the
    difference."""
    extra = sorted(set(metrics) - set(listed))
    missing = sorted(set(listed) - set(metrics))
    if not extra and not missing:
        return ""
    return f" (computed but not listed {extra}, listed but not computed {missing})"


def rung_counts(workload: str, seed: int) -> list:
    with open(OUT_DIR / f"{workload}-seed{seed}-rungs.csv") as fh:
        return [[row[c] for c in RUNG_COUNTS] for row in csv.DictReader(fh)]


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", nargs="*", default=names)
    args = ap.parse_args(argv)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    expect(sorted(names) == sorted(WORKLOADS),
           "BENCHMARK.json workloads match the worker's workloads")
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    for w in args.workload:
        plain = run(w, 0, seed=1)
        for name, m in plain["metrics"].items():
            print(f"      {w} {name} {m['value']:.6g} {m['unit']}")
        expect(plain["correct"], f"{w}: untraced run passes its output check")
        diff = same_names(plain["metrics"], end_to_end)
        expect(not diff, f"{w}: untraced metric names match BENCHMARK.json"
               + diff)
        traced = []
        for seed in (1, 2):
            res = run(w, 1, seed)
            traced.append((res, rung_counts(w, seed)))
            expect(res["correct"], f"{w}: traced run (seed {seed}) passes "
                   "its output check and matches its untraced pass")
            diff = same_names(res["metrics"], per_layer)
            expect(not diff, f"{w}: traced metric names match BENCHMARK.json"
                   + diff)
        (a, rows_a), (b, rows_b) = traced
        same = all(a["metrics"].get(c) == b["metrics"].get(c)
                   for c in COUNTS)
        expect(same and rows_a == rows_b,
               f"{w}: two traced runs give identical counts")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
