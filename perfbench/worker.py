"""One benchmark process: set up a workload, run it once, check its output.

Started by ``run.py`` from the root of a source checkout; imports wideseg
from ``src/`` of that checkout.  Each pass runs in a fresh process, because
that is how ``wideseg run`` is used and because the first pass in a process
pays for faulting in the memory its arrays use (see NOTES.md).  The last
line of standard output is a JSON object read by ``run.py``.

    python3 perfbench/worker.py --workload ramp1d_run --seed 0 --t0 <mono>
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench-out"

S1 = "src/wideseg/scenarios/s1_two_species.cfg"
BLOCKS = "perfbench/blocks2d.cfg"

#: kind ladder runs continuation.run_eps_ladder, kind run runs the full
#: ``wideseg run`` pipeline; ``epsilons`` and ``max_iters`` override the
#: config file when given
WORKLOADS = {
    "ramp1d_ladder": {"config": S1, "kind": "ladder",
                      "epsilons": (0.2, 0.1, 0.05), "max_iters": 1200},
    "ramp1d_run": {"config": S1, "kind": "run", "epsilons": (0.2, 0.1)},
    "blocks2d_ladder": {"config": BLOCKS, "kind": "ladder"},
}

#: ``wideseg run`` on ramp1d_run: criteria 5 (uniformity) and 6 (overlap
#: decay) are the documented standing failures, every other verdict holds
EXPECTED_VERDICTS = {
    "level_estimate": True, "energy_identity": True,
    "energy_integral_bounds": True, "uniformity": False,
    "overlap_decay": False, "cauchy": True, "weak_inequalities": True,
    "oracle_consistency": True, "elliptic_equivalence": True,
}
EXPECTED_EXIT = 1
EXPECTED_FAILED_STAGE = "check:uniformity"

#: relative tolerance on each rung's J against the reference.  A rung that
#: stalls at the iteration cap and the same rung run to convergence differ
#: by at most 3e-6 in the field; their J values differ by 2e-16 relative
#: (rung (0.05, 10) of ramp1d_ladder against a cold start run to
#: convergence).  Two points that both meet grad_tol differ far less than
#: this tolerance, a wrong functional or minimizer far more.
J_RTOL = 1e-8


def _src_on_path() -> None:
    src = ROOT / "src"
    if not (src / "wideseg" / "__init__.py").is_file():
        sys.exit(f"no wideseg sources under {src}")
    sys.path.insert(0, str(src))


def setup(name: str, seed: int):
    """Parse the workload's config and build its grid and boundary data."""
    from wideseg import cli
    from wideseg.continuation import LadderSpec

    w = WORKLOADS[name]
    rc = cli.parse_config(ROOT / w["config"])
    if "epsilons" in w:
        rc.ladder = LadderSpec(betas=rc.ladder.betas, epsilons=w["epsilons"],
                               cauchy_tol=rc.ladder.cauchy_tol)
    if "max_iters" in w:
        rc.optimizer.max_iters = w["max_iters"]
    rc.optimizer.seed = seed
    grid, data = cli.make_inputs(rc)
    return rc, grid, data


def run_main(name: str, rc, grid, data):
    """The timed call.  Returns (seconds, outcome of the call)."""
    from wideseg import cli, continuation

    if WORKLOADS[name]["kind"] == "ladder":
        t = time.perf_counter()
        continuation.run_eps_ladder(rc.spec, data, grid, rc.ladder,
                                    rc.optimizer)
        return time.perf_counter() - t, None
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as out:
        t = time.perf_counter()
        code, summary = cli.run_pipeline(rc, Path(out), log=lambda msg: None)
        wall = time.perf_counter() - t
    return wall, {"exit": code, "verdicts": summary["verdicts"],
                  "failed_stage": summary.get("failed_stage")}


def one_pass(args, full: bool):
    """Set up and run the workload once under a tracer of the given level.

    Returns the tracer, the run config, the time the inputs were ready, the
    wall time and outcome of the main call, and the minor page faults and
    system seconds the main call took.
    """
    import spans

    name = args.workload
    tracer = spans.Tracer(full=full)
    with spans.instrument(tracer):
        rc, grid, data = setup(name, args.seed)
        tracer.v0 = data.v0
        ready = time.monotonic()
        before = resource.getrusage(resource.RUSAGE_SELF)
        wall, outcome = run_main(name, rc, grid, data)
        after = resource.getrusage(resource.RUSAGE_SELF)
    usage = {"process.minor_faults": after.ru_minflt - before.ru_minflt,
             "process.sys_s": after.ru_stime - before.ru_stime}
    return tracer, rc, ready, wall, outcome, usage


# -- output check -----------------------------------------------------------

def kkt_residual(rung) -> float:
    """Max preconditioned projected gradient, recomputed from public grad_J
    (or the spatial potential gradient for stationary solves) and node mass."""
    import numpy as np
    from wideseg import functional, optimizer
    from wideseg.grid import StateField, free_mask

    grid, spec, data, sup = rung.grid, rung.spec, rung.data, rung.support
    if rung.kind == "elliptic":
        x = rung.result.w
        g = functional.potential_gradient(x[:, None], grid, spec,
                                          rung.beta)[:, 0]
        mass = np.broadcast_to(grid.space_weights, x.shape).copy()
        mass[:, grid.boundary_mask] = 0.0
    else:
        x = rung.result.field.values
        g = functional.grad_J(StateField(x, grid, spec), rung.eps, rung.beta,
                              data)
        mass = optimizer.node_mass(grid, spec)
        mass[:, ~free_mask(grid, data)] = 0.0
    if sup is not None:
        mass[~sup] = 0.0
        g[~sup] = 0.0
    free = mass > 0
    gh = np.where(free, g / np.where(free, mass, 1.0), 0.0)
    gh[(x <= 0.0) & (gh > 0.0)] = 0.0
    gh[(x >= 1.0) & (gh < 0.0)] = 0.0
    return float(np.max(np.abs(gh)))


def rung_key(r) -> list:
    return [r.kind, None if math.isnan(r.eps) else r.eps, r.beta]


def rung_counts(tracer) -> list:
    """What must not change between passes: rungs, iterations, convergence."""
    return [rung_key(r) + [r.result.iters, r.result.converged]
            for r in tracer.rungs]


def check(name: str, tracer, rc, outcome) -> list:
    """Problems found in one pass's output; an empty list means correct."""
    problems = []
    for r in tracer.rungs:
        if r.result.converged:
            res = kkt_residual(r)
            if not res <= rc.optimizer.grad_tol:
                problems.append(f"{rung_key(r)}: converged but KKT residual "
                                f"{res:.3g} > {rc.optimizer.grad_tol:g}")
    ref = json.loads(REFERENCE.read_text()).get(name)
    if ref is None:
        problems.append(f"no reference rungs for {name}")
    else:
        got = [rung_key(r) for r in tracer.rungs]
        want = [row[:3] for row in ref]
        if got != want:
            problems.append(f"rung sequence {got} != reference {want}")
        else:
            for r, row in zip(tracer.rungs, ref):
                if not abs(r.J - row[3]) <= J_RTOL * abs(row[3]) + 1e-12:
                    problems.append(f"{rung_key(r)}: J {r.J!r} differs from "
                                    f"reference {row[3]!r}")
    if outcome is not None:
        want = {"exit": EXPECTED_EXIT, "verdicts": EXPECTED_VERDICTS,
                "failed_stage": EXPECTED_FAILED_STAGE}
        for key, val in want.items():
            if outcome[key] != val:
                problems.append(f"{key} {outcome[key]!r} != expected {val!r}")
    return problems


# -- reporting ----------------------------------------------------------------

RUNG_COLUMNS = ("eps", "beta", "kind", "init", "iters", "value_calls",
                "grad_calls", "seconds", "stop", "pg_norm", "J")


def rung_rows(tracer) -> list:
    import spans

    rows = []
    for r in tracer.rungs:
        s = tracer.spans[r.span]
        rows.append([
            "" if math.isnan(r.eps) else r.eps, r.beta, r.kind, r.init,
            r.result.iters, r.value_calls, r.grad_calls,
            round(s[spans.END] - s[spans.START], 4), r.stop,
            f"{r.result.pg_norm:.3e}", f"{r.J:.12g}",
        ])
    return rows


def format_table(rows) -> str:
    cells = [list(RUNG_COLUMNS)] + [[str(v) for v in row] for row in rows]
    widths = [max(len(c[i]) for c in cells) for i in range(len(RUNG_COLUMNS))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths))
                     for row in cells)


def write_trace(name: str, seed: int, tracer, rows) -> Path:
    """Write the traced pass's spans and rung table when the run ends."""
    import csv

    stem = OUT_DIR / f"{name}-seed{seed}"
    with open(f"{stem}-spans.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    with open(f"{stem}-rungs.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(RUNG_COLUMNS)
        wr.writerows(rows)
    return stem


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    _src_on_path()
    OUT_DIR.mkdir(exist_ok=True)

    if args.setup_only:
        import spans  # noqa: F401  (same imports as a measuring process)
        setup(args.workload, args.seed)
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0

    tracer, rc, ready, wall, outcome, usage = one_pass(args, full=bool(args.trace))
    rungs = tracer.rungs
    result = {
        "setup_s": ready - args.t0,
        "wall_s": wall,
        "problems": check(args.workload, tracer, rc, outcome),
        "counts": [rung_counts(tracer), outcome],
        "converged_frac": sum(r.result.converged for r in rungs) / len(rungs),
    }

    if args.trace:
        import spans

        result["layers"] = dict(spans.layer_metrics(tracer), **usage)
        rows = rung_rows(tracer)
        print(format_table(rows))
        stem = write_trace(args.workload, args.seed, tracer, rows)
        print(f"spans and rung table written to {stem}-*")

    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
