"""Config parsing, pipeline orchestration, and report emission.

Exit-code contract: 0 all enabled checks pass, 1 numerical failure (the
failing stage is named), 2 configuration failure (the offending field is
named).  Identical config reproduces summary.json bit-for-bit except for
the ``meta`` block, which carries timestamps.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import MALLOC_POLICY, __version__
from . import diagnostics as diag
from . import oracle as oracle_mod
from .continuation import LadderSpec, run_eps_ladder, to_original_time
from .functional import competitor_value, eval_J
from .grid import SpaceTimeGrid, StateField
from .model import (
    BC_MODES, BoundaryData, ReactionFamily, SystemSpec, preset_v0,
    validate_boundary, validate_system,
)
from .optimizer import OptimizerConfig, minimize


#: the uniformity windows are sampled at original times up to this multiple
#: of eps, so the rescaled horizon T_r must reach it
WINDOW_HORIZON = 8.0


class ConfigError(Exception):
    """Configuration failure addressed to a specific field."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass
class RunConfig:
    name: str
    spec: SystemSpec
    grid_kwargs: dict
    ladder: LadderSpec
    optimizer: OptimizerConfig
    preset: str = "two_ramp"
    bc_mode: str = "dirichlet_and_initial"
    n_x_bumps: int = 5
    n_t_bumps: int = 3
    scales: tuple = (0.12, 0.2)
    run_oracle: bool = True
    run_elliptic: bool = True
    oracle_dtau: float = 1e-3
    dir: str = "out"
    raw: dict = field(default_factory=dict)


def _set_keys(cp, sec, **convs) -> dict:
    """The keys of ``sec`` among ``convs`` that the file sets, parsed: the
    class they are passed to holds the default of every other key."""
    out = {}
    for key, conv in convs.items():
        if cp.has_option(sec, key):
            txt = cp.get(sec, key).strip()
            try:
                out[key] = conv(txt)
            except Exception:
                raise ConfigError(f"{sec}.{key}",
                                  f"cannot parse value {txt!r}")
    return out


def _parse_matrix(txt: str) -> np.ndarray:
    rows = [r.strip() for r in txt.split(";") if r.strip()]
    return np.array([[float(v) for v in r.split()] for r in rows])


def _parse_reactions(txt: str) -> tuple:
    out = []
    for tok in txt.split():
        if ":" in tok:
            kind, lam = tok.split(":", 1)
            out.append(ReactionFamily(kind, float(lam)))
        else:
            out.append(ReactionFamily(tok))
    return tuple(out)


def _parse_bool(txt: str) -> bool:
    low = txt.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(txt)


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError("config", f"cannot read {path}")

    system = _set_keys(cp, "system", k=int, A=_parse_matrix,
                       reactions=_parse_reactions)
    for key in ("k", "A"):
        if key not in system:
            raise ConfigError(f"system.{key}", "required field is missing")
    spec = SystemSpec.make(**system)
    for where, msg in validate_system(spec):
        raise ConfigError(f"system.{where}", msg)

    floats = lambda txt: tuple(float(v) for v in txt.split())
    try:
        ladder = LadderSpec(**_set_keys(
            cp, "ladder", betas=floats, epsilons=floats, cauchy_tol=float))
    except ValueError as exc:
        raise ConfigError("ladder", str(exc))

    try:
        opt = OptimizerConfig(**_set_keys(
            cp, "optimizer", max_iters=int, grad_tol=float))
    except ValueError as exc:
        raise ConfigError("optimizer", str(exc))

    diagnostics = _set_keys(
        cp, "diagnostics", n_x_bumps=int, n_t_bumps=int, scales=floats,
        run_oracle=_parse_bool, run_elliptic=_parse_bool, oracle_dtau=float)
    for key, ok, msg in (
            ("n_x_bumps", lambda v: v >= 1, "must be at least 1"),
            ("n_t_bumps", lambda v: v >= 1, "must be at least 1"),
            ("scales", lambda v: v and min(v) > 0,
             "must list at least one positive scale"),
            ("oracle_dtau", lambda v: v > 0, "must be positive")):
        if key in diagnostics and not ok(diagnostics[key]):
            raise ConfigError(f"diagnostics.{key}", msg)
    rc = RunConfig(
        spec=spec, ladder=ladder, optimizer=opt,
        grid_kwargs=_set_keys(cp, "grid", dim=int, nx=int, Lx=float, nt=int,
                              T_r=float, ny=int, Ly=float, tail_tol=float),
        raw={s: dict(cp.items(s)) for s in cp.sections()},
        name=_set_keys(cp, "scenario", name=str).get("name", Path(path).stem),
        **_set_keys(cp, "boundary", preset=str, bc_mode=str), **diagnostics,
        **_set_keys(cp, "output", dir=str),
    )
    if rc.bc_mode not in BC_MODES:
        raise ConfigError(
            "boundary.bc_mode", f"must be one of {', '.join(BC_MODES)}"
        )
    return rc


def make_inputs(rc: RunConfig):
    """Grid and boundary data resolved from a parsed config."""
    try:
        grid = SpaceTimeGrid(**rc.grid_kwargs)
    except ValueError as exc:
        raise ConfigError("grid", str(exc))
    try:
        v0 = preset_v0(rc.preset, grid.x_field(), rc.spec.k)
    except ValueError as exc:
        raise ConfigError("boundary.preset", str(exc))
    data = BoundaryData.make(v0, rc.bc_mode)
    for msg in validate_boundary(data, rc.spec):
        raise ConfigError("boundary", msg)
    return grid, data


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) for v in row])


def write_field_csv(path: Path, vals: np.ndarray, taus: np.ndarray,
                    grid: SpaceTimeGrid) -> None:
    """Nodal field snapshot: one row per (t, node), one column per species."""
    k = vals.shape[0]
    header = ["t", *"xy"[:grid.dim]] + [f"v{i + 1}" for i in range(k)]
    flat = vals.reshape(k, len(taus), -1)
    nodes = list(itertools.product(*grid.coords))
    rows = [[t, *node] + [flat[i, j, p] for i in range(k)]
            for j, t in enumerate(taus) for p, node in enumerate(nodes)]
    write_csv(path, header, rows)


def run_pipeline(rc: RunConfig, out_dir: Path, log=print):
    """Full ladder pipeline plus diagnostics.  Returns (exit_code, summary)."""
    grid, data = make_inputs(rc)
    if grid.T_r < WINDOW_HORIZON:
        raise ConfigError("grid.T_r", "the uniformity windows need T_r >= "
                          f"{WINDOW_HORIZON:g}")
    if rc.run_elliptic:
        # the equivalence check solves at the second eps and beta
        for key in ("epsilons", "betas"):
            if len(getattr(rc.ladder, key)) < 2:
                raise ConfigError(f"ladder.{key}",
                                  "run_elliptic needs at least two values")
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = rc.spec
    summary = {
        "scenario": rc.name,
        "grid": grid.metadata(),
        "config": rc.raw,
        "verdicts": {},
        "meta": {
            "created_at": datetime.datetime.now().isoformat(),
            "version": __version__,
            "malloc_policy": MALLOC_POLICY,
        },
    }
    verdicts = summary["verdicts"]

    log(f"[{rc.name}] running eps x beta ladders "
        f"({len(rc.ladder.epsilons)} x {len(rc.ladder.betas)} rungs)")
    dl = run_eps_ladder(spec, data, grid, rc.ladder, rc.optimizer)
    rungs = []
    for eps in rc.ladder.epsilons:
        bl = dl.beta_results[eps]
        rungs += [(f"minimize(eps={eps:g}, beta={beta:g})", res)
                  for beta, res in zip(bl.betas, bl.results)]
        rungs.append((f"refine(eps={eps:g})", bl.refine))
    stage = _failed_rung(rungs, log)
    if stage:
        summary["failed_stage"] = stage
        _write_summary(out_dir, summary)
        return 1, summary

    # level estimate, energy identity, E/I magnitude bounds, uniformity
    # windows and overlap decay: one pass over the rungs
    cap_per_eps = (competitor_value(data, grid, spec, 1.0)
                   + spec.M_bound * grid.volume)
    level_entries, energy_rows, window_rows, overlap_rows = [], [], [], []
    bounds_ok = decay_ok = hard_zero = True
    for eps in rc.ladder.epsilons:
        bl = dl.beta_results[eps]
        level_entries.append({
            "eps": eps, "J": bl.results[-1].trace.J,
            "J_competitor": competitor_value(data, grid, spec, eps),
        })
        cap = eps * cap_per_eps
        taus_w = np.linspace(0.0, WINDOW_HORIZON * eps, 161)
        windows = diag.default_windows(eps)
        for beta, res, bo in zip(bl.betas, bl.results, bl.beta_overlap):
            ei = diag.check_energy_identity(res.trace, res.converged)
            e_max = float(np.max(np.abs(res.trace.E)))
            i_total = float(grid.dt * res.trace.I.sum())
            energy_rows.append([eps, beta, res.trace.J,
                                ei["relative_residual"], e_max, i_total])
            bounds_ok &= (e_max <= cap * 1.02 + 1e-6
                          and i_total <= 0.5 * cap * 1.02 + 1e-6)
            rep = diag.check_uniform_windows(
                to_original_time(res.field, eps, taus_w), taus_w, grid, spec,
                beta, windows)
            window_rows.append([
                eps, beta, rep["windowed_max"], rep["sup_norm"], rep["kinetic"],
            ])
            overlap_rows.append([eps, beta, bo])
        if bl.beta_overlap[0] > 0:
            decay_ok &= bl.beta_overlap[-1] <= 1e-2 * bl.beta_overlap[0]
        hard_zero &= diag.overlap(bl.v_eps)[0] == 0.0

    level = diag.check_level_estimate_across_ladder(
        level_entries, spec.M_bound, grid.volume
    )
    verdicts["level_estimate"] = level["passed"]
    summary["level_estimate"] = level
    write_csv(out_dir / "level_table.csv",
              ["eps", "J", "J_over_eps", "lower", "upper"],
              [[r["eps"], r["J"], r["J_over_eps"], r["lower"], r["upper"]]
               for r in level["rows"]])

    max_resid = max(r[3] for r in energy_rows)
    verdicts["energy_identity"] = bool(max_resid <= diag.ENERGY_IDENTITY_TOL)
    summary["energy_identity_max_residual"] = max_resid
    verdicts["energy_integral_bounds"] = bool(bounds_ok)
    write_csv(out_dir / "energy_rungs.csv",
              ["eps", "beta", "J", "energy_residual", "E_max_abs", "I_total"],
              energy_rows)

    _, _, win, sup, kin = zip(*window_rows)
    spread = lambda col: max(col) / max(min(col), 1e-300)
    sup_ok = all(s <= 1.0 for s in sup)
    w_spread, k_spread = spread(win), spread(kin)
    verdicts["uniformity"] = bool(sup_ok and w_spread <= 3.0
                                  and k_spread <= 3.0)
    summary["uniformity"] = {
        "sup_ok": sup_ok, "window_spread": w_spread, "kinetic_spread": k_spread,
    }
    write_csv(out_dir / "uniform_windows.csv",
              ["eps", "beta", "windowed_max", "sup_norm", "kinetic"],
              window_rows)

    verdicts["overlap_decay"] = bool(decay_ok and hard_zero)
    summary["overlap_hard_projected_zero"] = hard_zero
    write_csv(out_dir / "overlap_decay.csv",
              ["eps", "beta", "beta_times_overlap"], overlap_rows)

    # Cauchy behavior of the eps ladder
    verdicts["cauchy"] = diag.decreasing([c[2] for c in dl.cauchy])
    # reported beside the distances; no verdict reads the tolerance
    summary["cauchy"] = {"distances": [list(c) for c in dl.cauchy],
                         "cauchy_tol": rc.ladder.cauchy_tol}
    write_csv(out_dir / "cauchy.csv",
              ["eps_hi", "eps_lo", "distance"], dl.cauchy)

    # weak inequalities: v_eps (with eps term) and w (eps_term = 0)
    eps_min = rc.ladder.epsilons[-1]
    taus = dl.taus
    lat = diag.build_lattice(grid, 0.0, dl.tau_max, rc.n_x_bumps,
                             rc.n_t_bumps, rc.scales)
    ineq_rows = []
    ineq_ok = True
    for label, fld, eterm in (
        ("v_eps", dl.beta_results[eps_min].v_eps, eps_min),
        ("w", dl.w, 0.0),
    ):
        vo = to_original_time(fld, eps_min, taus)
        rep = diag.check_weak_inequalities(
            vo, taus, grid, spec, eterm, lat
        )
        ineq_ok &= rep.passed
        for i in range(spec.k):
            for b in range(len(lat.bumps)):
                ineq_rows.append(
                    [label, i + 1, b, rep.A[i, b], rep.B[i, b], rep.tol[b]]
                )
        summary[f"weak_inequalities_{label}"] = {
            "worst_violation": rep.worst_violation, "passed": rep.passed,
        }
    verdicts["weak_inequalities"] = bool(ineq_ok)
    write_csv(out_dir / "inequality_residuals.csv",
              ["field", "species", "bump", "A", "B", "tol"], ineq_rows)

    write_field_csv(out_dir / "w_field.csv",
                    to_original_time(dl.w, eps_min, taus), taus, grid)

    if rc.run_oracle:
        log(f"[{rc.name}] parabolic oracle comparison at beta="
            f"{rc.ladder.betas[0]:g}")
        n_steps = int(np.ceil(dl.tau_max / rc.oracle_dtau))
        run = oracle_mod.step_parabolic(
            spec, data, grid, rc.ladder.betas[0], rc.oracle_dtau, n_steps
        )
        entries = [
            (eps, dl.beta_results[eps].results[0].field)
            for eps in rc.ladder.epsilons
        ]
        cmp = oracle_mod.compare_with_minimizer(entries, run, taus, grid)
        del run   # ~1 MB and not read again: freed before the elliptic stage
        verdicts["oracle_consistency"] = cmp["decreasing"]
        summary["oracle_discrepancy"] = cmp
        write_csv(out_dir / "oracle_discrepancy.csv",
                  ["eps", "discrepancy"],
                  [[r["eps"], r["discrepancy"]] for r in cmp["rows"]])

    if rc.run_elliptic:
        log(f"[{rc.name}] elliptic equivalence and ladder")
        data_g = BoundaryData.make(data.v0, "dirichlet_only")
        eps, beta = rc.ladder.epsilons[1], rc.ladder.betas[1]
        eq = oracle_mod.check_elliptic_equivalence(
            spec, data_g, grid, eps, beta, rc.optimizer,
        )
        lad = _elliptic_ladder(rc, grid, data_g, out_dir)
        stage = _failed_rung(
            [(f"equivalence(eps={eps:g}, beta={beta:g})", eq["result"]),
             (f"equivalence_elliptic(beta={beta:g})", eq["elliptic"])]
            + lad["rungs"], log)
        if stage:
            summary["failed_stage"] = stage
            _write_summary(out_dir, summary)
            return 1, summary
        slat = diag.build_lattice(grid, 0.0, 1.0, rc.n_x_bumps, 1, rc.scales)
        srep = diag.check_stationary_inequalities(
            lad["w_segregated"], grid, spec, slat
        )
        ell_ok = (
            eq["temporal_variation"] <= 5e-3
            and eq["elliptic_gap"] <= 5e-3
            and lad["decay_ratio"] <= 1e-2
            and srep.passed
        )
        verdicts["elliptic_equivalence"] = bool(ell_ok)
        summary["elliptic"] = {
            "temporal_variation": eq["temporal_variation"],
            "elliptic_gap": eq["elliptic_gap"],
            "overlap_decay_ratio": lad["decay_ratio"],
            "stationary_inequalities_passed": srep.passed,
            "energies": [r.energy for r in lad["results"]],
        }

    failed = [k for k, v in verdicts.items() if not v]
    if failed:
        log(f"failed checks: {', '.join(failed)}")
        summary["failed_stage"] = f"check:{failed[0]}"
    else:
        log(f"[{rc.name}] all checks passed")
    _write_summary(out_dir, summary)
    return (1 if failed else 0), summary


def _failed_rung(rungs, log) -> str | None:
    """The stage of the first of ``rungs`` ((stage, result) pairs) that did
    not converge, logged, or None: the caller fails fast with that stage."""
    for stage, res in rungs:
        if not res.converged:
            log(f"stage {stage} did not converge (stop: "
                f"{res.stop_reason}, pg_norm={res.pg_norm:.3g})")
            return stage
    return None


def _elliptic_ladder(rc: RunConfig, grid: SpaceTimeGrid,
                     data_g: BoundaryData, out_dir: Path) -> dict:
    """The stationary beta ladder, written to ``elliptic_ladder.csv``, with
    its solves as (stage, result) pairs under ``rungs``."""
    lad = oracle_mod.elliptic_beta_ladder(
        rc.spec, data_g, grid, rc.ladder.betas, rc.optimizer
    )
    lad["rungs"] = [(f"elliptic(beta={b:g})", r)
                    for b, r in zip(lad["betas"], lad["results"])]
    lad["rungs"].append(("elliptic_refine", lad["refine"]))
    write_csv(out_dir / "elliptic_ladder.csv",
              ["beta", "overlap", "energy"],
              [[b, o, r.energy] for b, o, r in
               zip(lad["betas"], lad["overlaps"], lad["results"])])
    return lad


def _json_value(obj):
    """numpy scalars and arrays as Python values, anything else as text."""
    return obj.tolist() if isinstance(obj, (np.generic, np.ndarray)) \
        else str(obj)


def _write_summary(out_dir: Path, summary: dict) -> None:
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_value)
        fh.write("\n")


def _load_rc(args) -> RunConfig:
    rc = parse_config(args.config)
    if getattr(args, "out", None):
        rc.dir = args.out
    return rc


def cmd_run(args) -> int:
    rc = _load_rc(args)
    code, _ = run_pipeline(rc, Path(rc.dir))
    return code


def cmd_minimize(args) -> int:
    rc = _load_rc(args)
    grid, data = make_inputs(rc)
    res = minimize(rc.spec, data, grid, args.eps, args.beta, rc.optimizer)
    out = Path(rc.dir)
    out.mkdir(parents=True, exist_ok=True)
    write_field_csv(out / "minimizer.csv", res.field.values, grid.t, grid)
    print(f"J = {res.trace.J:.17g}  iters = {res.iters}  "
          f"converged = {res.converged}")
    stage = f"minimize(eps={args.eps:g}, beta={args.beta:g})"
    return 1 if _failed_rung([(stage, res)], print) else 0


def cmd_oracle(args) -> int:
    rc = _load_rc(args)
    dtau = rc.oracle_dtau if args.dtau is None else args.dtau
    if dtau <= 0:
        raise ConfigError("--dtau", "must be positive")
    if args.steps < 0:
        raise ConfigError("--steps", "must be at least 0")
    grid, data = make_inputs(rc)
    run = oracle_mod.step_parabolic(
        rc.spec, data, grid, args.beta, dtau, args.steps
    )
    out = Path(rc.dir)
    out.mkdir(parents=True, exist_ok=True)
    write_field_csv(out / "parabolic.csv", run.values, run.taus, grid)
    print(f"marched {args.steps} steps to tau = {run.taus[-1]:.17g}")
    return 0


def cmd_elliptic(args) -> int:
    rc = _load_rc(args)
    grid, data = make_inputs(rc)
    out = Path(rc.dir)
    out.mkdir(parents=True, exist_ok=True)
    lad = _elliptic_ladder(rc, grid,
                           BoundaryData.make(data.v0, "dirichlet_only"), out)
    print(f"overlap decay ratio = {lad['decay_ratio']:.17g}")
    return 1 if _failed_rung(lad["rungs"], print) else 0


def cmd_check(args) -> int:
    path = Path(args.artifacts) / "summary.json"
    if not path.exists():
        print(f"missing {path}", file=sys.stderr)
        return 2
    with open(path) as fh:
        summary = json.load(fh)
    verdicts = summary.get("verdicts", {})
    ok = True
    for k, v in sorted(verdicts.items()):
        print(f"{'PASS' if v else 'FAIL'}  {k}")
        ok &= bool(v)
    # a rung that did not converge stops the run before its later verdicts
    stage = summary.get("failed_stage", "check:")
    if not stage.startswith("check:"):
        print(f"FAIL  stage {stage}")
        ok = False
    return 0 if ok and verdicts else 1


def cmd_report(args) -> int:
    adir = Path(args.artifacts)
    expected = [
        "level_table.csv", "energy_rungs.csv", "overlap_decay.csv",
        "cauchy.csv", "inequality_residuals.csv", "uniform_windows.csv",
        "oracle_discrepancy.csv", "elliptic_ladder.csv",
    ]
    missing = [f for f in expected if not (adir / f).exists()]
    present = [f for f in expected if (adir / f).exists()]
    if not present:
        print("no report tables found; expected any of: "
              + ", ".join(expected), file=sys.stderr)
        return 2
    summary = adir / "summary.json"
    cauchy_tol = None
    if summary.exists():
        cauchy_tol = json.loads(summary.read_text()).get(
            "cauchy", {}).get("cauchy_tol")
    for fname in expected:
        fpath = adir / fname
        print(f"== {fname} ==")
        if not fpath.exists():
            print("   (absent)")
            continue
        with open(fpath) as fh:
            rows = list(csv.reader(fh))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        for r in rows:
            print("  " + "  ".join(v.rjust(w) for v, w in zip(r, widths)))
        if fname == "cauchy.csv" and cauchy_tol is not None:
            # reported beside the distances; no verdict reads it
            print(f"  cauchy_tol = {_fmt(cauchy_tol)}")
    if missing:
        print(f"absent tables: {', '.join(missing)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="wideseg",
        description="weighted space-time minimization and verification for "
                    "strongly competing species systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="full ladder pipeline with diagnostics")
    add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("minimize", help="single (eps, beta) minimization")
    add_common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("oracle", help="parabolic reference run")
    add_common(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--dtau", type=float,
                   help="step in original time (default: oracle_dtau)")
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("elliptic", help="stationary minimizer ladder")
    add_common(p)
    p.set_defaults(fn=cmd_elliptic)

    p = sub.add_parser("check", help="re-evaluate verdicts from artifacts")
    p.add_argument("--artifacts", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("report", help="print consolidated tables")
    p.add_argument("--artifacts", required=True)
    p.set_defaults(fn=cmd_report)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
