"""Config parsing, pipeline orchestration, and report emission.

Exit-code contract: 0 all enabled checks pass, 1 numerical failure (the
failing stage is named), 2 configuration failure (the offending field is
named).  Identical config and seed reproduce summary.json bit-for-bit
except for the ``meta`` block, which carries timestamps.
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
from .grid import SpaceTimeGrid, StateField, build_grid
from .model import (
    BC_MODES, BoundaryData, ReactionFamily, SystemSpec, preset_v0,
    validate_boundary, validate_system,
)
from .optimizer import OptimizerConfig, minimize


class ConfigError(Exception):
    """Configuration failure addressed to a specific field."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass
class RunConfig:
    name: str
    spec: SystemSpec
    preset: str
    bc_mode: str
    grid_kwargs: dict
    ladder: LadderSpec
    optimizer: OptimizerConfig
    n_x_bumps: int = 5
    n_t_bumps: int = 3
    scales: tuple = (0.12, 0.2)
    c_w: float = diag.C_W_DEFAULT
    run_oracle: bool = True
    run_elliptic: bool = True
    oracle_dtau: float = 1e-3
    out_dir: str = "out"
    raw: dict = field(default_factory=dict)


def _get(cp, sec, key, default, conv):
    label = f"{sec}.{key}"
    if not cp.has_option(sec, key):
        if default is None:
            raise ConfigError(label, "required field is missing")
        return default
    txt = cp.get(sec, key).strip()
    try:
        return conv(txt)
    except ConfigError:
        raise
    except Exception:
        raise ConfigError(label, f"cannot parse value {txt!r}")


def _set_keys(cp, sec, **convs) -> dict:
    """The keys of ``sec`` among ``convs`` that the file sets, parsed: the
    class they are passed to holds the default of every other key."""
    return {key: _get(cp, sec, key, None, conv)
            for key, conv in convs.items() if cp.has_option(sec, key)}


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

    name = _get(cp, "scenario", "name", Path(path).stem, str)

    k = _get(cp, "system", "k", None, int)
    A = _get(cp, "system", "A", None, _parse_matrix)
    spec = SystemSpec.make(
        k, A, **_set_keys(cp, "system", reactions=_parse_reactions))
    for where, msg in validate_system(spec):
        raise ConfigError(f"system.{where}", msg)

    preset = _get(cp, "boundary", "preset", "two_ramp", str)
    bc_mode = _get(cp, "boundary", "bc_mode", "dirichlet_and_initial", str)
    if bc_mode not in BC_MODES:
        raise ConfigError(
            "boundary.bc_mode", f"must be one of {', '.join(BC_MODES)}"
        )

    dim = _get(cp, "grid", "dim", 1, int)
    gk = {
        "dim": dim,
        "nx": _get(cp, "grid", "nx", 63, int),
        "Lx": _get(cp, "grid", "Lx", 1.0, float),
        "nt": _get(cp, "grid", "nt", 201, int),
        "T_r": _get(cp, "grid", "T_r", 20.0, float),
        **_set_keys(cp, "grid", tail_tol=float),
    }
    if dim == 2:
        gk["ny"] = _get(cp, "grid", "ny", 63, int)
        gk["Ly"] = _get(cp, "grid", "Ly", 1.0, float)

    floats = lambda txt: tuple(float(v) for v in txt.split())
    try:
        ladder = LadderSpec(**_set_keys(
            cp, "ladder", betas=floats, epsilons=floats, cauchy_tol=float))
    except ValueError as exc:
        raise ConfigError("ladder", str(exc))

    try:
        opt = OptimizerConfig(**_set_keys(
            cp, "optimizer", max_iters=int, grad_tol=float, seed=int))
    except ValueError as exc:
        raise ConfigError("optimizer", str(exc))

    diagnostics = _set_keys(
        cp, "diagnostics", n_x_bumps=int, n_t_bumps=int, scales=floats,
        c_w=float, run_oracle=_parse_bool, run_elliptic=_parse_bool,
        oracle_dtau=float)
    rc = RunConfig(
        name=name, spec=spec, preset=preset, bc_mode=bc_mode,
        grid_kwargs=gk, ladder=ladder, optimizer=opt,
        raw={s: dict(cp.items(s)) for s in cp.sections()}, **diagnostics,
    )
    if cp.has_option("output", "dir"):
        rc.out_dir = _get(cp, "output", "dir", None, str)
    return rc


def make_inputs(rc: RunConfig):
    """Grid and boundary data resolved from a parsed config."""
    try:
        grid = build_grid(**rc.grid_kwargs)
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


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def run_pipeline(rc: RunConfig, out_dir: Path, log=print):
    """Full ladder pipeline plus diagnostics.  Returns (exit_code, summary)."""
    if rc.run_elliptic:
        # the equivalence check solves at the second eps and beta
        for key in ("epsilons", "betas"):
            if len(getattr(rc.ladder, key)) < 2:
                raise ConfigError(f"ladder.{key}",
                                  "run_elliptic needs at least two values")
    out_dir.mkdir(parents=True, exist_ok=True)
    grid, data = make_inputs(rc)
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
    for eps in rc.ladder.epsilons:
        bl = dl.beta_results[eps]
        rungs = [(f"minimize(eps={eps:g}, beta={beta:g})", res)
                 for beta, res in zip(bl.betas, bl.results)]
        for stage, res in rungs + [(f"refine(eps={eps:g})", bl.refine)]:
            if not res.converged:
                log(f"stage {stage} did not converge (stop: "
                    f"{res.stop_reason}, pg_norm={res.pg_norm:.3g})")
                summary["failed_stage"] = stage
                _write_summary(out_dir, summary)
                return 1, summary

    # level estimate, energy identity, and E/I magnitude bounds per rung
    level_entries = []
    energy_rows = []
    window_rows = []
    overlap_rows = []
    win_vals, kin_vals = [], []
    for eps in rc.ladder.epsilons:
        bl = dl.beta_results[eps]
        Jc = competitor_value(data, grid, spec, eps)
        top = bl.results[-1]
        level_entries.append({
            "eps": eps, "J": top.trace.J, "J_competitor": Jc,
        })
        for beta, res in zip(bl.betas, bl.results):
            ei = diag.check_energy_identity(res.trace, res.converged)
            dt = grid.dt
            energy_rows.append([
                eps, beta, res.trace.J, ei["relative_residual"],
                float(np.max(np.abs(res.trace.E))),
                float(dt * res.trace.I.sum()),
            ])
            taus_w = np.linspace(0.0, 8.0 * eps, 161)
            vo = to_original_time(res.field, eps, taus_w)
            rep = diag.check_uniform_windows(
                vo, taus_w, grid, spec, beta, diag.default_windows(eps)
            )
            window_rows.append([
                eps, beta, rep["windowed_max"], rep["sup_norm"], rep["kinetic"],
            ])
            win_vals.append(rep["windowed_max"])
            kin_vals.append(rep["kinetic"])
        for beta, bo in zip(bl.betas, bl.beta_overlap):
            overlap_rows.append([eps, beta, bo])

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
    write_csv(out_dir / "energy_rungs.csv",
              ["eps", "beta", "J", "energy_residual", "E_max_abs", "I_total"],
              energy_rows)

    e_ok = i_ok = True
    cap_per_eps = (competitor_value(data, grid, spec, 1.0)
                   + spec.M_bound * grid.volume)
    for row in energy_rows:
        cap = row[0] * cap_per_eps
        e_ok &= row[4] <= cap * 1.02 + 1e-6
        i_ok &= row[5] <= 0.5 * cap * 1.02 + 1e-6
    verdicts["energy_integral_bounds"] = bool(e_ok and i_ok)

    sup_ok = all(r[3] <= 1.0 for r in window_rows)
    w_spread = max(win_vals) / max(min(win_vals), 1e-300)
    k_spread = max(kin_vals) / max(min(kin_vals), 1e-300)
    verdicts["uniformity"] = bool(sup_ok and w_spread <= 3.0
                                  and k_spread <= 3.0)
    summary["uniformity"] = {
        "sup_ok": sup_ok, "window_spread": w_spread, "kinetic_spread": k_spread,
    }
    write_csv(out_dir / "uniform_windows.csv",
              ["eps", "beta", "windowed_max", "sup_norm", "kinetic"],
              window_rows)

    # overlap decay in beta, per eps
    decay_ok = True
    for eps in rc.ladder.epsilons:
        bo = dl.beta_results[eps].beta_overlap
        if bo[0] > 0:
            decay_ok &= bo[-1] <= 1e-2 * bo[0]
    hard_zero = all(
        diag.overlap(dl.beta_results[eps].v_eps)[0] == 0.0
        for eps in rc.ladder.epsilons
    )
    verdicts["overlap_decay"] = bool(decay_ok and hard_zero)
    summary["overlap_hard_projected_zero"] = hard_zero
    write_csv(out_dir / "overlap_decay.csv",
              ["eps", "beta", "beta_times_overlap"], overlap_rows)

    # Cauchy behavior of the eps ladder
    cauchy_ok = all(
        dl.cauchy[i + 1][2] <= 1.1 * dl.cauchy[i][2]
        for i in range(len(dl.cauchy) - 1)
    )
    verdicts["cauchy"] = bool(cauchy_ok)
    write_csv(out_dir / "cauchy.csv",
              ["eps_hi", "eps_lo", "distance"], dl.cauchy)

    # weak inequalities: v_eps (with eps term) and w (eps_term = 0)
    eps_min = rc.ladder.epsilons[-1]
    taus = np.linspace(0.0, dl.tau_max, 101)
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
            vo, taus, grid, spec, eterm, lat, rc.c_w
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
        verdicts["oracle_consistency"] = cmp["decreasing"]
        summary["oracle_discrepancy"] = cmp
        write_csv(out_dir / "oracle_discrepancy.csv",
                  ["eps", "discrepancy"],
                  [[r["eps"], r["discrepancy"]] for r in cmp["rows"]])

    if rc.run_elliptic:
        log(f"[{rc.name}] elliptic equivalence and ladder")
        data_g = _dirichlet_only(data)
        eq = oracle_mod.check_elliptic_equivalence(
            spec, data_g, grid, rc.ladder.epsilons[1], rc.ladder.betas[1],
            rc.optimizer,
        )
        lad = _elliptic_ladder(rc, grid, data_g, out_dir)
        slat = diag.build_lattice(grid, 0.0, 1.0, rc.n_x_bumps, 1, rc.scales)
        srep = diag.check_stationary_inequalities(
            lad["w_segregated"], grid, spec, slat, rc.c_w
        )
        ell_ok = (
            eq["all_converged"] and lad["all_converged"]
            and eq["temporal_variation"] <= 5e-3
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

    _write_summary(out_dir, summary)
    failed = [k for k, v in verdicts.items() if not v]
    if failed:
        log(f"failed checks: {', '.join(failed)}")
        summary["failed_stage"] = f"check:{failed[0]}"
        _write_summary(out_dir, summary)
        return 1, summary
    log(f"[{rc.name}] all checks passed")
    return 0, summary


def _dirichlet_only(data: BoundaryData) -> BoundaryData:
    """v0 with only its Dirichlet trace pinned, for the stationary checks."""
    return BoundaryData.make(np.array(data.v0), "dirichlet_only")


def _elliptic_ladder(rc: RunConfig, grid: SpaceTimeGrid,
                     data_g: BoundaryData, out_dir: Path) -> dict:
    """The stationary beta ladder, written to ``elliptic_ladder.csv``."""
    lad = oracle_mod.elliptic_beta_ladder(
        rc.spec, data_g, grid, rc.ladder.betas, rc.optimizer
    )
    write_csv(out_dir / "elliptic_ladder.csv",
              ["beta", "overlap", "energy"],
              [[b, o, r.energy] for b, o, r in
               zip(lad["betas"], lad["overlaps"], lad["results"])])
    return lad


def _write_summary(out_dir: Path, summary: dict) -> None:
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_json_ready(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_rc(args) -> RunConfig:
    rc = parse_config(args.config)
    if getattr(args, "out", None):
        rc.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        rc.optimizer.seed = args.seed
    return rc


def cmd_run(args) -> int:
    rc = _load_rc(args)
    code, _ = run_pipeline(rc, Path(rc.out_dir))
    return code


def cmd_minimize(args) -> int:
    rc = _load_rc(args)
    grid, data = make_inputs(rc)
    res = minimize(rc.spec, data, grid, args.eps, args.beta, rc.optimizer)
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_field_csv(out / "minimizer.csv", res.field.values, grid.t, grid)
    print(f"J = {res.trace.J:.17g}  iters = {res.iters}  "
          f"converged = {res.converged}")
    return 0 if res.converged else 1


def cmd_oracle(args) -> int:
    rc = _load_rc(args)
    grid, data = make_inputs(rc)
    run = oracle_mod.step_parabolic(
        rc.spec, data, grid, args.beta, args.dtau, args.steps
    )
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_field_csv(out / "parabolic.csv", run.values, run.taus, grid)
    print(f"marched {args.steps} steps to tau = {run.taus[-1]:.17g}")
    return 0


def cmd_elliptic(args) -> int:
    rc = _load_rc(args)
    grid, data = make_inputs(rc)
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lad = _elliptic_ladder(rc, grid, _dirichlet_only(data), out)
    print(f"overlap decay ratio = {lad['decay_ratio']:.17g}")
    return 0 if lad["all_converged"] else 1


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
    return 0 if ok and verdicts else 1


def cmd_report(args) -> int:
    adir = Path(args.artifacts)
    expected = [
        "level_table.csv", "overlap_decay.csv", "cauchy.csv",
        "inequality_residuals.csv", "uniform_windows.csv",
    ]
    missing = [f for f in expected if not (adir / f).exists()]
    present = [f for f in expected if (adir / f).exists()]
    if not present:
        print("no report tables found; expected any of: "
              + ", ".join(expected), file=sys.stderr)
        return 2
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
        p.add_argument("--seed", type=int, default=None)

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
    p.add_argument("--dtau", type=float, default=1e-3)
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
