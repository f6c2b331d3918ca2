"""Acceptance gate: twelve desk-scale checks on the default scenario.

Every test here prints one pass/fail line under ``pytest -v``.  The
scenario is the two-species symmetric system with ramp data on the unit
interval at the standard desk-scale mesh (nx=63, nt=201, rescaled horizon
20), driven through the full 4 x 4 penalty-regularization ladder product.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from wideseg import grid as gridmod
from wideseg.cli import main
from wideseg.continuation import LadderSpec, run_eps_ladder, to_original_time
from wideseg.diagnostics import (
    build_lattice, check_stationary_inequalities, check_uniform_windows,
    check_weak_inequalities, default_windows,
)
from wideseg.functional import (
    energy_identity_residual, eval_J_value, grad_J,
)
from wideseg.grid import SpaceTimeGrid, StateField
from wideseg.model import BoundaryData, ReactionFamily, SystemSpec, preset_v0
from wideseg.optimizer import OptimizerConfig, minimize
from wideseg.oracle import (
    check_elliptic_equivalence, compare_with_minimizer, elliptic_beta_ladder,
    step_parabolic,
)

NX, NT, T_R = 63, 201, 20.0
BETAS = (10.0, 100.0, 1000.0, 10000.0)
EPSILONS = (0.2, 0.1, 0.05, 0.025)


@pytest.fixture(scope="session")
def desk():
    g = SpaceTimeGrid(1, NX, 1.0, NT, T_R)
    spec = SystemSpec.make(2, [[0, 1], [1, 0]])
    data = BoundaryData.make(
        preset_v0("two_ramp", g.x_field(), 2), "dirichlet_and_initial"
    )
    return g, spec, data


@pytest.fixture(scope="session")
def ladder_run(desk):
    g, spec, data = desk
    dl = run_eps_ladder(
        spec, data, g, LadderSpec(betas=BETAS, epsilons=EPSILONS),
        OptimizerConfig(),
    )
    assert dl.all_converged, "ladder minimizations did not all converge"
    return dl


def test_criterion_01_gradient_correctness(desk):
    g, spec, data = desk
    fm = gridmod.free_mask(g, data)
    free = np.argwhere(fm)
    # round-off in J (around 1e-14 absolute on this mesh) divided by h
    # dominates the probe error, so the step is kept generous and the
    # fourth-order stencil keeps truncation negligible at this size
    h = 1e-3
    worst = 0.0
    for eps, beta in [(EPSILONS[0], BETAS[0]), (EPSILONS[0], BETAS[-1]),
                      (EPSILONS[-1], BETAS[0]), (EPSILONS[-1], BETAS[-1])]:
        for field_seed in range(5):
            rng = np.random.default_rng(100 * field_seed + 7)
            u = rng.uniform(0, 1, (2, NT, NX + 2))
            gridmod.impose_pins(u, g, data)
            grad = grad_J(StateField(u, g, spec), eps, beta, data)
            idx = rng.choice(len(free), size=50, replace=False)
            fds, ans = [], []
            for n in idx:
                j, p = free[n]
                i = int(rng.integers(0, 2))

                def at(delta):
                    v = u.copy()
                    v[i, j, p] += delta
                    return eval_J_value(StateField(v, g, spec), eps, beta)

                fd = (
                    at(-2 * h) - 8 * at(-h) + 8 * at(h) - at(2 * h)
                ) / (12 * h)
                fds.append(fd)
                ans.append(grad[i, j, p])
            fds, ans = np.asarray(fds), np.asarray(ans)
            # relative error with a floor that sidesteps finite-difference
            # cancellation on the exponentially tiny late-time coordinates
            den = np.maximum(np.abs(fds), 1e-3 * np.max(np.abs(fds)))
            worst = max(worst, float(np.max(np.abs(fds - ans) / den)))
    assert worst <= 1e-6, f"worst relative gradient error {worst:.3g}"


def test_criterion_02_level_estimate(desk, ladder_run):
    g, spec, data = desk
    mass = 1.0 - np.exp(-T_R)
    ratios = []
    for eps in EPSILONS:
        J = ladder_run.beta_results[eps].results[-1].trace.J
        assert 0.0 <= J <= 4.0 * eps * mass * 1.02, (eps, J)
        ratios.append(abs(J) / eps)
    assert max(ratios) / min(ratios) <= 4.0
    # cubic-reaction variant: J bounded below by -eps M |Omega| = -eps/3
    spec_c = SystemSpec.make(2, [[0, 1], [1, 0]],
                             [ReactionFamily("cubic", 1.0)] * 2)
    for eps in EPSILONS:
        res = minimize(spec_c, data, g, eps, BETAS[0])
        assert res.converged, eps
        assert res.trace.J >= -eps / 3.0 * 1.02, (eps, res.trace.J)


def test_criterion_03_energy_identity(ladder_run):
    worst = 0.0
    for eps in EPSILONS:
        for res in ladder_run.beta_results[eps].results:
            _, rel, mask = energy_identity_residual(res.trace)
            assert mask.any()
            worst = max(worst, rel)
    assert worst <= 5e-2, f"worst relative energy residual {worst:.3g}"


def test_criterion_04_energy_integral_bounds(desk, ladder_run):
    g, _, _ = desk
    mass = 1.0 - np.exp(-T_R)
    for eps in EPSILONS:
        for res in ladder_run.beta_results[eps].results:
            tr = res.trace
            assert np.max(np.abs(tr.E)) <= 4.0 * eps * mass * 1.02, eps
            assert g.dt * tr.I.sum() <= 2.0 * eps * mass * 1.02, eps


def test_criterion_05_uniformity(desk, ladder_run):
    g, spec, _ = desk
    win_vals, kin_vals = [], []
    for eps in EPSILONS:
        bl = ladder_run.beta_results[eps]
        for beta, res in zip(bl.betas, bl.results):
            taus = np.linspace(0.0, 8.0 * eps, 161)
            vo = to_original_time(res.field, eps, taus)
            rep = check_uniform_windows(
                vo, taus, g, spec, beta, default_windows(eps)
            )
            assert rep["sup_norm"] <= 1.0, (eps, beta)
            win_vals.append(rep["windowed_max"])
            kin_vals.append(rep["kinetic"])
    w_spread = max(win_vals) / min(win_vals)
    k_spread = max(kin_vals) / min(kin_vals)
    assert w_spread <= 3.0, f"windowed quantity spread {w_spread:.3g}"
    assert k_spread <= 3.0, f"kinetic integral spread {k_spread:.3g}"


def test_criterion_06_segregation_beta_limit(ladder_run):
    from wideseg.diagnostics import overlap
    for eps in EPSILONS:
        bl = ladder_run.beta_results[eps]
        assert overlap(bl.v_eps)[0] == 0.0, eps
    for eps in EPSILONS:
        bl = ladder_run.beta_results[eps]
        ratio = bl.beta_overlap[-1] / bl.beta_overlap[0]
        assert ratio <= 1e-2, (
            f"eps={eps}: beta*overlap at beta={BETAS[-1]:g} is {ratio:.3g} "
            f"times its value at beta={BETAS[0]:g} (need <= 1e-2)"
        )


def test_criterion_07_weak_inequalities(desk, ladder_run):
    g, spec, _ = desk
    dl = ladder_run
    eps_min = EPSILONS[-1]
    taus = np.linspace(0.0, dl.tau_max, 101)
    lat = build_lattice(g, 0.0, dl.tau_max, n_x=5, n_t=3, scales=(0.12, 0.2))
    assert len(lat.bumps) == 30
    for fld, eterm in ((dl.beta_results[eps_min].v_eps, eps_min),
                       (dl.w, 0.0)):
        vo = to_original_time(fld, eps_min, taus)
        rep = check_weak_inequalities(vo, taus, g, spec, eterm, lat)
        assert rep.passed, (
            f"eps_term={eterm}: worst violation {rep.worst_violation:.3g}, "
            f"max A {rep.A.max():.3g}, min B {rep.B.min():.3g}, "
            f"tol min {rep.tol.min():.3g}"
        )


def test_criterion_08_cauchy_double_limit(ladder_run):
    d = [c[2] for c in ladder_run.cauchy]
    assert len(d) == len(EPSILONS) - 1
    for i in range(len(d) - 1):
        assert d[i + 1] <= 1.1 * d[i], f"distances {d}"


def test_criterion_09_oracle_calibration():
    g = SpaceTimeGrid(1, NX, 1.0, 21, T_R)
    spec = SystemSpec.make(1, [[0.0]])
    v0 = np.sin(np.pi * g.x)[None]
    data = BoundaryData.make(v0, "dirichlet_and_initial")
    run = step_parabolic(spec, data, g, 0.0, 1e-3, 100)
    exact = np.sin(np.pi * g.x) * np.exp(-np.pi**2 * 0.1)
    err = np.max(np.abs(run.values[0, -1] - exact)) / exact.max()
    assert err <= 0.02, f"heat benchmark max-norm error {err:.3g}"

    errs = []
    for dtau in (4e-3, 2e-3):
        n = round(0.1 / dtau)
        coarse = step_parabolic(spec, data, g, 0.0, dtau, n)
        ref = step_parabolic(spec, data, g, 0.0, dtau / 16, 16 * n)
        errs.append(np.max(np.abs(coarse.values[0, -1] - ref.values[0, -1])))
    assert errs[0] / errs[1] >= 3.0, f"refinement ratio {errs[0] / errs[1]:.3g}"


def test_criterion_10_regularization_consistency(desk, ladder_run):
    g, spec, data = desk
    dl = ladder_run
    taus = np.linspace(0.0, dl.tau_max, 101)
    n_steps = int(np.ceil(dl.tau_max / 1e-3))
    run = step_parabolic(spec, data, g, BETAS[0], 1e-3, n_steps)
    entries = [(eps, dl.beta_results[eps].results[0].field)
               for eps in EPSILONS]
    rep = compare_with_minimizer(entries, run, taus, g)
    assert rep["decreasing"], [r["discrepancy"] for r in rep["rows"]]


def test_criterion_11_elliptic_equivalence(desk):
    g, spec, data = desk
    data_g = BoundaryData.make(np.array(data.v0), "dirichlet_only")
    eq = check_elliptic_equivalence(
        spec, data_g, g, EPSILONS[1], BETAS[1], OptimizerConfig()
    )
    assert eq["all_converged"]
    assert eq["temporal_variation"] <= 5e-3, eq["temporal_variation"]
    assert eq["elliptic_gap"] <= 5e-3, eq["elliptic_gap"]

    lad = elliptic_beta_ladder(spec, data_g, g, BETAS, OptimizerConfig())
    assert lad["all_converged"]
    assert lad["decay_ratio"] <= 1e-2, lad["decay_ratio"]

    slat = build_lattice(g, 0.0, 1.0, n_x=5, n_t=1, scales=(0.12, 0.2))
    srep = check_stationary_inequalities(lad["w_segregated"], g, spec, slat)
    assert srep.passed, (
        f"stationary: max A {srep.A.max():.3g}, min B {srep.B.min():.3g}, "
        f"tol min {srep.tol.min():.3g}"
    )


DETERMINISM_CFG = """\
[scenario]
name = determinism

[system]
k = 2
A = 0 1; 1 0

[grid]
nx = 15
nt = 21

[ladder]
betas = 10 100
epsilons = 0.2 0.1

[optimizer]
max_iters = 1500

[diagnostics]
n_x_bumps = 3
n_t_bumps = 2
run_oracle = false
run_elliptic = false
"""


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DETERMINISM_CFG)
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        main(["run", "--config", str(cfg), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        summary.pop("meta")
        blobs.append(json.dumps(summary, sort_keys=True))
    assert blobs[0] == blobs[1]
