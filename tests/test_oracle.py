import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import wideseg
from wideseg.grid import SpaceTimeGrid, resample_in_time
from wideseg.model import BoundaryData, ReactionFamily, SystemSpec, preset_v0
from wideseg.optimizer import OptimizerConfig
from wideseg.oracle import (
    _stiffness, check_elliptic_equivalence, compare_with_minimizer,
    elliptic_beta_ladder, elliptic_energy, minimize_elliptic, spatial_overlap,
    step_parabolic,
)

T_R = 20.0


def setup(nx=15, nt=21):
    g = SpaceTimeGrid(1, nx, 1.0, nt, T_R)
    spec = SystemSpec.make(2, [[0, 1], [1, 0]])
    data = BoundaryData.make(
        preset_v0("two_ramp", g.x_field(), 2), "dirichlet_and_initial"
    )
    return g, spec, data


def spsolve_march(spec, data, grid, beta, dtau, n_steps):
    """The IMEX march with a sparse direct solve of the same assembled
    matrix (identity rows at the pinned nodes) at every step and species."""
    K = _stiffness(grid)
    m = grid.space_weights.ravel()
    pinned = grid.boundary_mask.ravel() & data.pins_dirichlet
    free = 1.0 - pinned
    rhs_op = sp.diags(m / dtau) - 0.5 * K
    lhs = sp.diags(free) @ (sp.diags(m / dtau) + 0.5 * K) + sp.diags(1 - free)
    v = data.v0.reshape(spec.k, -1).copy()
    trace = v[:, pinned]
    out = [v]
    for _ in range(n_steps):
        cross = spec.A @ (v * v)
        rhs = (rhs_op @ v.T).T + m * spec.f_all(v)
        rhs[:, pinned] = trace
        v = np.array([
            spsolve((lhs + sp.diags(beta * m * free * cross[i])).tocsc(),
                    rhs[i])
            for i in range(spec.k)
        ])
        v = np.clip(v, 0.0, 1.0)
        out.append(v)
    return np.stack(out, axis=1).reshape(
        (spec.k, n_steps + 1) + grid.space_shape)


def heat_exact(x, tau, n_modes=200):
    """Dirichlet heat solution on (0,1) from u0 = sin(pi x)."""
    return np.sin(np.pi * x) * np.exp(-np.pi**2 * tau)


class TestParabolicStepper:
    def test_heat_benchmark_accuracy(self):
        # single decoupled species, no reaction, no penalty: compare the
        # IMEX march against the exact sine-mode decay
        g = SpaceTimeGrid(1, 63, 1.0, 21, T_R)
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        v0 = np.zeros((2, 65))
        v0[0] = np.sin(np.pi * g.x)
        data = BoundaryData.make(v0, "dirichlet_and_initial")
        run = step_parabolic(spec, data, g, 0.0, 1e-3, 100)
        exact = heat_exact(g.x, run.taus[-1])
        err = np.max(np.abs(run.values[0, -1] - exact)) / exact.max()
        assert err < 0.02
        assert np.max(np.abs(run.values[1])) == 0.0

    def test_time_refinement_ratio(self):
        # halving the step should shrink the error by about 4 (second order)
        g = SpaceTimeGrid(1, 63, 1.0, 21, T_R)
        spec = SystemSpec.make(1, [[0.0]])
        v0 = np.sin(np.pi * g.x)[None]
        data = BoundaryData.make(v0, "dirichlet_and_initial")
        errs = []
        for dtau in (4e-3, 2e-3):
            n = round(0.1 / dtau)
            run = step_parabolic(spec, data, g, 0.0, dtau, n)
            # compare against a much finer march to isolate time error
            ref = step_parabolic(spec, data, g, 0.0, dtau / 16, 16 * n)
            errs.append(np.max(np.abs(run.values[0, -1] - ref.values[0, -1])))
        assert errs[0] / errs[1] >= 3.0

    def test_superposition_at_zero_beta(self):
        # with beta = 0 and no reaction the components evolve independently
        g = SpaceTimeGrid(1, 15, 1.0, 11, T_R)
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        rng = np.random.default_rng(0)
        v0 = rng.uniform(0, 1, (2, 17))
        v0[:, 0] = v0[:, -1] = 0.0
        data = BoundaryData.make(v0, "dirichlet_and_initial")
        run = step_parabolic(spec, data, g, 0.0, 1e-3, 50)
        spec1 = SystemSpec.make(1, [[0.0]])
        for i in range(2):
            d1 = BoundaryData.make(v0[i:i + 1], "dirichlet_and_initial")
            r1 = step_parabolic(spec1, d1, g, 0.0, 1e-3, 50)
            np.testing.assert_allclose(
                run.values[i], r1.values[0], atol=1e-12
            )

    def test_penalty_suppresses_overlap(self):
        g = SpaceTimeGrid(1, 15, 1.0, 11, T_R)
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        data = BoundaryData.make(np.full((2, 17), 0.5), "initial_only")
        free = step_parabolic(spec, data, g, 0.0, 1e-3, 200)
        pen = step_parabolic(spec, data, g, 1000.0, 1e-3, 200)
        assert np.max(pen.values[:, -1]) < 0.5 * np.max(free.values[:, -1])

    def test_stability_precheck(self):
        g, _, data = setup(nx=7, nt=11)
        spec = SystemSpec.make(
            2, [[0, 1], [1, 0]], [ReactionFamily("cubic", 10.0)] * 2
        )
        data = BoundaryData.make(data.v0, "dirichlet_and_initial")
        with pytest.raises(ValueError, match="unstable"):
            step_parabolic(spec, data, g, 0.0, 0.1, 5)

    def test_values_stay_in_box(self):
        g, spec, data = setup(nx=15, nt=11)
        run = step_parabolic(spec, data, g, 100.0, 1e-3, 300)
        assert run.values.min() >= 0.0 and run.values.max() <= 1.0

    def test_sample_and_compare(self):
        g, spec, data = setup(nx=15, nt=21)
        run = step_parabolic(spec, data, g, 10.0, 1e-3, 500)
        taus = np.linspace(0.0, 0.5, 26)
        s = resample_in_time(run.taus, run.values, taus)
        assert s.shape == (2, 26, 17)
        from wideseg.continuation import run_beta_ladder
        bl = run_beta_ladder(
            spec, data, g, 0.1, (10.0,), OptimizerConfig(max_iters=1500)
        )
        rep = compare_with_minimizer(
            [(0.1, bl.results[0].field)], run, taus, g
        )
        assert len(rep["rows"]) == 1
        assert rep["rows"][0]["discrepancy"] < 1.0
        assert rep["decreasing"]

    def test_2d_march_of_x_only_data_matches_1d(self):
        # without Dirichlet pins the y-direction is a no-flux direction, so
        # data varying in x alone must march as in 1-D, column by column
        cubic = [ReactionFamily("cubic", 1.0)] * 2
        spec = SystemSpec.make(2, [[0, 1], [1, 0]], cubic)
        g1 = SpaceTimeGrid(1, 15, 1.0, 5, T_R)
        g2 = SpaceTimeGrid(2, 15, 1.0, 5, T_R, ny=6, Ly=0.7)
        runs = [
            step_parabolic(spec, BoundaryData.make(
                preset_v0("two_ramp", g.x_field(), 2), "initial_only"),
                g, 100.0, 1e-3, 200)
            for g in (g1, g2)
        ]
        ref = runs[0].values[..., None]
        assert runs[1].values.shape == (2, 201, 17, 8)
        assert np.max(np.abs(runs[1].values - ref)) <= 1e-12

    @pytest.mark.parametrize("dim, nx, ny, mode", [
        (1, 15, 0, "dirichlet_and_initial"),
        (1, 15, 0, "initial_only"),
        (2, 7, 4, "dirichlet_and_initial"),
        (2, 4, 7, "initial_only"),
    ], ids=["1d-dirichlet", "1d-initial", "2d-7x4", "2d-4x7"])
    def test_band_march_matches_sparse_solve(self, dim, nx, ny, mode):
        # nx != ny in 2-D: a band offset of +-1 where the y-stride is due
        # (or the reverse) changes the march
        cubic = [ReactionFamily("cubic", 1.0)] * 2
        spec = SystemSpec.make(2, [[0, 1], [1, 0]], cubic)
        g = SpaceTimeGrid(dim, nx, 1.0, 5, T_R, ny=ny or 63, Ly=0.7)
        v0 = preset_v0("two_ramp", g.x_field(), 2)
        if dim == 2:
            # vary in y as well, so the y-coupling carries weight
            v0 = v0 * (0.5 + 0.5 * np.sin(np.pi * g.coords[1] / 0.7))
        data = BoundaryData.make(v0, mode)
        run = step_parabolic(spec, data, g, 100.0, 1e-3, 60)
        ref = spsolve_march(spec, data, g, 100.0, 1e-3, 60)
        assert run.values.shape == ref.shape
        assert np.max(np.abs(run.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_import_leaves_sparse_linalg_unloaded(self):
        # every factorization in the package is a LAPACK band routine
        src = str(Path(wideseg.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", "import sys, wideseg.cli; "
             "print('scipy.sparse.linalg' in sys.modules)"],
            env=env, check=True, stdout=subprocess.PIPE, text=True,
            timeout=120)
        assert out.stdout.strip() == "False"


class TestElliptic:
    def test_linear_ramp_is_exact_minimizer(self):
        # w = x with zero reaction and penalty: energy 1, no iterations
        g = SpaceTimeGrid(1, 31, 1.0, 5, T_R)
        spec = SystemSpec.make(1, [[0.0]])
        data = BoundaryData.make(g.x[None].copy(), "dirichlet_only")
        res = minimize_elliptic(spec, data, g, 0.0)
        assert res.converged and res.iters == 0
        assert res.energy == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(res.w[0], g.x, atol=1e-12)

    def test_energy_bounded_by_initial_guess(self):
        g, spec, data = setup(nx=31)
        res = minimize_elliptic(spec, data, g, 100.0)
        assert res.converged and res.stop_reason == "converged"
        assert res.energy <= elliptic_energy(data.v0, g, spec, 100.0) + 1e-12

    def test_iteration_cap_reported(self):
        g, spec, data = setup(nx=31)
        res = minimize_elliptic(spec, data, g, 100.0,
                                OptimizerConfig(max_iters=2))
        assert not res.converged
        assert res.stop_reason == "max_iters"
        assert res.iters == 1

    def test_spatial_overlap_constant_half(self):
        g, spec, _ = setup()
        w = np.full((2, 17), 0.5)
        assert spatial_overlap(w, g, spec) == pytest.approx(1.0 / 8.0)

    def test_beta_ladder_overlap_decays(self):
        g, spec, data = setup(nx=31)
        data = BoundaryData.make(data.v0, "dirichlet_only")
        rep = elliptic_beta_ladder(
            spec, data, g, (10.0, 100.0, 1000.0),
            OptimizerConfig(max_iters=3000),
        )
        assert rep["all_converged"]
        assert rep["decay_ratio"] < 0.5
        w = rep["w_segregated"]
        assert np.max(w[0] * w[1]) == 0.0

    def test_initial_only_data_keeps_the_trace(self):
        # the stationary problem pins the lateral trace whatever bc_mode
        # says: its metric is built on the nodes the descent really frees,
        # so initial_only data gives the dirichlet_only minimizer
        g, spec, data = setup(nx=31)
        runs = [minimize_elliptic(spec, BoundaryData.make(data.v0, mode), g,
                                  100.0)
                for mode in ("initial_only", "dirichlet_only")]
        bm = g.boundary_mask
        assert runs[0].converged
        assert np.array_equal(runs[0].w[:, bm], data.v0[:, bm])
        assert np.array_equal(runs[0].w, runs[1].w)

    def test_2d_ladder_refine_takes_one_step(self, monkeypatch):
        # the penalty-free refine minimizes the quadratic form that the
        # one-slice FreeBlockInverse inverts on its frozen partition
        from wideseg import oracle

        g = SpaceTimeGrid(2, 9, 1.0, 5, T_R, ny=7, Ly=0.8)
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        data = BoundaryData.make(preset_v0("two_ramp", g.x_field(), 2),
                                 "dirichlet_only")
        calls = []
        real = oracle.minimize_elliptic

        def spy(*args, **kwargs):
            calls.append((kwargs.get("support"), real(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(oracle, "minimize_elliptic", spy)
        rep = elliptic_beta_ladder(spec, data, g, (10.0, 100.0, 1000.0))
        assert rep["all_converged"]
        assert [s is None for s, _ in calls] == [True, True, True, False]
        assert calls[-1][1].converged and calls[-1][1].iters == 1
        w = rep["w_segregated"]
        assert np.max(w[0] * w[1]) == 0.0
        assert rep["decay_ratio"] < 0.5

    def test_2d_small_run(self):
        g = SpaceTimeGrid(2, 5, 1.0, 5, T_R, ny=5, Ly=1.0)
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        v0 = np.zeros((2, 7, 7))
        v0[0] = g.x[:, None] * (1 - g.y[None, :])
        v0[1] = (1 - g.x[:, None]) * g.y[None, :]
        v0 = np.where(v0[0:1] >= v0[1:2], v0 * np.array([1.0, 0.0])[:, None, None],
                      v0 * np.array([0.0, 1.0])[:, None, None])
        data = BoundaryData.make(v0, "dirichlet_and_initial")
        run = step_parabolic(spec, data, g, 10.0, 1e-3, 20)
        assert run.values.shape == (2, 21, 7, 7)
        assert run.values.min() >= 0.0 and run.values.max() <= 1.0
        bm = g.boundary_mask
        pinned = run.values[:, :, bm]
        assert np.array_equal(
            pinned, np.broadcast_to(v0[:, bm][:, None], pinned.shape))


class TestEllipticEquivalence:
    def test_requires_dirichlet_only(self):
        g, spec, data = setup(nx=7, nt=11)
        with pytest.raises(ValueError, match="dirichlet_only"):
            check_elliptic_equivalence(spec, data, g, 0.1, 10.0)

    def test_free_initial_slice_relaxes_to_stationary(self):
        g, spec, data = setup(nx=15, nt=21)
        data = BoundaryData.make(data.v0, "dirichlet_only")
        rep = check_elliptic_equivalence(
            spec, data, g, 0.1, 100.0, OptimizerConfig(max_iters=3000)
        )
        assert rep["all_converged"]
        assert rep["temporal_variation"] < 1e-3
        assert rep["elliptic_gap"] < 1e-2
