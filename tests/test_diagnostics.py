import numpy as np
import pytest

from wideseg.diagnostics import (
    Bump, build_lattice, check_energy_identity,
    check_level_estimate_across_ladder, check_stationary_inequalities,
    check_uniform_windows, check_weak_inequalities, default_windows, overlap,
    weak_tolerance,
)
from wideseg.functional import competitor_field, eval_J
from wideseg.grid import SpaceTimeGrid, StateField
from wideseg.model import BoundaryData, SystemSpec, preset_v0
from wideseg.oracle import step_parabolic

T_R = 20.0


def setup(nx=15, nt=21):
    g = SpaceTimeGrid(1, nx, 1.0, nt, T_R)
    spec = SystemSpec.make(2, [[0, 1], [1, 0]])
    data = BoundaryData.make(
        preset_v0("two_ramp", g.x_field(), 2), "dirichlet_and_initial"
    )
    return g, spec, data


class TestOverlap:
    def test_constant_half_field(self):
        # <v^2, A v^2> = 1/8 pointwise: integral (1/8)(1 - e^{-T_r}), sup 1/8
        g, spec, _ = setup()
        f = StateField(np.full((2, 21, 17), 0.5), g, spec)
        integ, sup = overlap(f)
        assert integ == pytest.approx((1.0 - np.exp(-T_R)) / 8.0, rel=1e-12)
        assert sup == pytest.approx(1.0 / 8.0)

    def test_segregated_field_is_zero(self):
        g, spec, data = setup()
        integ, sup = overlap(competitor_field(data, g, spec))
        assert integ == 0.0 and sup == 0.0


#: a 1-D grid and a non-square 2-D grid for the dimension-generic checks
WEAK_GRIDS = {
    "1d": SpaceTimeGrid(1, 15, 1.0, 21, T_R),
    "2d": SpaceTimeGrid(2, 9, 1.0, 21, T_R, ny=7, Ly=0.8),
}


class TestBumpLattice:
    def test_counts_and_support(self):
        for name, g in WEAK_GRIDS.items():
            lat = build_lattice(g, 0.0, 2.0, n_x=5, n_t=3, scales=(0.12, 0.2))
            assert len(lat.bumps) == 2 * 5 ** g.dim * 3, name
            assert lat.skipped == 0, name
            for b in lat.bumps:
                assert b.rx < b.xc < g.Lx - b.rx
                assert b.rt < b.tc - 0.0 and b.tc + b.rt < 2.0
                if g.dim == 2:
                    assert b.ry < b.yc < g.Ly - b.ry

    def test_oversized_scale_skipped(self):
        g, _, _ = setup()
        lat = build_lattice(g, 0.0, 2.0, n_x=5, n_t=3, scales=(0.12, 0.6))
        assert len(lat.bumps) == 15 and lat.skipped == 15
        # n_x centres per spatial axis: a 1-D grid has no y axis to count
        for name, g in WEAK_GRIDS.items():
            lat = build_lattice(g, 0.0, 2.0, n_x=3, n_t=2,
                                scales=(0.12, 0.2, 0.6))
            assert lat.skipped == 3 ** g.dim * 2, name

    def test_bump_calculus(self):
        g = SpaceTimeGrid(1, 7, 1.0, 11, T_R)     # nodes at multiples of 1/8
        b = Bump(xc=0.5, rx=0.25, tc=1.0, rt=0.5)
        eta, _ = b.space_parts(g)
        np.testing.assert_allclose(eta[[4, 2, 6, 0]], [1.0, 0.0, 0.0, 0.0],
                                   atol=1e-15)
        # the slope vanishes at the centre, here the midpoint of edge 4
        _, (slope,) = Bump(xc=0.5625, rx=0.25, tc=1.0, rt=0.5).space_parts(g)
        assert slope.shape == (g.nx + 1,)
        assert slope[4] == 0.0
        # slope peaks at 8/(3 sqrt 3) / rx in profile coordinates
        _, (d,) = b.space_parts(SpaceTimeGrid(1, 3999, 1.0, 11, T_R))
        assert np.max(np.abs(d)) <= 8.0 / (3.0 * np.sqrt(3.0)) / 0.25 + 1e-6
        assert b.support_measure == pytest.approx(0.5 * 1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_edge_slopes_match_gradient_of_nodal_bump(self, dim):
        # the analytic slopes along each axis sit on its edges: when every
        # support edge is a node, the edge gradient of eta differs from
        # them by at most the midpoint rule's h^2/24 max|eta'''| = h^2 / r^3
        # per axis; a misordered or transposed slope array is off by O(1)
        if dim == 1:
            g = SpaceTimeGrid(1, 63, 1.0, 11, T_R)
            b = Bump(xc=0.5, rx=0.25, tc=1.0, rt=0.5)
        else:
            g = SpaceTimeGrid(2, 63, 1.0, 11, T_R, ny=47, Ly=0.9)
            b = Bump(xc=0.5, rx=0.25, tc=1.0, rt=0.5,
                     yc=24 * g.dy, ry=10 * g.dy)
        eta, slopes = b.space_parts(g)
        assert eta.shape == g.space_shape
        assert len(slopes) == dim
        for a, (slope, r, (_, h)) in enumerate(zip(slopes, (b.rx, b.ry),
                                                   g.axes)):
            err = np.abs(g.edge_gradient(eta, a) - slope)
            assert err.max() <= h**2 / r**3
            assert np.abs(slope).max() > 1.0


class TestWeakInequalities:
    def test_heat_flow_calibration(self):
        # exact single-species heat evolution saturates well below the mesh
        # tolerance; this benchmark froze the C_W prefactor
        g, spec, data = setup(nx=31, nt=21)
        run = step_parabolic(spec, data, g, 0.0, 1e-3, 2000)
        lat = build_lattice(g, 0.0, 2.0, n_x=5, n_t=3, scales=(0.12, 0.2))
        rep = check_weak_inequalities(
            run.values, run.taus, g, spec, 0.0, lat
        )
        assert rep.passed
        # heat flow solves the equation: A should sit well inside tolerance
        assert np.max(np.abs(rep.A)) < 0.5 * rep.tol.min()

    def test_constant_one_cubic_is_equilibrium(self):
        # v = 1 with cubic reaction: f(1) = 0, all pairings vanish
        from wideseg.model import ReactionFamily
        spec = SystemSpec.make(1, [[0.0]], [ReactionFamily("cubic", 1.0)])
        taus = np.linspace(0.0, 2.0, 21)
        for name, g in WEAK_GRIDS.items():
            vals = np.ones((1, 21) + g.space_shape)
            lat = build_lattice(g, 0.0, 2.0, n_x=5, n_t=3, scales=(0.12, 0.2))
            rep = check_weak_inequalities(vals, taus, g, spec, 0.0, lat)
            assert rep.A.shape == (1, len(lat.bumps)), name
            np.testing.assert_allclose(rep.A, 0.0, atol=1e-14, err_msg=name)
            np.testing.assert_allclose(rep.B, 0.0, atol=1e-14, err_msg=name)

    def test_single_species_B_equals_A(self):
        # with one species the hatted field is the field itself
        spec = SystemSpec.make(1, [[0.0]])
        taus = np.linspace(0.0, 2.0, 21)
        rng = np.random.default_rng(0)
        for name, g in WEAK_GRIDS.items():
            vals = rng.uniform(0, 1, (1, 21) + g.space_shape)
            lat = build_lattice(g, 0.0, 2.0, n_x=3, n_t=2, scales=(0.2,))
            rep = check_weak_inequalities(vals, taus, g, spec, 0.0, lat)
            assert np.abs(rep.A).max() > 0.0, name
            np.testing.assert_allclose(rep.B, rep.A, rtol=1e-12,
                                       err_msg=name)

    def test_matches_loop_reference_2d(self):
        # loop form of every pairing on a non-square 2-D grid: per-axis
        # differences, per-field and per-bump sums, species and hatted
        # fields formed one at a time
        def prof(s):
            return np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 2, 0.0)

        def dprof(s):
            return np.where(np.abs(s) < 1.0, -4.0 * s * (1.0 - s * s), 0.0)

        def pairing(v, f, b):
            dtau = np.diff(taus)
            tm = 0.5 * (taus[:-1] + taus[1:])
            ct = np.zeros_like(taus)
            ct[:-1] += 0.5 * dtau
            ct[1:] += 0.5 * dtau
            px, py = prof((g.x - b.xc) / b.rx), prof((g.y - b.yc) / b.ry)
            xm, ym = 0.5 * (g.x[:-1] + g.x[1:]), 0.5 * (g.y[:-1] + g.y[1:])
            eta = g.space_weights * np.outer(px, py)
            ex = np.outer(dprof((xm - b.xc) / b.rx) / b.rx, py)
            ey = np.outer(px, dprof((ym - b.yc) / b.ry) / b.ry)
            Wx, Wy = g.edge_weights
            ex *= Wx
            ey *= Wy
            total = 0.0
            for j in range(len(taus)):
                total += ct[j] * prof((taus[j] - b.tc) / b.rt) * (
                    np.sum(np.diff(v[j], axis=0) / g.dx * ex)
                    + np.sum(np.diff(v[j], axis=1) / g.dy * ey)
                    - np.sum(f[j] * eta))
            for j in range(len(taus) - 1):
                s = (tm[j] - b.tc) / b.rt
                total += dtau[j] * (prof(s) + eps * dprof(s) / b.rt) \
                    * np.sum((v[j + 1] - v[j]) / dtau[j] * eta)
            return total

        from wideseg.model import ReactionFamily
        g = WEAK_GRIDS["2d"]
        spec = SystemSpec.make(2, [[0, 1], [1, 0]],
                               [ReactionFamily("cubic", 1.0)] * 2)
        taus = np.linspace(0.0, 2.0, 21)
        eps = 0.1
        vals = np.random.default_rng(5).uniform(0, 1, (2, 21) + g.space_shape)
        fvals = spec.f_all(vals)
        lat = build_lattice(g, 0.0, 2.0, n_x=3, n_t=2, scales=(0.2,))
        rep = check_weak_inequalities(vals, taus, g, spec, eps, lat)
        for i in range(2):
            for n, b in enumerate(lat.bumps):
                a_ref = pairing(vals[i], fvals[i], b)
                b_ref = pairing(vals[i] - vals[1 - i], fvals[i] - fvals[1 - i],
                                b)
                assert rep.A[i, n] == pytest.approx(a_ref, rel=1e-12,
                                                    abs=1e-15)
                assert rep.B[i, n] == pytest.approx(b_ref, rel=1e-12,
                                                    abs=1e-15)

    def test_tolerance_scales_with_mesh(self):
        g_coarse = SpaceTimeGrid(1, 7, 1.0, 11, T_R)
        g_fine = SpaceTimeGrid(1, 63, 1.0, 11, T_R)
        b = Bump(xc=0.5, rx=0.2, tc=1.0, rt=0.3)
        assert weak_tolerance(b, g_fine, 0.01) < weak_tolerance(b, g_coarse, 0.01)


class TestStationary:
    def test_two_ramp_segregated_limit_passes(self):
        # the two ramps are harmonic in their supports with a convex kink
        # at the interface: subsolutions individually, and the hatted field
        # 1 - 2x is globally linear
        g, spec, _ = setup(nx=31)
        w = preset_v0("two_ramp", g.x, 2)
        lat = build_lattice(g, 0.0, 1.0, n_x=5, n_t=1, scales=(0.12, 0.2))
        rep = check_stationary_inequalities(w, g, spec, lat)
        assert rep.passed

    def test_bump_outside_unit_interval_rejected(self):
        g, spec, _ = setup()
        from wideseg.diagnostics import TestFunctionLattice
        lat = TestFunctionLattice(
            bumps=[Bump(xc=0.5, rx=0.2, tc=2.0, rt=0.3)]
        )
        with pytest.raises(ValueError):
            check_stationary_inequalities(np.zeros((2, 17)), g, spec, lat)


class TestWindows:
    def test_static_two_ramp_values(self):
        # static segregated two-ramp: |grad|^2 integrates to 4, overlap and
        # kinetic vanish, sup norm is 1
        g, spec, _ = setup(nx=31)
        w = preset_v0("two_ramp", g.x, 2)
        taus = np.linspace(0.0, 2.0, 41)
        vals = np.broadcast_to(w[:, None], (2, 41, 33)).copy()
        rep = check_uniform_windows(
            vals, taus, g, spec, 1000.0, default_windows(0.2)
        )
        assert rep["windowed_max"] == pytest.approx(4.0, rel=1e-10)
        assert rep["kinetic"] == 0.0
        assert rep["sup_norm"] == 1.0

    def test_window_beyond_horizon_raises(self):
        g, spec, _ = setup(nx=7)
        taus = np.linspace(0.0, 1.0, 11)
        vals = np.zeros((2, 11, 9))
        with pytest.raises(ValueError, match="horizon"):
            check_uniform_windows(vals, taus, g, spec, 1.0, [(0.5, 1.0)])

    def test_default_windows_structure(self):
        ws = default_windows(0.1)
        assert len(ws) == 9
        assert (0.0, 0.1) in ws and (0.2, 0.4) in ws


class TestEnergyIdentity:
    def test_unconverged_input_flagged(self):
        g, spec, data = setup(nx=7, nt=11)
        tr = eval_J(competitor_field(data, g, spec), 0.1, 0.0)
        rep = check_energy_identity(tr, converged=False)
        assert not rep["passed"] and not rep["reliable"]
        rep2 = check_energy_identity(tr, converged=True)
        assert rep2["passed"]


class TestLevelEstimate:
    def test_bounded_ladder_passes(self):
        entries = [
            {"eps": 0.2, "J": 0.6, "J_competitor": 0.8},
            {"eps": 0.1, "J": 0.31, "J_competitor": 0.4},
        ]
        rep = check_level_estimate_across_ladder(entries, M=0.0, volume=1.0)
        assert rep["passed"]
        assert rep["abs_ratio_spread"] == pytest.approx(3.1 / 3.0, rel=1e-12)

    def test_violations_detected(self):
        entries = [
            {"eps": 0.2, "J": 0.9, "J_competitor": 0.8},   # above competitor
            {"eps": 0.1, "J": 0.01, "J_competitor": 0.4},  # ratio collapse
        ]
        rep = check_level_estimate_across_ladder(entries, M=0.0, volume=1.0)
        assert not rep["bounds_ok"]
        assert not rep["bounded"]
