import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wideseg import grid as gridmod
from wideseg.functional import (
    competitor_field, competitor_value, energy_identity_residual, eval_J,
    eval_J_change, eval_J_value, form_change, grad_J, penalty_density,
    potential_gradient, slice_potential,
)
from wideseg.grid import SpaceTimeGrid, StateField
from wideseg.model import BoundaryData, ReactionFamily, SystemSpec, preset_v0
from wideseg.optimizer import ROUNDOFF_RTOL, OptimizerConfig, minimize
from wideseg.oracle import elliptic_energy

T_R = 20.0
WEIGHT_MASS = 1.0 - np.exp(-T_R)


def make_setup(nx=15, nt=21):
    g = SpaceTimeGrid(1, nx, 1.0, nt, T_R)
    spec = SystemSpec.make(2, [[0, 1], [1, 0]])
    data = BoundaryData.make(
        preset_v0("two_ramp", g.x_field(), 2), "dirichlet_and_initial"
    )
    return g, spec, data


class TestFrozenValues:
    def test_competitor_value_two_ramp(self):
        # time-constant two-ramp extension: I = 0, D = 4, J = 4 eps (1 - e^{-T_r})
        g, spec, data = make_setup()
        for eps in (0.2, 0.1):
            assert competitor_value(data, g, spec, eps) == pytest.approx(
                4.0 * eps * WEIGHT_MASS, rel=1e-12
            )
        assert eval_J(competitor_field(data, g, spec), 0.1, 0.0).I.sum() == 0.0
        zero = BoundaryData.make(np.zeros((2, 17)))
        assert eval_J(competitor_field(zero, g, spec), 0.1, 0.0).J == 0.0

    def test_constant_half_penalty_value(self):
        # u = (1/2, 1/2): <u^2, A u^2> = 1/8, J = (eps beta / 16)(1 - e^{-T_r})
        g, spec, _ = make_setup()
        f = StateField(np.full((2, 21, 17), 0.5), g, spec)
        for eps, beta in ((0.1, 2.0), (0.05, 10.0)):
            assert eval_J_value(f, eps, beta) == pytest.approx(
                eps * beta / 16.0 * WEIGHT_MASS, rel=1e-12
            )

    def test_penalty_density_constant_half(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert penalty_density(np.full((2, 3), 0.5), A)[0] == pytest.approx(1.0 / 8.0)

    def test_cubic_reaction_lowers_J(self):
        g, _, data = make_setup()
        spec_c = SystemSpec.make(
            2, [[0, 1], [1, 0]], [ReactionFamily("cubic", 1.0)] * 2
        )
        f = competitor_field(data, g, spec_c)
        J_cubic = eval_J_value(f, 0.1, 0.0)
        assert J_cubic < 4.0 * 0.1 * WEIGHT_MASS
        # lower bound from M = 1/3 on the unit domain
        assert J_cubic >= -0.1 * spec_c.M_bound * g.volume

    def test_E0_equals_J(self):
        g, spec, data = make_setup()
        rng = np.random.default_rng(0)
        f = StateField(rng.uniform(0, 1, (2, 21, 17)), g, spec)
        tr = eval_J(f, 0.1, 5.0)
        assert tr.E[0] == pytest.approx(tr.J, rel=1e-12)
        assert tr.E[-1] == 0.0


def dirichlet_energy_of_x(g):
    """Per-slice Dirichlet energy of the field (x, 0)."""
    spec = SystemSpec.make(2, [[0, 1], [1, 0]])
    vals = np.zeros((2, g.nt) + g.space_shape)
    vals[0] = g.x_field()
    return slice_potential(StateField(vals, g, spec), eps=1.0, beta=0.0)


class TestDirichletEnergy:
    """The Dirichlet term of u = x is the integral of |grad x|^2 = 1."""

    def test_unit_interval(self):
        g = SpaceTimeGrid(1, 15, 1.0, 5, T_R)
        np.testing.assert_allclose(dirichlet_energy_of_x(g), 1.0, rtol=1e-13)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the 2-D Dirichlet form is half of the integral of "
        "|grad u|^2 (see ROADMAP)"))
    def test_unit_square(self):
        g = SpaceTimeGrid(2, 7, 1.0, 5, T_R, ny=7, Ly=1.0)
        np.testing.assert_allclose(dirichlet_energy_of_x(g), 1.0, rtol=1e-13)


class TestGradient:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("eps,beta", [(0.2, 10.0), (0.05, 1000.0)])
    def test_matches_central_differences(self, eps, beta, dim):
        g, spec, data, u = cubic_case(dim)
        grad = grad_J(StateField(u, g, spec), eps, beta, data)
        rng = np.random.default_rng(11)
        free = np.flatnonzero(
            np.broadcast_to(gridmod.free_mask(g, data), u.shape))
        h = 1e-4
        fds, errs = [], []
        for n in rng.choice(free, size=40, replace=False):
            idx = np.unravel_index(n, u.shape)
            up, um = u.copy(), u.copy()
            up[idx] += h
            um[idx] -= h
            fd = (
                eval_J_value(StateField(up, g, spec), eps, beta)
                - eval_J_value(StateField(um, g, spec), eps, beta)
            ) / (2 * h)
            fds.append(abs(fd))
            errs.append(abs(fd - grad[idx]))
        floor = 1e-3 * max(fds)
        assert max(e / max(f, floor) for e, f in zip(errs, fds)) < 1e-6

    def test_zero_on_pinned_nodes(self):
        g, spec, data = make_setup()
        rng = np.random.default_rng(5)
        u = rng.uniform(0, 1, (2, 21, 17))
        gridmod.impose_pins(u, g, data)
        grad = grad_J(StateField(u, g, spec), 0.1, 10.0, data)
        assert np.all(grad[:, 0] == 0.0)
        assert np.all(grad[:, :, 0] == 0.0) and np.all(grad[:, :, -1] == 0.0)

    def test_cubic_reaction_term_enters(self):
        g, _, data = make_setup(nx=7, nt=9)
        s0 = SystemSpec.make(2, [[0, 1], [1, 0]])
        s1 = SystemSpec.make(
            2, [[0, 1], [1, 0]], [ReactionFamily("cubic", 1.0)] * 2
        )
        u = np.full((2, 9, 9), 0.5)
        gridmod.impose_pins(u, g, data)
        g0 = grad_J(StateField(u, g, s0), 0.1, 0.0, data)
        g1 = grad_J(StateField(u, g, s1), 0.1, 0.0, data)
        assert np.max(np.abs(g0 - g1)) > 0.0


def cubic_case(dim):
    """Random pinned field with cubic reactions: (grid, spec, data, u)."""
    if dim == 1:
        g = SpaceTimeGrid(1, 15, 1.0, 21, T_R)
        k, preset = 2, "two_ramp"
    else:
        g = SpaceTimeGrid(2, 7, 1.0, 21, T_R, ny=5, Ly=0.8)
        k, preset = 3, "k_blocks"
    spec = SystemSpec.make(
        k, np.ones((k, k)) - np.eye(k), [ReactionFamily("cubic", 1.5)] * k
    )
    data = BoundaryData.make(
        preset_v0(preset, g.x_field(), k), "dirichlet_and_initial"
    )
    rng = np.random.default_rng(17 + dim)
    u = rng.uniform(0, 1, (k, g.nt) + g.space_shape)
    gridmod.impose_pins(u, g, data)
    return g, spec, data, u


class TestStationaryGradient:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("beta", [0.0, 50.0])
    def test_matches_central_differences(self, dim, beta):
        # potential_gradient shares its reaction and penalty terms with
        # grad_J; here they carry the spatial weights of one slice
        g, spec, _, u = cubic_case(dim)
        w = u[:, 5].copy()
        grad = potential_gradient(w[:, None], g, spec, beta)[:, 0]
        h = 1e-5
        for n in np.random.default_rng(2).choice(w.size, 20, replace=False):
            idx = np.unravel_index(n, w.shape)
            up, um = w.copy(), w.copy()
            up[idx] += h
            um[idx] -= h
            fd = (elliptic_energy(up, g, spec, beta)
                  - elliptic_energy(um, g, spec, beta)) / (2 * h)
            assert fd == pytest.approx(grad[idx], rel=1e-6, abs=1e-9)


def other_layouts(a):
    """The values of a in Fortran order and as a view with permuted
    strides; neither is C-contiguous."""
    permuted = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
    return [np.asfortranarray(a), permuted]


class TestMemoryLayout:
    """Inputs in any memory order give the results of C-ordered ones."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gradient_and_change(self, dim):
        g, spec, data, u = cubic_case(dim)
        d = np.random.default_rng(4).normal(0.0, 1e-2, u.shape)
        f = StateField(u, g, spec)
        grad = grad_J(f, 0.1, 50.0, data)
        change = eval_J_change(f, d, 0.1, 50.0)
        for uu, dd in zip(other_layouts(u), other_layouts(d)):
            assert not (uu.flags.c_contiguous or dd.flags.c_contiguous)
            ff = StateField(uu, g, spec)
            np.testing.assert_array_equal(grad_J(ff, 0.1, 50.0, data), grad)
            assert eval_J_change(ff, dd, 0.1, 50.0) == change

    def test_minimize_from_any_layout(self):
        g, spec, data, u = cubic_case(1)
        cfg = OptimizerConfig(max_iters=200)
        ref = minimize(spec, data, g, 0.1, 50.0, cfg,
                       init=StateField(u, g, spec))
        assert ref.iters > 10
        for uu in other_layouts(u):
            res = minimize(spec, data, g, 0.1, 50.0, cfg,
                           init=StateField(uu, g, spec))
            assert res.iters == ref.iters and res.trace.J == ref.trace.J
            np.testing.assert_array_equal(res.field.values, ref.field.values)


class TestMemoryPeak:
    """The hot path's traced peak above entry, in field sizes, on a 15 x 15,
    nt 101, k 3 grid with cubic reactions and the penalty on.  Each call
    measures about 2.34 fields: the functional holds one field-size
    temporary per step of a spatial pass and at most two field-size
    products at once, and no transposed copy nor a third product."""

    FIELDS = 2.5

    def test_value_gradient_and_change(self):
        g = SpaceTimeGrid(2, 15, 1.0, 101, T_R, ny=15, Ly=1.0)
        k = 3
        spec = SystemSpec.make(k, np.ones((k, k)) - np.eye(k),
                               [ReactionFamily("cubic", 1.0)] * k)
        data = BoundaryData.make(preset_v0("k_blocks", g.x_field(), k))
        rng = np.random.default_rng(8)
        u = rng.uniform(0.0, 1.0, (k, g.nt) + g.space_shape)
        d = rng.normal(0.0, 1e-3, u.shape)
        f = StateField(u, g, spec)
        calls = {
            "eval_J_value": lambda: eval_J_value(f, 0.2, 100.0),
            "grad_J": lambda: grad_J(f, 0.2, 100.0, data),
            "eval_J_change": lambda: eval_J_change(f, d, 0.2, 100.0),
        }
        for call in calls.values():
            call()   # Q and the grid's cached operators are built here
        for name, call in calls.items():
            tracemalloc.start()
            try:
                entry, _ = tracemalloc.get_traced_memory()
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (peak - entry) / u.nbytes < self.FIELDS, name


class TestChange:
    """eval_J_change(u, d) is J(u + d) - J(u) without cancellation."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_value_difference(self, dim):
        g, spec, data, u = cubic_case(dim)
        rng = np.random.default_rng(3)
        f = StateField(u, g, spec)
        for scale in (0.3, 1e-2):
            d = rng.normal(0.0, scale, u.shape)
            d[:, ~gridmod.free_mask(g, data)] = 0.0
            full = (eval_J_value(StateField(u + d, g, spec), 0.1, 50.0)
                    - eval_J_value(f, 0.1, 50.0))
            assert eval_J_change(f, d, 0.1, 50.0) == pytest.approx(
                full, rel=1e-10
            )

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_step_is_exactly_zero(self, dim):
        g, spec, _, u = cubic_case(dim)
        f = StateField(u, g, spec)
        assert eval_J_change(f, np.zeros_like(u), 0.1, 50.0) == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_last_slice_descent_below_roundoff(self, dim):
        # a short step against the gradient on the last time slice only:
        # its weight e^{-T_r} puts the decrease far below the ulp of J, so
        # the difference of full values is 0 or noise, while the change
        # is negative and matches the first-order prediction g . d
        g, spec, data, u = cubic_case(dim)
        f = StateField(u, g, spec)
        grad = grad_J(f, 0.1, 50.0, data)
        d = np.zeros_like(u)
        d[:, -1] = -1e-10 * grad[:, -1] / np.max(np.abs(grad[:, -1]))
        J = eval_J_value(f, 0.1, 50.0)
        full = eval_J_value(StateField(u + d, g, spec), 0.1, 50.0) - J
        change = eval_J_change(f, d, 0.1, 50.0)
        first_order = float(np.sum(grad * d))
        assert change < 0.0
        assert abs(change) < np.spacing(J)
        assert abs(full) <= 8 * np.spacing(J)
        assert change == pytest.approx(first_order, rel=1e-6)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stationary_change(self, dim):
        # the stationary oracle's step change: form_change with the
        # one-slice pair (2 S, spatial weights) at eps = 1
        g, spec, _, u = cubic_case(dim)
        w = u[:, g.nt // 2]
        rng = np.random.default_rng(5)
        Q = 2.0 * g.dirichlet_stiffness

        def change(d):
            return form_change(w, d, Q, g.space_weights, spec, 1.0, 50.0)

        for scale in (0.3, 1e-2):
            d = rng.normal(0.0, scale, w.shape)
            d[:, g.boundary_mask] = 0.0
            full = (elliptic_energy(w + d, g, spec, 50.0)
                    - elliptic_energy(w, g, spec, 50.0))
            assert change(d) == pytest.approx(full, rel=1e-10)
        assert change(np.zeros_like(w)) == 0.0

    @pytest.mark.parametrize("eps,beta", [(0.2, 1000.0), (0.05, 10.0)])
    def test_value_difference_well_inside_roundoff_window(self, eps, beta):
        # the descent trusts a difference of two full values whenever it
        # lies further than ROUNDOFF_RTOL * |J| from the bound it is tested
        # against, so on a smooth desk-size field that difference must be
        # far more accurate; summed as 1/2 u.Qu instead of per-cell squares
        # it is off by up to 5e-15 |J| here
        g = SpaceTimeGrid(1, 63, 1.0, 201, T_R)
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        data = BoundaryData.make(preset_v0("two_ramp", g.x_field(), 2))
        u = np.broadcast_to(data.v0[:, None], (2, g.nt, g.nx + 2)).copy()
        bump = np.sin(np.pi * g.x)[None, :] * np.exp(-0.3 * g.t)[:, None]
        u += 0.1 * bump * (data.v0[:, None] > 0)
        f = StateField(u, g, spec)
        J = eval_J_value(f, eps, beta)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(20):
            d = rng.normal(0.0, 1e-6, u.shape)
            d[:, ~gridmod.free_mask(g, data)] = 0.0
            full = eval_J_value(StateField(u + d, g, spec), eps, beta) - J
            worst = max(worst, abs(full - eval_J_change(f, d, eps, beta)))
        assert worst <= 0.1 * ROUNDOFF_RTOL * abs(J)


class TestQuadraticForm:
    """The gradient and the change read the grid's quadratic operator Q;
    the value and eval_J sum the same J from per-cell stencils."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_half_uQu_is_J_without_reactions(self, dim):
        # nt = 41 gives dt = 0.5, so a wrong power of dt in Q shows
        if dim == 1:
            g = SpaceTimeGrid(1, 15, 1.0, 41, T_R)
        else:
            g = SpaceTimeGrid(2, 7, 1.0, 41, T_R, ny=5, Ly=0.8)
        k = dim + 1
        spec = SystemSpec.make(k, np.ones((k, k)) - np.eye(k))
        u = np.random.default_rng(5).uniform(0, 1, (k, g.nt) + g.space_shape)
        Q = g.quadratic_operator(0.1)
        U = u.reshape(k, -1)
        quad = 0.5 * sum(float(ui @ (Q @ ui)) for ui in U)
        assert quad == pytest.approx(
            eval_J(StateField(u, g, spec), 0.1, 0.0).J, rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_value_matches_eval_J(self, dim):
        g, spec, _, u = cubic_case(dim)
        f = StateField(u, g, spec)
        assert eval_J_value(f, 0.1, 50.0) == pytest.approx(
            eval_J(f, 0.1, 50.0).J, rel=1e-13)


class TestInvariances:
    def test_species_permutation(self):
        g, spec, data = make_setup()
        rng = np.random.default_rng(7)
        u = rng.uniform(0, 1, (2, 21, 17))
        f = StateField(u, g, spec)
        f_swapped = StateField(u[::-1].copy(), g, spec)
        assert eval_J_value(f, 0.1, 50.0) == pytest.approx(
            eval_J_value(f_swapped, 0.1, 50.0), rel=1e-14
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_projection_never_increases_J(self, seed):
        g, spec, data = make_setup(nx=7, nt=9)
        rng = np.random.default_rng(seed)
        u = rng.uniform(-0.6, 1.6, (2, 9, 9))
        gridmod.impose_pins(u, g, data)
        f = StateField(u, g, spec)
        up = np.clip(u, 0.0, 1.0)
        gridmod.impose_pins(up, g, data)
        fp = StateField(up, g, spec)
        assert eval_J_value(fp, 0.1, 10.0) <= eval_J_value(f, 0.1, 10.0) + 1e-12


class TestEnergyIdentity:
    def test_competitor_residual_is_horizon_small(self):
        # I = 0 and R constant along the trace: the only residual left is
        # the finite-horizon truncation, of size about e^{-guard} inside
        # the guarded region
        g, spec, data = make_setup(nx=31, nt=101)
        tr = eval_J(competitor_field(data, g, spec), 0.1, 0.0)
        r, rel, mask = energy_identity_residual(tr)
        assert mask.any()
        assert rel < 2.0 * np.exp(-7.0)

    def test_mask_excludes_horizon(self):
        g, spec, data = make_setup(nx=7, nt=101)
        tr = eval_J(competitor_field(data, g, spec), 0.1, 0.0)
        _, _, mask = energy_identity_residual(tr)
        assert not mask[0]
        t_last_used = tr.t[1:][mask].max()
        assert t_last_used <= T_R - 7.0
