import numpy as np
import pytest

from wideseg.functional import eval_J_value
from wideseg.grid import StateField, build_grid
from wideseg.model import BoundaryData, SystemSpec, preset_v0
from wideseg.optimizer import (
    OptimizerConfig, _kkt_norm, curvature_estimate, default_init, minimize,
    node_mass, projected_bb,
)

T_R = 20.0
WEIGHT_MASS = 1.0 - np.exp(-T_R)


def setup(nx=15, nt=31):
    g = build_grid(1, nx, 1.0, nt, T_R)
    spec = SystemSpec.make(2, [[0, 1], [1, 0]])
    data = BoundaryData.make(
        preset_v0("two_ramp", g.x_field(), 2), "dirichlet_and_initial"
    )
    return g, spec, data


class TestMinimize:
    def test_zero_data_stays_zero(self):
        g, spec, _ = setup(nx=7, nt=11)
        data = BoundaryData.make(np.zeros((2, 9)), "dirichlet_and_initial")
        res = minimize(spec, data, g, 0.1, 10.0)
        assert res.converged
        assert res.trace.J == 0.0
        assert np.all(res.field.values == 0.0)

    def test_single_ramp_value(self):
        # one species pinned 0 -> 1: the time-constant linear ramp is the
        # exact minimizer, J = eps * (1 - e^{-T_r}) (D = 1, no coupling)
        g = build_grid(1, 15, 1.0, 31, T_R)
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        v0 = np.zeros((2, 17))
        v0[0] = g.x
        data = BoundaryData.make(v0, "dirichlet_and_initial")
        res = minimize(spec, data, g, 0.1, 0.0)
        assert res.converged
        assert res.trace.J == pytest.approx(0.1 * WEIGHT_MASS, rel=1e-6)
        assert np.max(np.abs(res.field.values[0] - g.x[None, :])) < 1e-4
        assert np.max(np.abs(res.field.values[1])) < 1e-6

    def test_history_monotone_nonincreasing(self):
        g, spec, data = setup(nx=7, nt=11)
        res = minimize(
            spec, data, g, 0.1, 100.0,
            OptimizerConfig(max_iters=300), init="random",
        )
        h = np.asarray(res.J_history)
        assert np.all(np.diff(h) <= 1e-12)

    def test_minimizer_is_fixed_point(self):
        g, spec, data = setup(nx=7, nt=11)
        res = minimize(spec, data, g, 0.1, 10.0)
        assert res.converged and res.stop_reason == "converged"
        again = minimize(spec, data, g, 0.1, 10.0, init=res.field)
        assert again.iters <= 1
        assert again.trace.J <= res.trace.J + 1e-12

    def test_beats_competitor(self):
        g, spec, data = setup()
        res = minimize(spec, data, g, 0.1, 100.0)
        comp = default_init(spec, data, g, mode="competitor")
        assert res.trace.J <= eval_J_value(comp, 0.1, 100.0) + 1e-12

    def test_support_mask_enforced(self):
        g, spec, data = setup(nx=7, nt=11)
        support = np.zeros((2, 11, 9), dtype=bool)
        support[0, :, :5] = True
        support[1, :, 5:] = True
        res = minimize(spec, data, g, 0.1, 0.0, support=support)
        assert np.all(res.field.values[~support] == 0.0)

    def test_iteration_cap_flags_nonconvergence(self):
        g, spec, data = setup()
        res = minimize(
            spec, data, g, 0.05, 1000.0,
            OptimizerConfig(max_iters=2), init="random",
        )
        assert not res.converged
        assert res.stop_reason == "max_iters"
        assert res.iters == 1

    def test_flat_objective_stops_without_capping(self):
        # a nonzero gradient on an objective that no step decreases: the
        # loop must stop at once rather than take equal-value steps up to
        # max_iters, and must not report convergence
        x0 = np.full(8, 0.5)
        calls = []

        def value_fn(x):
            calls.append(1)
            return 1.0

        x, info = projected_bb(
            x0, value_fn, lambda x: np.ones_like(x), np.ones_like(x0),
            OptimizerConfig(max_iters=500), 10.0, lambda x, d: 0.0,
        )
        assert not info["converged"]
        assert info["stop_reason"] == "no_descent"
        assert info["iters"] == 0
        assert len(calls) < 100
        np.testing.assert_array_equal(x, x0)

    def test_cap_reached_on_a_converged_iterate_reports_converged(self):
        # the last pass takes a step onto the minimizer; the loop then ends
        # on the cap, but the iterate it returns meets grad_tol
        target = np.linspace(0.2, 0.8, 6)
        x, info = projected_bb(
            np.full(6, 0.5), lambda x: 0.5 * float(np.sum((x - target) ** 2)),
            lambda x: x - target, np.ones(6), OptimizerConfig(max_iters=1),
            1.0, lambda x, d: float(np.sum((x - target) * d + 0.5 * d * d)),
        )
        assert info["stop_reason"] == "converged" and info["converged"]
        assert info["iters"] == 0
        np.testing.assert_allclose(x, target, rtol=0, atol=1e-15)

    def test_adaptive_steps_on_ill_conditioned_box_quadratic(self):
        # separable quadratic with curvatures over three decades, targets
        # inside and outside [0, 1]: the converged point is the clipped
        # target, J never rises, and few first trials are rejected (pure
        # BB1 steps need about 1.7 value calls per pass here)
        c = np.logspace(0, 3, 200)
        target = np.linspace(-0.3, 1.3, 200)

        def solve():
            calls = []

            def value_fn(x):
                calls.append(1)
                return 0.5 * float(np.sum(c * (x - target) ** 2))

            x, info = projected_bb(
                np.full(200, 0.5), value_fn, lambda x: c * (x - target),
                np.ones(200), OptimizerConfig(), 1e3,
                lambda x, d: float(np.sum(c * ((x - target) * d
                                               + 0.5 * d * d))),
            )
            return x, info, len(calls)

        x, info, n_values = solve()
        assert info["converged"] and info["stop_reason"] == "converged"
        np.testing.assert_allclose(x, np.clip(target, 0.0, 1.0), rtol=0,
                                   atol=1e-5)
        assert np.all(np.diff(info["J_history"]) <= 0.0)
        assert n_values <= 1.4 * (info["iters"] + 1)
        # the step rule's state starts afresh on every call
        x_again, info_again, _ = solve()
        np.testing.assert_array_equal(x_again, x)
        assert info_again["J_history"] == info["J_history"]

    def test_zero_mass_entries_keep_their_start_value(self):
        # the objective pulls every entry towards 0, but entries without
        # mass (pins, nodes outside a support) must stay at x0
        x0 = np.linspace(0.1, 0.9, 8)
        mass = np.ones(8)
        mass[[1, 4, 6]] = 0.0
        x, info = projected_bb(
            x0, lambda x: 0.5 * float(np.sum(x * x)), lambda x: x.copy(),
            mass, OptimizerConfig(), 1.0,
            lambda x, d: float(np.sum(x * d + 0.5 * d * d)),
        )
        assert info["converged"] and info["iters"] > 0
        np.testing.assert_array_equal(x[mass == 0], x0[mass == 0])
        assert np.all(x[mass > 0] < 1e-5)


class TestKKT:
    def test_blocked_directions_drop_out(self):
        # a positive entry at x = 0 and a negative one at x = 1 push out of
        # the box and do not count; the inward ones and interior ones do
        x = np.array([0.0, 0.0, 1.0, 1.0, 0.5])
        gh = np.array([1.0, -2.0, -3.0, 4.0, -5.0])
        assert _kkt_norm(x, gh) == 5.0
        assert _kkt_norm(x[:4], gh[:4]) == 4.0
        assert _kkt_norm(x[[0, 2]], gh[[0, 2]]) == 0.0

    def test_target_outside_box_converges_to_clipped_point(self):
        # separable quadratic whose minimizer lies outside [0, 1] on both
        # sides: the gradient stays nonzero at the solution, so convergence
        # needs the blocked components dropped
        target = np.array([-0.5, 0.3, 1.7, 0.9, -2.0, 2.0])
        x, info = projected_bb(
            np.full(6, 0.5), lambda x: 0.5 * float(np.sum((x - target) ** 2)),
            lambda x: x - target, np.ones(6), OptimizerConfig(), 1.0,
            lambda x, d: float(np.sum((x - target) * d + 0.5 * d * d)),
        )
        assert info["converged"] and info["stop_reason"] == "converged"
        np.testing.assert_allclose(x, np.clip(target, 0.0, 1.0), rtol=0,
                                   atol=1e-5)


class TestHelpers:
    def test_node_mass_totals(self):
        g, spec, _ = setup(nx=7, nt=11)
        m = node_mass(g, spec)
        assert m.shape == (2, 11, 9)
        assert m[0].sum() == pytest.approx(WEIGHT_MASS * 1.0, rel=1e-12)

    def test_curvature_increases_with_beta(self):
        g, spec, _ = setup(nx=7, nt=11)
        l0 = curvature_estimate(g, spec, 0.1, 0.0)
        l1 = curvature_estimate(g, spec, 0.1, 1000.0)
        assert l1 > l0 > 0.0

    def test_default_init_modes(self):
        g, spec, data = setup(nx=7, nt=11)
        comp = default_init(spec, data, g, mode="competitor")
        np.testing.assert_array_equal(comp.values[:, 3], data.v0)
        rnd = default_init(spec, data, g, mode="random", seed=1)
        assert np.all(rnd.values[:, 1:, :] * (data.v0[:, None] == 0) == 0.0)
        with pytest.raises(ValueError):
            default_init(spec, data, g, mode="bogus")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=0.0)
