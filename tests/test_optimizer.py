import numpy as np
import pytest

from scipy.sparse.linalg import spsolve

from wideseg.functional import (
    competitor_field, eval_J_change, eval_J_value, grad_J,
)
from wideseg.grid import FreeBlockInverse, SpaceTimeGrid, StateField
from wideseg.model import BoundaryData, SystemSpec, preset_v0
from wideseg.optimizer import (
    ROUNDOFF_RTOL, InverseMass, OptimizerConfig, _kkt_norm,
    curvature_bound, minimize, node_mass, penalty_shift, projected_bb,
)

T_R = 20.0
WEIGHT_MASS = 1.0 - np.exp(-T_R)


def setup(nx=15, nt=31):
    g = SpaceTimeGrid(1, nx, 1.0, nt, T_R)
    spec = SystemSpec.make(2, [[0, 1], [1, 0]])
    data = BoundaryData.make(
        preset_v0("two_ramp", g.x_field(), 2), "dirichlet_and_initial"
    )
    return g, spec, data


def noise_start(g, spec, data, seed=0):
    """Seeded uniform noise on the support of each species' v0."""
    rng = np.random.default_rng(seed)
    noise = rng.uniform(0.0, 1.0, size=(spec.k, g.nt) + g.space_shape)
    return StateField(noise * (data.v0 > 0)[:, None], g, spec)


class TestMinimize:
    def test_zero_data_stays_zero(self):
        g, spec, _ = setup(nx=7, nt=11)
        data = BoundaryData.make(np.zeros((2, 9)), "dirichlet_and_initial")
        res = minimize(spec, data, g, 0.1, 10.0)
        assert res.converged
        assert res.trace.J == 0.0
        assert np.all(res.field.values == 0.0)
        # the refine of that ladder: an empty support, nothing to move
        empty = np.zeros(res.field.values.shape, dtype=bool)
        res = minimize(spec, data, g, 0.1, 0.0, init=res.field,
                       support=empty)
        assert res.converged and res.iters == 0
        assert np.all(res.field.values == 0.0)

    def test_single_ramp_value(self):
        # one species pinned 0 -> 1: the time-constant linear ramp is the
        # exact minimizer, J = eps * (1 - e^{-T_r}) (D = 1, no coupling)
        g = SpaceTimeGrid(1, 15, 1.0, 31, T_R)
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
            OptimizerConfig(max_iters=300), init=noise_start(g, spec, data),
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
        comp = competitor_field(data, g, spec)
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
            OptimizerConfig(max_iters=2), init=noise_start(g, spec, data),
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


    def test_start_is_copied_and_callbacks_get_c_order(self):
        # the loop works in its own C-ordered buffers: x0 (here a transposed
        # view) is never written, the result does not alias it, and every
        # callback sees C-contiguous arrays
        target = np.linspace(-0.2, 1.2, 12).reshape(4, 3).T
        x0 = np.full((4, 3), 0.5).T
        keep = x0.copy()
        layouts = []

        def value_fn(x):
            layouts.append(x.flags.c_contiguous)
            return 0.5 * float(np.sum((x - target) ** 2))

        def grad_fn(x):
            layouts.append(x.flags.c_contiguous)
            return x - target

        def change_fn(x, d):
            layouts.append(x.flags.c_contiguous and d.flags.c_contiguous)
            return float(np.sum((x - target) * d + 0.5 * d * d))

        x, info = projected_bb(x0, value_fn, grad_fn, np.ones((3, 4)),
                               OptimizerConfig(), 1.0, change_fn)
        assert info["converged"]
        np.testing.assert_array_equal(x0, keep)
        assert not np.shares_memory(x, x0)
        assert len(layouts) > 2 and all(layouts)
        np.testing.assert_allclose(x, np.clip(target, 0.0, 1.0), rtol=0,
                                   atol=1e-5)


def kkt_of(res, g, spec, data, eps, beta):
    """The KKT residual of a space-time result, from grad_J and node mass."""
    mass = node_mass(g, spec)
    mass[:, g.pinned(data)] = 0.0
    gh = np.divide(grad_J(res.field, eps, beta, data), mass,
                   out=np.zeros(mass.shape), where=mass > 0)
    return kkt_reference(res.field.values, gh)


def inverse_mass_path(g, spec, data, eps, beta, support=None):
    """``projected_bb`` called directly in its default metric, the inverse
    mass, from the competitor start with nodes outside ``support`` at 0."""
    mass = node_mass(g, spec)
    mass[:, g.pinned(data)] = 0.0
    x0 = competitor_field(data, g, spec).values
    if support is not None:
        mass[~support] = 0.0
        x0[~support] = 0.0
    field = lambda x: StateField(x, g, spec)
    return projected_bb(
        x0, lambda x: eval_J_value(field(x), eps, beta),
        lambda x: grad_J(field(x), eps, beta, data), mass,
        OptimizerConfig(),
        curvature_bound(g, spec, eps, beta, 8.0 / g.dt**2),
        lambda x, d: eval_J_change(field(x), d, eps, beta),
    )


def split_support(g, edges):
    """Species 0 on the spatial nodes left of ``edges[j]`` at time slice
    j, species 1 from node 8 on at every slice."""
    support = np.zeros((2, g.nt) + g.space_shape, dtype=bool)
    for j, edge in enumerate(edges):
        support[0, j, :edge] = True
    support[1, :, 8:] = True
    return support


class TestPreconditioned:
    """A rung whose free set is a tensor product, (t >= t0) x a spatial
    set per species, descends in the metric of the exact inverse of
    Q + 2 sigma mass on it; any other support keeps the inverse mass."""

    @pytest.mark.parametrize("beta", [10.0, 1000.0])
    def test_same_minimizer_as_inverse_mass_path(self, beta):
        g, spec, data = setup()
        res = minimize(spec, data, g, 0.1, beta)
        _, ref = inverse_mass_path(g, spec, data, 0.1, beta)
        assert res.converged and ref["converged"]
        assert res.trace.J == pytest.approx(ref["J"], rel=1e-10)
        assert kkt_of(res, g, spec, data, 0.1, beta) <= 1e-5
        h = np.asarray(res.J_history)
        assert np.all(np.diff(h) <= ROUNDOFF_RTOL * abs(h[0]))
        if beta == 10.0:
            # 9 against 82 iterations: a bypassed preconditioner fails this
            assert res.iters <= ref["iters"] / 5

    def test_support_keeps_inverse_mass_iterates(self):
        # species 0's support grows by a node halfway in time, so the free
        # set is no product: the loop in its default metric, called
        # directly, gives the refine's iterates bit for bit
        g, spec, data = setup()
        eps, beta = 0.1, 0.0
        support = split_support(g, [9] * (g.nt // 2) + [10] * (g.nt // 2 + 1))
        res = minimize(spec, data, g, eps, beta, support=support)
        x, info = inverse_mass_path(g, spec, data, eps, beta, support)
        assert res.converged and res.iters > 20
        np.testing.assert_array_equal(res.field.values, x)
        assert res.J_history == info["J_history"]

    def test_product_support_refine_is_the_direct_solve(self):
        # beta 0, zero reactions and the same spatial support at every
        # time slice: J is 1/2 sum_i u_i.Q u_i, the metric inverts Q on
        # the free set, and the first step lands on Q_ff u_f = -Q_fp u_p
        g, spec, data = setup()
        eps = 0.1
        support = split_support(g, [9] * g.nt)
        res = minimize(spec, data, g, eps, 0.0, support=support)
        assert res.converged and res.iters <= 2
        assert np.all(res.field.values[~support] == 0.0)

        Q = g.quadratic_operator(eps).tocsr()
        x0 = competitor_field(data, g, spec).values
        x0[~support] = 0.0
        for i in range(2):
            free = (support[i] & ~g.pinned(data)).ravel()
            u = x0[i].ravel()
            want = spsolve(Q[free][:, free].tocsc(),
                           -(Q[free][:, ~free] @ u[~free]))
            got = res.field.values[i].ravel()
            assert np.max(np.abs(got[free] - want)) <= 1e-10
            np.testing.assert_array_equal(got[~free], u[~free])

    def test_shift_is_median_penalty_curvature(self):
        # 2 sigma is the median over free entries of 2 beta eps (A x0^2)
        g, spec, data = setup(nx=7, nt=11)
        x0 = competitor_field(data, g, spec).values
        free = ~g.pinned(data)
        h = 2.0 * 100.0 * 0.1 * (x0[::-1] ** 2)[:, free]
        sigma = penalty_shift(x0, spec, 0.1, 100.0, g.pinned(data))
        assert 2.0 * sigma == pytest.approx(np.median(h), rel=1e-14)
        assert penalty_shift(x0, spec, 0.1, 0.0, g.pinned(data)) == 0.0

    @pytest.mark.parametrize("metric", [InverseMass, FreeBlockInverse])
    def test_unclipped_steps_need_no_quadratic(self, metric, monkeypatch):
        # an unclipped trial along P^-1 g has Ps = -t g, so d.Pd comes from
        # g.d; quadratic is asked only after a trial the box cut.  The
        # objective is 1/2 e.Pe for e = x - target, so P^-1 g = e and the
        # first step lands on the target
        g, spec, data = setup(nx=7, nt=11)
        calls = []
        quadratic = metric.quadratic
        monkeypatch.setattr(
            metric, "quadratic",
            lambda self, d: calls.append(1) or quadratic(self, d))
        target = np.full((2, g.nt) + g.space_shape, 0.5)
        target[:, g.pinned(data)] = 0.0
        mass = node_mass(g, spec)
        mass[:, g.pinned(data)] = 0.0
        L = 1e4
        if metric is InverseMass:
            # projected_bb builds this metric itself
            precond = None
            apply_P = lambda e: L * mass * e
        else:
            precond = FreeBlockInverse(g, 0.1, 0.0, mass > 0.0)
            Q = g.quadratic_operator(0.1)
            apply_P = lambda e: np.stack(
                [Q @ ei for ei in e.reshape(2, -1)]).reshape(e.shape)

        def value_fn(x):
            e = x - target
            return 0.5 * float(np.vdot(e, apply_P(e)))

        def grad_fn(x):
            out = apply_P(x - target)
            out[:, g.pinned(data)] = 0.0
            return out

        x0 = np.full(target.shape, 0.4)
        x0[:, g.pinned(data)] = 0.0
        x, info = projected_bb(
            x0, value_fn, grad_fn, mass, OptimizerConfig(grad_tol=1e-9), L,
            lambda x, d: value_fn(x + d) - value_fn(x), precond)
        assert info["converged"] and info["iters"] <= 2
        assert calls == []
        np.testing.assert_allclose(x, target, rtol=0, atol=1e-9)

    def test_clipped_ascent_falls_back_to_inverse_mass_step(self):
        # with a P that is not diagonal, the clipped step along P^-1 g can
        # ascend at every length: from (0, 0.5) the box cuts the first
        # entry and leaves the second moving up.  Only the 1/L step along
        # g / mass descends, and it lands on the minimizer over the box
        c = np.array([-1.0, 0.4])
        P = np.array([[1.0, 0.9], [0.9, 1.0]])

        class Dense:
            def solve(self, r, out=None):
                out = np.empty(r.shape) if out is None else out
                out[:] = np.linalg.solve(P, r)
                return out

            def quadratic(self, d):
                return float(d @ P @ d)

        calls = []

        def value_fn(x):
            calls.append(1)
            return 0.5 * float(x @ x) - float(c @ x)

        x, info = projected_bb(
            np.array([0.0, 0.5]), value_fn, lambda x: x - c, np.ones(2),
            OptimizerConfig(), 1.0,
            lambda x, d: float((x - c) @ d + 0.5 * d @ d), Dense())
        assert info["converged"] and info["iters"] == 1
        np.testing.assert_array_equal(x, [0.0, 0.4])
        # the start, 48 halvings of the first trial down to MIN_STEP, and
        # the fallback
        assert len(calls) == 50
        assert info["J_history"][1] < info["J_history"][0]


def kkt_reference(x, gh):
    """The KKT residual through np.where, which _kkt_norm's reductions
    and mask multiplies must match bit for bit."""
    return float(max(np.max(np.where(x > 0.0, gh, 0.0)),
                     -np.min(np.where(x < 1.0, gh, 0.0))))


class TestKKT:
    def test_matches_where_reference_bit_for_bit(self):
        # random fields with exact 0s and 1s and zero-gradient entries, so
        # that the largest or least entry is often blocked; adding 0.0 maps
        # a reference result of -0.0 to 0.0, every other bit pattern is
        # compared as it is
        rng = np.random.default_rng(8)
        blocked = 0
        for n in rng.integers(1, 60, size=400):
            x = np.clip(rng.uniform(-0.5, 1.5, n), 0.0, 1.0)
            gh = rng.standard_normal(n)
            gh[rng.uniform(size=n) < 0.2] = 0.0
            want = np.float64(kkt_reference(x, gh) + 0.0).tobytes()
            assert np.float64(_kkt_norm(x, gh)).tobytes() == want
            assert np.float64(_kkt_norm(x, gh, np.empty(n))).tobytes() == want
            i, j = gh.argmax(), gh.argmin()
            blocked += not (x[i] > 0.0 and x[j] < 1.0)
        assert 50 < blocked < 350

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
        l0 = curvature_bound(g, spec, 0.1, 0.0)
        l1 = curvature_bound(g, spec, 0.1, 1000.0)
        assert l1 > l0 > 0.0

    def test_cold_start_is_competitor(self):
        # the time-constant extension of v0 is the one cold start, named
        # "competitor"; any other name is refused
        g, spec, data = setup(nx=7, nt=11)
        comp = competitor_field(data, g, spec)
        np.testing.assert_array_equal(
            comp.values, np.broadcast_to(data.v0[:, None], comp.values.shape))
        cfg = OptimizerConfig(max_iters=3)
        cold = minimize(spec, data, g, 0.1, 10.0, cfg)
        given = minimize(spec, data, g, 0.1, 10.0, cfg, init=comp)
        assert cold.J_history == given.J_history
        with pytest.raises(ValueError):
            minimize(spec, data, g, 0.1, 10.0, cfg, init="random")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=0.0)
