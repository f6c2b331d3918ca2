import numpy as np
import pytest

from wideseg.continuation import (
    LadderSpec, hard_segregation, original_time_l2, run_beta_ladder,
    run_eps_ladder, to_original_time,
)
from wideseg.grid import SpaceTimeGrid, StateField
from wideseg.model import BoundaryData, SystemSpec, preset_v0
from wideseg.optimizer import OptimizerConfig

T_R = 20.0


def setup(nx=15, nt=21):
    g = SpaceTimeGrid(1, nx, 1.0, nt, T_R)
    spec = SystemSpec.make(2, [[0, 1], [1, 0]])
    data = BoundaryData.make(
        preset_v0("two_ramp", g.x_field(), 2), "dirichlet_and_initial"
    )
    return g, spec, data


class TestHardSegregation:
    def test_keeps_dominant_zeroes_rest(self):
        v = np.array([[0.9, 0.2], [0.1, 0.8]])[:, :, None]
        out = hard_segregation(v)
        np.testing.assert_array_equal(
            out[:, :, 0], [[0.9, 0.0], [0.0, 0.8]]
        )

    def test_near_ties_become_interface_nodes(self):
        v = np.array([[0.5, 0.55], [0.5, 0.51]])[:, :, None]
        out = hard_segregation(v, tie_tol=0.1)
        assert np.all(out == 0.0)
        out = hard_segregation(v, tie_tol=0.0)
        assert out[1, 1, 0] == 0.0 and out[0, 1, 0] == 0.55

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0, 1, (3, 5, 7))
        once = hard_segregation(v)
        np.testing.assert_array_equal(hard_segregation(once), once)

    def test_output_has_zero_overlap(self):
        rng = np.random.default_rng(4)
        out = hard_segregation(rng.uniform(0, 1, (3, 4, 6)))
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.max(out[i] * out[j]) == 0.0


class TestTimeResampling:
    def test_exact_on_nodal_lattice(self):
        g, spec, _ = setup(nx=7, nt=11)
        rng = np.random.default_rng(0)
        f = StateField(rng.uniform(0, 1, (2, 11, 9)), g, spec)
        eps = 0.1
        vals = to_original_time(f, eps, eps * g.t)
        np.testing.assert_allclose(vals, f.values, rtol=1e-13)

    def test_horizon_guard_raises(self):
        g, spec, _ = setup(nx=7, nt=11)
        f = StateField(np.zeros((2, 11, 9)), g, spec)
        with pytest.raises(ValueError, match="horizon"):
            to_original_time(f, 0.05, np.array([0.0, 1.1]))

    def test_original_time_l2_of_constant_gap(self):
        g, _, _ = setup(nx=7, nt=11)
        taus = np.linspace(0.0, 2.0, 41)
        a = np.zeros((2, 41, 9))
        b = np.ones((2, 41, 9))
        # gap^2 integrates to k * |Omega| * tau_max = 2 * 1 * 2
        assert original_time_l2(a, b, taus, g) == pytest.approx(2.0, rel=1e-12)


class TestLadderSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LadderSpec(betas=(100.0, 10.0))
        with pytest.raises(ValueError):
            LadderSpec(epsilons=(0.05, 0.1))
        with pytest.raises(ValueError):
            LadderSpec(betas=(0.0, 10.0))


class TestLadders:
    def test_beta_ladder_segregates(self):
        g, spec, data = setup(nx=15, nt=21)
        bl = run_beta_ladder(
            spec, data, g, 0.1, (10.0, 100.0), OptimizerConfig(max_iters=1500)
        )
        assert bl.all_converged
        assert len(bl.results) == 2
        # penalty segregation: beta * overlap stays bounded as beta grows
        assert bl.beta_overlap[1] < 10.0 * bl.beta_overlap[0]
        v = bl.v_eps.values
        assert np.max(v[0] * v[1]) == 0.0
        assert np.all((v >= 0.0) & (v <= 1.0))

    def test_eps_ladder_shapes_and_cauchy(self):
        g, spec, data = setup(nx=15, nt=21)
        ladder = LadderSpec(betas=(10.0, 100.0), epsilons=(0.2, 0.1))
        dl = run_eps_ladder(
            spec, data, g, ladder, OptimizerConfig(max_iters=1500)
        )
        assert dl.all_converged
        assert set(dl.beta_results) == {0.2, 0.1}
        assert len(dl.cauchy) == 1
        hi, lo, d = dl.cauchy[0]
        assert (hi, lo) == (0.2, 0.1) and d >= 0.0
        assert dl.tau_max == pytest.approx(0.5 * 0.1 * T_R)
        assert np.max(dl.w.values[0] * dl.w.values[1]) == 0.0
