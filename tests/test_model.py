import numpy as np
import pytest
from hypothesis import given, strategies as st

from wideseg.model import (
    BoundaryData, ReactionFamily, SystemSpec, preset_v0,
    validate_boundary, validate_system,
)


class TestReactionFamily:
    def test_zero_family(self):
        r = ReactionFamily("zero")
        s = np.linspace(-1, 2, 7)
        assert np.all(r.f(s) == 0.0)
        assert np.all(r.F(s) == 0.0)
        assert r.F_max == 0.0

    def test_cubic_values(self):
        # closed forms: f(s) = lam s^2 (1-s), F(s) = lam (s^3/3 - s^4/4)
        r = ReactionFamily("cubic", lam=1.0)
        assert r.f(1.0) == 0.0
        assert r.F(1.0) == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert r.f(0.5) == pytest.approx(1.0 / 8.0, abs=1e-15)
        assert r.F(0.5) == pytest.approx(5.0 / 192.0, abs=1e-15)
        assert r.F_max == pytest.approx(1.0 / 12.0)

    @pytest.mark.parametrize("kind, lam", [("zero", 1.0), ("cubic", 0.7),
                                           ("cubic", 2.0)])
    def test_slope_max_is_max_abs_derivative_on_the_box(self, kind, lam):
        # central differences of f on a fine grid of [0, 1]
        r = ReactionFamily(kind, lam)
        s, h = np.linspace(0.0, 1.0, 2001), 1e-6
        slope = np.max(np.abs(r.f(s + h) - r.f(s - h)) / (2.0 * h))
        assert r.slope_max == pytest.approx(slope, rel=1e-6, abs=1e-12)

    def test_cubic_scales_linearly(self):
        a, b = ReactionFamily("cubic", 1.0), ReactionFamily("cubic", 3.0)
        s = np.linspace(0, 1, 11)
        np.testing.assert_allclose(b.F(s), 3.0 * a.F(s), rtol=1e-14)

    @pytest.mark.parametrize("kind", ["zero", "cubic"])
    def test_F_change_is_difference_of_primitives(self, kind):
        r = ReactionFamily(kind, lam=2.0)
        rng = np.random.default_rng(4)
        s = rng.uniform(-0.5, 1.5, 50)
        d = rng.uniform(-1.0, 1.0, 50)
        np.testing.assert_allclose(r.F_change(s, d), r.F(s + d) - r.F(s),
                                   rtol=1e-12, atol=1e-14)
        assert np.all(r.F_change(s, np.zeros(50)) == 0.0)
        # a change far below the ulp of F(s) is still resolved: f(s) d
        tiny = 1e-20
        np.testing.assert_allclose(r.F_change(s, tiny), r.f(s) * tiny,
                                   rtol=1e-12, atol=1e-300)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ReactionFamily("quintic")
        with pytest.raises(ValueError):
            ReactionFamily("cubic", lam=-1.0)

    @given(st.floats(-2.0, 3.0))
    def test_truncation_never_increases_potential(self, s):
        # F is maximal on [0, 1]: F(clip(s)) >= F(s)
        r = ReactionFamily("cubic", 1.0)
        assert r.F(np.clip(s, 0.0, 1.0)) >= r.F(s) - 1e-12

    def test_f_and_F_at_half(self):
        r = ReactionFamily("cubic", 2.0)
        assert r.f(0.5) == pytest.approx(2.0 / 8.0)
        assert r.F(0.5) == pytest.approx(10.0 / 192.0)


class TestSystemSpec:
    def test_make_defaults_to_zero_reactions(self):
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        assert all(r.kind == "zero" for r in spec.reactions)
        assert spec.M_bound == 0.0

    def test_reactive_when_any_species_reacts(self):
        A = [[0, 1], [1, 0]]
        assert not SystemSpec.make(2, A).reactive
        mixed = [ReactionFamily("zero"), ReactionFamily("cubic", 1.0)]
        assert SystemSpec.make(2, A, mixed).reactive

    def test_f_all_is_per_species_f_in_c_order(self):
        # one preallocated result, bit for bit the per-species values and
        # the expression lam s^2 (1 - s), whatever the input's layout
        rng = np.random.default_rng(3)
        fams = (ReactionFamily("cubic", 1.7), ReactionFamily("zero"),
                ReactionFamily("cubic", 0.3))
        spec = SystemSpec.make(3, np.ones((3, 3)) - np.eye(3), fams)
        v = np.asfortranarray(rng.uniform(-0.2, 1.2, size=(3, 7, 5)))
        out = spec.f_all(v)
        assert out.shape == v.shape and out.flags.c_contiguous
        for i, r in enumerate(fams):
            np.testing.assert_array_equal(out[i], r.f(v[i]))
            want = (r.lam * v[i] * v[i] * (1.0 - v[i]) if r.kind == "cubic"
                    else np.zeros_like(v[i]))
            assert out[i].tobytes() == np.ascontiguousarray(want).tobytes()

    def test_M_bound_cubic(self):
        spec = SystemSpec.make(
            2, [[0, 1], [1, 0]],
            [ReactionFamily("cubic", 1.0)] * 2,
        )
        # 2 * (1/12 + 1/12): twice the summed potential maxima
        assert spec.M_bound == pytest.approx(1.0 / 3.0)

    def test_slope_bound_is_the_steepest_species(self):
        fams = [ReactionFamily("cubic", 0.5), ReactionFamily("zero"),
                ReactionFamily("cubic", 1.5)]
        spec = SystemSpec.make(3, np.ones((3, 3)) - np.eye(3), fams)
        assert spec.slope_bound == 1.5
        assert SystemSpec.make(2, [[0, 1], [1, 0]]).slope_bound == 0.0

    def test_validate_ok(self):
        assert validate_system(SystemSpec.make(3, np.ones((3, 3)) - np.eye(3))) == []

    def test_validate_flags_diagonal(self):
        bad = SystemSpec.make(2, [[1.0, 1.0], [1.0, 0.0]])
        msgs = validate_system(bad)
        assert any("diagonal" in m for _, m in msgs)

    def test_validate_flags_asymmetry_and_sign(self):
        msgs = validate_system(SystemSpec.make(2, [[0.0, -1.0], [2.0, 0.0]]))
        assert any("symmetric" in m for _, m in msgs)
        assert any("positive" in m for _, m in msgs)

    def test_validate_flags_k(self):
        assert validate_system(SystemSpec.make(1, [[0.0]]))


class TestBoundaryData:
    def test_noise_cleanup_and_read_only(self):
        v0 = np.array([[1.0, 1e-16, 0.0], [0.0, 0.0, 1.0]])
        data = BoundaryData.make(v0)
        assert data.v0[0, 1] == 0.0
        with pytest.raises(ValueError):
            data.v0[0, 0] = 2.0

    def test_bc_mode_flags(self):
        v0 = np.zeros((2, 4))
        assert BoundaryData.make(v0, "dirichlet_and_initial").pins_initial
        assert BoundaryData.make(v0, "dirichlet_and_initial").pins_dirichlet
        assert not BoundaryData.make(v0, "initial_only").pins_dirichlet
        assert not BoundaryData.make(v0, "dirichlet_only").pins_initial
        with pytest.raises(ValueError):
            BoundaryData.make(v0, "neumann")

    def test_validate_segregation(self):
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        x = np.linspace(0, 1, 9)
        good = BoundaryData.make(preset_v0("two_ramp", x, 2))
        assert validate_boundary(good, spec) == []
        bad = BoundaryData.make(np.full((2, 9), 0.5))
        msgs = validate_boundary(bad, spec)
        assert any("segregation" in m for m in msgs)

    def test_validate_bounds(self):
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        v0 = np.zeros((2, 5))
        v0[0, 0] = 1.5
        msgs = validate_boundary(BoundaryData.make(v0), spec)
        assert any("bound" in m for m in msgs)

    def test_validate_component_mismatch_raises(self):
        spec = SystemSpec.make(3, np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ValueError):
            validate_boundary(BoundaryData.make(np.zeros((2, 5))), spec)


class TestPresets:
    def test_two_ramp_segregated_partition_of_unity_at_ends(self):
        x = np.linspace(0, 1, 33)
        v0 = preset_v0("two_ramp", x, 2)
        assert v0.shape == (2, 33)
        assert np.all(v0[0] * v0[1] == 0.0)
        assert v0[0, 0] == 1.0 and v0[1, -1] == 1.0
        assert v0[0, 16] == 0.0 and v0[1, 16] == 0.0

    def test_two_ramp_requires_two_species(self):
        with pytest.raises(ValueError):
            preset_v0("two_ramp", np.linspace(0, 1, 5), 3)

    def test_k_blocks_segregated(self):
        x = np.linspace(0, 1, 101)
        v0 = preset_v0("k_blocks", x, 4)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.max(v0[i] * v0[j]) == 0.0
        assert v0.max() == pytest.approx(1.0, abs=0.05)

    def test_zero_and_unknown(self):
        assert np.all(preset_v0("zero", np.linspace(0, 1, 5), 2) == 0.0)
        with pytest.raises(ValueError):
            preset_v0("bogus", np.linspace(0, 1, 5), 2)
