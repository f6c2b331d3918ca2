import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.interpolate import interp1d

from scipy.sparse.linalg import spsolve

from wideseg.grid import (
    FreeBlockInverse, SpaceTimeGrid, StateField, discrete_time_derivative,
    free_mask, impose_pins, resample_in_time, trapezoid_weights,
)
from wideseg.model import BC_MODES, BoundaryData, SystemSpec, preset_v0
from wideseg.optimizer import exact_metric
from wideseg.oracle import _stiffness, minimize_elliptic


def small_grid():
    return SpaceTimeGrid(1, 7, 1.0, 11, 20.0)


class TestWeights:
    def test_cell_weights_sum_exactly(self):
        g = small_grid()
        # exact exponential cell masses telescope to 1 - e^{-T_r}
        assert g.cell_weights.sum() == pytest.approx(1.0 - np.exp(-20.0), rel=1e-15)
        assert np.all(g.cell_weights > 0)

    def test_node_time_weights_partition_cells(self):
        g = small_grid()
        assert g.node_time_weights.sum() == pytest.approx(
            g.cell_weights.sum(), rel=1e-15
        )

    def test_space_weights_sum_to_length(self):
        g = small_grid()
        assert g.space_weights.sum() == pytest.approx(1.0, rel=1e-14)
        assert g.dx == pytest.approx(1.0 / 8.0)

    def test_tail_flag(self):
        assert small_grid().tail_ok
        assert not SpaceTimeGrid(1, 7, 1.0, 11, 5.0).tail_ok
        assert SpaceTimeGrid(1, 7, 1.0, 11, 5.0, tail_tol=1e-2).tail_ok

    @given(st.integers(5, 80), st.floats(10.0, 40.0))
    @settings(max_examples=25, deadline=None)
    def test_weight_identities_random_meshes(self, nt, T_r):
        g = SpaceTimeGrid(1, 5, 1.0, nt, T_r)
        assert g.cell_weights.sum() == pytest.approx(1.0 - np.exp(-T_r), rel=1e-12)
        assert np.all(np.diff(g.t) > 0)

    def test_2d_weights(self):
        g = SpaceTimeGrid(2, 5, 1.0, 5, 20.0, ny=7, Ly=2.0)
        assert g.space_shape == (7, 9)
        assert g.space_weights.sum() == pytest.approx(2.0, rel=1e-13)
        assert g.volume == 2.0
        assert g.boundary_mask.sum() == 2 * 7 + 2 * 9 - 4

    def test_node_weights(self):
        g = SpaceTimeGrid(2, 5, 1.0, 11, 20.0, ny=7, Ly=2.0)
        assert g.node_weights.shape == (11, 7, 9)
        assert g.node_weights.sum() == pytest.approx(
            2.0 * g.cell_weights.sum(), rel=1e-13
        )
        assert not g.node_weights.flags.writeable

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(3, 7, 1.0, 11, 20.0)
        with pytest.raises(ValueError):
            SpaceTimeGrid(1, 2, 1.0, 11, 20.0)
        with pytest.raises(ValueError):
            SpaceTimeGrid(2, 7, 1.0, 11, 20.0, ny=1, Ly=1.0)


class TestOperators:
    def test_time_derivative_of_linear_ramp(self):
        g = small_grid()
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        f = StateField(np.zeros((2, 11, 9)), g, spec)
        f.values[:] = g.t[None, :, None]
        du = discrete_time_derivative(f.values, f.grid.dt)
        np.testing.assert_allclose(du, 1.0, rtol=1e-12)

    def test_spatial_gradient_of_ramp(self):
        g = small_grid()
        vals = np.broadcast_to(g.x, (2, 11, 9))
        gx = g.edge_gradient(vals, 0)
        assert gx.shape == (2, 11, 8)
        np.testing.assert_allclose(gx, 1.0, rtol=1e-12)

    def test_2d_gradients_split_axes(self):
        g = SpaceTimeGrid(2, 4, 1.0, 5, 20.0, ny=4, Ly=1.0)
        vals = np.zeros((1, 5) + g.space_shape)
        vals[..., :, :] = 2.0 * g.x[:, None] + 3.0 * g.y[None, :]
        gx, gy = (g.edge_gradient(vals, a) for a in range(2))
        assert gx.shape == (1, 5, g.nx + 1, g.ny + 2)
        assert gy.shape == (1, 5, g.nx + 2, g.ny + 1)
        np.testing.assert_allclose(gx, 2.0, rtol=1e-12)
        np.testing.assert_allclose(gy, 3.0, rtol=1e-12)


class TestResampleInTime:
    @pytest.mark.parametrize("space", [(9,), (5, 4)])
    def test_bit_identical_to_interp1d(self, space):
        # the helper replaced interp1d(axis=1, kind="linear"); summary.json
        # is promised bit-for-bit, so the arithmetic must match exactly
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.uniform(0.1, 1.0, 17)) - 0.1
        values = rng.standard_normal((2, 17) + space)
        query = np.concatenate(
            [times, rng.uniform(times[0], times[-1], 40), times[::-1]]
        )
        expect = interp1d(times, values, axis=1, kind="linear")(query)
        got = resample_in_time(times, values, query)
        assert got.shape == expect.shape
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_allclose(got[:, :17], values, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("q", [-1e-9, 1.0 + 1e-9])
    def test_query_outside_nodes_raises(self, q):
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="outside"):
            resample_in_time(times, np.zeros((1, 5, 3)), np.array([0.5, q]))


GRIDS = {
    "1d": SpaceTimeGrid(1, 9, 1.0, 5, 20.0),
    "2d": SpaceTimeGrid(2, 5, 1.0, 5, 20.0, ny=8, Ly=1.7),
}


def true_edge_weights(g):
    """Each axis's true edge weights, from loops: the edge's length times
    the trapezoid weight of its node on the other axis."""
    def trap(n, h):
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        return w

    (nx, hx), *rest = g.axes
    if not rest:
        return [np.full(nx - 1, hx)]
    (ny, hy), = rest
    wx, wy = trap(nx, hx), trap(ny, hy)
    Wx = np.array([[hx * wy[j] for j in range(ny)] for _ in range(nx - 1)])
    Wy = np.array([[wx[i] * hy for _ in range(ny - 1)] for i in range(nx)])
    return [Wx, Wy]


class TestCellGradient:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    @given(nx=st.integers(3, 12), ny=st.integers(3, 12),
           Lx=st.floats(0.3, 3.0), Ly=st.floats(0.3, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_form_is_oracle_stiffness(self, name, nx, ny, Lx, Ly):
        # over the true weights, the Kronecker sum of the per-axis factors
        # is the IMEX oracle's independently assembled P1 stiffness, also
        # on anisotropic, non-dyadic 2-D grids
        g = SpaceTimeGrid(GRIDS[name].dim, nx, Lx, 5, 20.0, ny=ny, Ly=Ly)
        K = (g.dirichlet_stiffness / g.dirichlet_scale).toarray()
        want = _stiffness(g).toarray()
        np.testing.assert_allclose(K, want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())

    def test_gradient_of_plane(self):
        g = GRIDS["2d"]
        vals = np.broadcast_to(2.0 * g.x[:, None] + 3.0 * g.y[None, :],
                               (2, 5) + g.space_shape)
        gx, gy = (g.edge_gradient(vals, a) for a in range(2))
        assert gx.shape == (2, 5, g.nx + 1, g.ny + 2)
        assert gy.shape == (2, 5, g.nx + 2, g.ny + 1)
        np.testing.assert_allclose(gx, 2.0, rtol=1e-12)
        np.testing.assert_allclose(gy, 3.0, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_dirichlet_weights(self, name):
        # the functional's edge weights are the true ones in 1-D and half
        # of them in 2-D (the known 2-D defect, see ROADMAP); the stride
        # weights are W_a / h_a^2 on the edges and 0 on the wrapping pairs
        g = GRIDS[name]
        factor = 1.0 if g.dim == 1 else 0.5
        for a, (W, W_true, w, (_, h)) in enumerate(zip(
                g.edge_weights, true_edge_weights(g), g.dirichlet_weights,
                g.axes)):
            np.testing.assert_array_equal(W, factor * W_true)
            w = w.reshape(g.space_shape)
            np.testing.assert_array_equal(w[g.edges(a)], W / (h * h))
            assert np.count_nonzero(w) == W.size

    def test_dirichlet_scale_is_the_one_site(self, monkeypatch):
        # ROADMAP item 6: with the 2-D half patched to 1 on a fresh grid,
        # S is the true stiffness, u = x has Dirichlet term |Omega| = 1
        # on the unit square, and the spatial modes and the weak
        # pairings' edge weights double with it
        def grid():
            return SpaceTimeGrid(2, 9, 1.0, 5, 20.0, ny=6, Ly=1.0)

        sets = np.ones((1,) + grid().space_shape, dtype=bool)
        half = grid()
        zero = shifts_of(half, 1, 0.0)
        half_modes = half.free_modes(sets, 1.0, zero)
        assert half.dirichlet_form(half.x_field()) == pytest.approx(
            0.5, rel=1e-14)
        monkeypatch.setattr(SpaceTimeGrid, "dirichlet_scale",
                            property(lambda self: 1.0))
        g = grid()
        want = _stiffness(g).toarray()
        np.testing.assert_allclose(g.dirichlet_stiffness.toarray(), want,
                                   rtol=0, atol=1e-14 * np.abs(want).max())
        assert g.dirichlet_form(g.x_field()) == pytest.approx(1.0, rel=1e-14)
        for (_, lam), (_, lam_half) in zip(g.free_modes(sets, 1.0, zero),
                                           half_modes):
            np.testing.assert_allclose(lam, 2.0 * lam_half, rtol=1e-13,
                                       atol=1e-14 * lam.max())
        for W, W_half in zip(g.edge_weights, half.edge_weights):
            np.testing.assert_array_equal(W, 2.0 * W_half)


class TestDirichletForm:
    """The form from stride differences on the flat field, against the
    per-axis differences of ``np.diff`` under the true weights, and against
    a^T S b per slice."""

    @staticmethod
    def axis_gradients(g, v):
        return [np.diff(v, axis=v.ndim - g.dim + a) / h
                for a, (_, h) in enumerate(g.axes)]

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_stride_form_is_cell_gradient_form(self, name):
        g = GRIDS[name]
        W = [g.dirichlet_scale * w for w in true_edge_weights(g)]
        S = g.dirichlet_stiffness
        a, b = np.random.default_rng(11).standard_normal(
            (2, 3, g.nt) + g.space_shape)
        Ga, Gb = (self.axis_gradients(g, v) for v in (a, b))
        fa, fb = (v.reshape(-1, S.shape[0]) for v in (a, b))
        space = tuple(range(-g.dim, 0))
        for got, gb, Sv in ((g.dirichlet_form(a), Ga, fa @ S),
                            (g.dirichlet_form(a, b), Gb, fb @ S)):
            assert got.shape == (3, g.nt)
            terms = [ga * gb_a * w for ga, gb_a, w in zip(Ga, gb, W)]
            # relative to the sum of the terms' sizes: a b can cancel
            scale = sum(np.abs(t).sum(axis=space) for t in terms)
            want = sum(t.sum(axis=space) for t in terms)
            assert np.max(np.abs(got - want) / scale) <= 1e-14
            aSb = np.einsum("in,in->i", fa, Sv).reshape(got.shape)
            assert np.max(np.abs(got - aSb) / scale) <= 1e-14

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_gradient_is_cell_gradient(self, name):
        # the edge gradient along each axis is np.diff over h_a
        g = GRIDS[name]
        v = np.random.default_rng(12).standard_normal(
            (2, g.nt) + g.space_shape)
        for a, want in enumerate(self.axis_gradients(g, v)):
            got = g.edge_gradient(v, a)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-14 * np.abs(want).max())


class TestAxisStiffness:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_kronecker_sum_is_dirichlet_stiffness(self, name):
        # the per-axis factors of the spatial modes, summed over the other
        # axes' trapezoid weights, are the functional's own S with its
        # 2-D half, on every node and bit for bit
        g = GRIDS[name]
        M = [np.diag(trapezoid_weights(np.full(n - 1, h))) for n, h in g.axes]
        terms = [reduce(np.kron, M[:a] + [K.toarray()] + M[a + 1:])
                 for a, K in enumerate(g.axis_stiffness)]
        assert g.dirichlet_stiffness.format == "csc"
        np.testing.assert_array_equal(sum(terms),
                                      g.dirichlet_stiffness.toarray())


class TestQuadraticOperator:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_symmetric_m_matrix_pattern(self, name):
        # the kinetic and Dirichlet form: symmetric, off-diagonals <= 0 and
        # constants in its kernel; DIA storage has no elementwise compare,
        # so the pattern is read from its CSR copy
        g = GRIDS[name]
        Q = g.quadratic_operator(0.1).tocsr()
        n = g.nt * g.space_weights.size
        assert Q.shape == (n, n)
        assert (Q != Q.T).nnz == 0
        off = Q - sp.diags_array(Q.diagonal())
        assert off.max() <= 0.0
        np.testing.assert_allclose(Q @ np.ones(n), 0.0, rtol=0,
                                   atol=1e-14 * abs(Q).max())

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_diagonal_storage_is_the_kron_assembly(self, name):
        # Q in DIA storage from the factors' diagonals: the entries of
        # 2 [K_t (x) M + eps C_t (x) S] exactly, and its products bit for bit
        g = GRIDS[name]
        diag, off = g.time_stiffness
        K_t = sp.diags_array([off, diag, off], offsets=[-1, 0, 1])
        want = (2.0 * (
            sp.kron(K_t, sp.diags_array(g.space_weights.ravel()))
            + 0.1 * sp.kron(sp.diags_array(g.node_time_weights),
                            g.dirichlet_stiffness))).tocsr()
        Q = g.quadratic_operator(0.1)
        assert Q.format == "dia"
        assert list(Q.offsets) == sorted(Q.offsets)
        assert (Q.tocsr() != want).nnz == 0
        x = np.random.default_rng(13).standard_normal(Q.shape[0])
        np.testing.assert_array_equal(Q @ x, want @ x)

    def test_kept_for_latest_eps(self):
        g = SpaceTimeGrid(1, 9, 1.0, 5, 20.0)
        Q1 = g.quadratic_operator(0.1)
        assert g.quadratic_operator(0.1) is Q1
        Q2 = g.quadratic_operator(0.2)
        assert Q2 is not Q1 and g.quadratic_operator(0.2) is Q2
        assert g.quadratic_operator(0.1) is not Q1


def shifts_of(g, k, sigma, seed=3):
    """Per-axis shift profiles of k species, one (k, n_a) array per axis:
    sigma along x and 0 along y, a constant sigma at every node, or for
    ``"varying"`` a different random profile per species and axis."""
    if sigma == "varying":
        rng = np.random.default_rng(seed)
        return [rng.uniform(0.0, 5.0, (k, n)) for n, _ in g.axes]
    return [np.full((k, n), sigma if a == 0 else 0.0)
            for a, (n, _) in enumerate(g.axes)]


def node_shift(shifts, i):
    """Species i's shift at every spatial node: the sum of its axis
    profiles, in the spatial shape."""
    return reduce(np.add.outer, [s[i] for s in shifts])


class TestFreeBlockInverse:
    """The fast-diagonalization inverse of Q + 2 diag(node mass sigma_i)
    on the free nodes, sigma_i each species' shift profile, against a
    sparse direct solve of the same block."""

    SOLVE_GRIDS = {
        "1d": SpaceTimeGrid(1, 9, 1.0, 13, 20.0),
        "2d": SpaceTimeGrid(2, 6, 1.0, 9, 20.0, ny=4, Ly=0.7),
    }

    @staticmethod
    def operator(g, eps, shifts, i):
        """Species i's P = Q + 2 diag(node mass sigma_i), CSR."""
        mass = g.node_weights * node_shift(shifts, i)
        return (g.quadratic_operator(eps)
                + 2.0 * sp.diags_array(mass.ravel())).tocsr()

    def reference(self, g, data, eps, shifts, r, spatial=None):
        """spsolve of each species' P restricted to its free nodes: the
        unpinned nodes, within its row of ``spatial`` when given."""
        out = np.zeros(r.shape)
        for i, (ri, oi) in enumerate(zip(r, out)):
            P = self.operator(g, eps, shifts, i)
            free = free_mask(g, data)
            if spatial is not None:
                free &= spatial[i]
            free = free.ravel()
            if free.any():
                oi.reshape(-1)[free] = spsolve(P[free][:, free].tocsc(),
                                               ri.reshape(-1)[free])
        return out

    @staticmethod
    def unmasked(inv, r):
        """``inv.solve(r)`` with a mask of ones: the inverse on the hull
        alone, unmasked."""
        mask, inv._mask = inv._mask, True
        try:
            return inv.solve(r)
        finally:
            inv._mask = mask

    @pytest.mark.parametrize("sigma", [0.0, 2.5, "varying"])
    @pytest.mark.parametrize("mode", BC_MODES)
    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_inverts_free_block(self, name, mode, sigma):
        # a set every species shares, under constant or per-species
        # profiles
        g = self.SOLVE_GRIDS[name]
        data = BoundaryData.make(np.zeros((3,) + g.space_shape), mode)
        r = np.random.default_rng(4).normal(size=(3, g.nt) + g.space_shape)
        free = np.broadcast_to(free_mask(g, data), r.shape)
        shifts = shifts_of(g, 3, sigma)
        inv = FreeBlockInverse(g, 0.1, shifts, free)
        got = inv.solve(r)
        want = self.reference(g, data, 0.1, shifts, r)
        assert got.shape == r.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.all(got[:, g.pinned(data)] == 0.0)
        # the set is its own hull: the mask changes no bit
        assert got.tobytes() == self.unmasked(inv, r).tobytes()

    @staticmethod
    def random_sets(g, rng):
        """Three spatial sets: a random one, its complement and an empty
        one.  In 2-D they are products, a random x side and its complement
        times one random y side, as ``FreeBlockInverse`` needs; every 1-D
        set is one."""
        sets = np.zeros((3,) + g.space_shape, dtype=bool)
        if g.dim == 1:
            sets[0] = rng.uniform(size=g.space_shape) < 0.5
            sets[1] = ~sets[0]
        else:
            x, y = (rng.uniform(size=n) < 0.5 for n, _ in g.axes)
            sets[0], sets[1] = np.outer(x, y), np.outer(~x, y)
        return sets

    @pytest.mark.parametrize("mode", BC_MODES)
    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_inverts_per_species_sets(self, name, mode):
        # a refine's frozen partition that does not move in time: one
        # spatial set per species (``random_sets``) within the spatial
        # nodes the mode leaves free, under per-species profiles
        g = self.SOLVE_GRIDS[name]
        data = BoundaryData.make(np.zeros((3,) + g.space_shape), mode)
        rng = np.random.default_rng(6)
        spatial = self.random_sets(g, rng) & free_mask(g, data)[-1]
        r = rng.normal(size=(3, g.nt) + g.space_shape)
        free = spatial[:, None] & free_mask(g, data)
        shifts = shifts_of(g, 3, "varying")
        inv = FreeBlockInverse(g, 0.1, shifts, free)
        got = inv.solve(r)
        want = self.reference(g, data, 0.1, shifts, r, spatial)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        # exactly 0 at the pins and outside each species' set
        held = g.pinned(data) | ~spatial[:, None]
        assert np.all(got[held] == 0.0)
        assert got.tobytes() == self.unmasked(inv, r).tobytes()

    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_out_buffer_and_quadratic(self, name):
        # solve writes into a given buffer, whatever it held; quadratic is
        # sum_i d_i.(Q + 2 diag(mass sigma_i))d_i for a d that is 0 at the
        # pins, under per-species profiles
        g = self.SOLVE_GRIDS[name]
        data = BoundaryData.make(np.zeros((2,) + g.space_shape),
                                 "dirichlet_and_initial")
        free = np.broadcast_to(free_mask(g, data), (2, g.nt) + g.space_shape)
        shifts = shifts_of(g, 2, "varying")
        inv = FreeBlockInverse(g, 0.2, shifts, free)
        r = np.random.default_rng(5).normal(size=(2, g.nt) + g.space_shape)
        out = np.full(r.shape, np.nan)
        assert inv.solve(r, out) is out
        np.testing.assert_array_equal(out, inv.solve(r))
        assert np.dot(out.ravel(), r.ravel()) > 0.0
        want = sum(di @ (self.operator(g, 0.2, shifts, i) @ di)
                   for i, di in enumerate(out.reshape(2, -1)))
        assert inv.quadratic(out) == pytest.approx(want, rel=1e-12)

    @staticmethod
    def one_slice_reference(g, shifts, r, free):
        """spsolve of 2 (S + diag(M sigma_i)) restricted to each species'
        row of ``free``: the stationary energy's quadratic part plus the
        shift; and the operators."""
        out, Ps = np.zeros(r.shape), []
        for i, (ri, oi, fi) in enumerate(zip(r, out, free)):
            mass = g.space_weights * node_shift(shifts, i)
            P = 2.0 * (g.dirichlet_stiffness + sp.diags_array(mass.ravel()))
            Ps.append(P.tocsr())
            f = fi.ravel()
            if f.any():
                oi.reshape(-1)[f] = spsolve(Ps[i][f][:, f].tocsc(),
                                            ri.reshape(-1)[f])
        return out, Ps

    def check_one_slice(self, g, sigma, free, seed):
        shifts = shifts_of(g, len(free), sigma)
        inv = FreeBlockInverse(g, 1.0, shifts, free)
        r = np.random.default_rng(seed).normal(size=free.shape)
        got = inv.solve(r)
        want, Ps = self.one_slice_reference(g, shifts, r, free)
        assert got.shape == r.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        # exactly 0 off each species' set, bit-equal to the solve on the
        # hull, which is the set, and d.Pd for such a d
        assert np.all(got[~free] == 0.0)
        assert got.tobytes() == self.unmasked(inv, r).tobytes()
        q = sum(di @ (P @ di) for P, di in zip(Ps, got.reshape(len(got), -1)))
        assert inv.quadratic(got) == pytest.approx(q, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 2.5, "varying"])
    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_one_slice_default_set(self, name, sigma):
        # fields (k, *space), no time axis: the stationary oracle's set
        # without a support, the interior for every species, where S alone
        # is definite
        g = self.SOLVE_GRIDS[name]
        free = np.broadcast_to(~g.boundary_mask, (3,) + g.space_shape)
        self.check_one_slice(g, sigma, free, 7)

    @pytest.mark.parametrize("sigma", [0.0, 2.5, "varying"])
    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_one_slice_per_species_sets(self, name, sigma):
        # the stationary oracle's sets: interior nodes within a support
        # (``random_sets``)
        g = self.SOLVE_GRIDS[name]
        rng = np.random.default_rng(8)
        free = self.random_sets(g, rng) & ~g.boundary_mask
        self.check_one_slice(g, sigma, free, 9)

    @staticmethod
    def moving_sets(g, data):
        """Two species' free sets that are not their own hulls, and the
        spatial hulls.  In 1-D species 0 gains a node halfway in time and
        species 1 keeps its nodes; in 2-D both move on one L-shaped set, at
        every slice, whose hull is the interior."""
        free = np.broadcast_to(free_mask(g, data),
                               (2, g.nt) + g.space_shape).copy()
        if g.dim == 1:
            free[0, :g.nt // 2, 5:] = free[0, g.nt // 2:, 6:] = False
            free[1, :, :6] = False
        else:
            free[:, :, 4:, 3:] = False
        hull = np.stack([reduce(np.multiply.outer, g.product_sides(f))
                         for f in free[:, 1:].any(axis=1)])
        return free, hull

    @pytest.mark.parametrize("name", ["1d", "2d"])
    def test_masked_solve_is_a_block_of_the_hull_inverse(self, name):
        # off its own hull the solve is Pi P^-1 Pi r, P that of the hull:
        # 0 off the set, symmetric and positive on fields supported on it
        g = self.SOLVE_GRIDS[name]
        data = BoundaryData.make(np.zeros((2,) + g.space_shape),
                                 "dirichlet_and_initial")
        free, hull = self.moving_sets(g, data)
        assert not np.array_equal(free[:, 1:], np.broadcast_to(
            hull[:, None], free[:, 1:].shape))
        shifts = shifts_of(g, 2, "varying")
        inv = FreeBlockInverse(g, 0.1, shifts, free)
        rng = np.random.default_rng(10)
        r = rng.normal(size=free.shape)
        got = inv.solve(r)
        want = self.reference(g, data, 0.1, shifts, r * free, hull) * free
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        assert np.all(got[~free] == 0.0)
        for _ in range(4):
            a, b = rng.normal(size=(2,) + free.shape) * free
            ab, ba = np.vdot(a, inv.solve(b)), np.vdot(b, inv.solve(a))
            assert abs(ab - ba) <= 1e-12 * np.vdot(a, inv.solve(a))
            assert np.vdot(a, inv.solve(a)) > 0.0

    def test_set_that_is_not_a_product_takes_the_masked_hull(self):
        # an L-shaped interior support shared by both species: its hull is
        # the interior, the metric masks it, and the stationary solve
        # converges with the nodes off the set held at zero
        g = self.SOLVE_GRIDS["2d"]
        L = ~g.boundary_mask
        L[3:, 3:] = False
        np.testing.assert_array_equal(
            reduce(np.multiply.outer, g.product_sides(L)), ~g.boundary_mask)
        spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        support = np.broadcast_to(L, (2,) + g.space_shape)
        x0 = np.full(support.shape, 0.5)
        assert exact_metric(g, spec, 1.0, 10.0, x0, support)._mask is support
        data = BoundaryData.make(
            preset_v0("two_ramp", g.x_field(), 2), "dirichlet_and_initial")
        res = minimize_elliptic(spec, data, g, 10.0, support=support)
        held = ~support & ~g.boundary_mask
        assert res.converged and np.all(res.w[held] == 0.0)


class TestPerAxisModes:
    """On a box set in 2-D the spatial modes are per-axis factors whose
    eigenvalues sum; they must be the dense modes of the same set, with
    the same scale of the Dirichlet form."""

    GRID = SpaceTimeGrid(2, 7, 1.3, 9, 20.0, ny=5, Ly=0.6)

    @pytest.mark.parametrize("interior", [True, False])
    def test_eigenvalues_and_solve_equal_dense(self, interior, monkeypatch):
        g = self.GRID
        f = ~g.boundary_mask if interior else np.ones(g.space_shape, bool)
        factors = g.free_modes(f[None], 1.0, shifts_of(g, 1, 0.0))
        assert [lam.shape for _, lam in factors] == (
            [(1, 7), (1, 5)] if interior else [(1, 9), (1, 7)])
        lam = np.sort(np.add.outer(*[lam[0] for _, lam in factors]).ravel())
        # the dense modes of S_f and M_f, zero rows outside f
        m = f.ravel()
        dense, V_f = scipy.linalg.eigh(
            g.dirichlet_stiffness.toarray()[np.ix_(m, m)],
            np.diag(g.space_weights.ravel()[m]))
        V = np.zeros((m.size, m.sum()))
        V[m] = V_f
        # relative to the largest: the all-nodes set has lam = 0
        assert np.max(np.abs(lam - dense)) <= 1e-12 * dense.max()
        # the same solve with the dense modes as its one factor
        data = BoundaryData.make(np.zeros((2,) + g.space_shape),
                                 "dirichlet_and_initial" if interior
                                 else "initial_only")
        free = np.broadcast_to(free_mask(g, data), (2, g.nt) + g.space_shape)
        r = np.random.default_rng(11).normal(size=free.shape)
        shifts = shifts_of(g, 2, 2.5)
        got = FreeBlockInverse(g, 0.1, shifts, free).solve(r)
        # the modes of 0.1 S_f + 2.5 M_f, one copy per species
        monkeypatch.setattr(g, "free_modes", lambda sets, eps, shifts: [
            (np.repeat(V[None], len(sets), axis=0),
             np.repeat((eps * dense + 2.5)[None], len(sets), axis=0))])
        want = FreeBlockInverse(g, 0.1, shifts, free).solve(r)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_no_dense_spatial_matrix_on_a_box(self):
        # a dense matrix of the grid's 33 x 33 spatial nodes takes 9.5 MB;
        # the sets are the interior, shared, and one x-half of it for each
        # species, as on an s1 refine
        g = SpaceTimeGrid(2, 31, 1.0, 3, 20.0, ny=31, Ly=1.0)
        data = BoundaryData.make(np.zeros((2,) + g.space_shape),
                                 "dirichlet_and_initial")
        shared = np.broadcast_to(free_mask(g, data), (2, g.nt) + g.space_shape)
        halves = shared.copy()
        halves[0, :, 17:] = halves[1, :, :17] = False
        r = np.ones(shared.shape)
        for free in (shared, halves):
            tracemalloc.start()
            try:
                FreeBlockInverse(g, 0.2, shifts_of(g, 2, 1.0), free).solve(r)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 5e6


class TestConstraints:
    def setup_method(self):
        self.g = small_grid()
        self.spec = SystemSpec.make(2, [[0, 1], [1, 0]])
        self.data = BoundaryData.make(
            preset_v0("two_ramp", self.g.x_field(), 2), "dirichlet_and_initial"
        )

    def test_impose_pins_sets_initial_and_trace(self):
        v = np.zeros((2, 11, 9))
        impose_pins(v, self.g, self.data)
        np.testing.assert_array_equal(v[:, 0], self.data.v0)
        assert v[0, 5, 0] == 1.0       # left Dirichlet column
        assert v[1, 5, -1] == 1.0

    def test_free_mask_modes(self):
        m = free_mask(self.g, self.data)
        assert not m[0].any()
        assert not m[:, 0].any() and not m[:, -1].any()
        assert m[1:, 1:-1].all()
        data_i = BoundaryData.make(self.data.v0, "initial_only")
        m = free_mask(self.g, data_i)
        assert m[1:].all() and not m[0].any()
        data_g = BoundaryData.make(self.data.v0, "dirichlet_only")
        m = free_mask(self.g, data_g)
        assert m[0, 1:-1].all()
