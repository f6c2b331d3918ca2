"""Truncated exponential-weight space-time mesh and discrete operators.

Everything lives on the rescaled clock with weight e^{-t}: one grid serves
all values of the regularization parameter, and original-time content is
recovered afterwards by resampling.  Spatial nodes include the two boundary
columns, so Dirichlet data is imposed by pinning nodes rather than through
ghost values; nx still counts interior nodes and dx = Lx/(nx+1).

The Dirichlet term is defined by per-axis factors alone: the trapezoid
weights M_a (``axis_weights``), the line stiffness K_a (``axis_stiffness``)
and the edge weights W_a (``edge_weights``).  Its matrix S
(``dirichlet_stiffness``) is their Kronecker sum, the one that
``free_modes`` diagonalizes with eps and a per-axis shift.

The functional's kernels are whole-field passes: ``axis_step`` takes each
axis's differences on the flat C-ordered field at the axis's stride,
``dirichlet_form`` weighs them, and ``integrate`` is one matrix-vector
product.  ``quadratic_operator`` holds Q in diagonal storage, built from
the diagonals of its Kronecker factors.

``FreeBlockInverse`` learns what moves from one boolean mask in the field's
shape, (k, nt, *space) or (k, *space) for one slice, through ``free_rows``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs

from .model import BoundaryData, SystemSpec


@dataclass
class SpaceTimeGrid:
    """The ``[grid]`` section of a config; ny and Ly are read in 2-D only."""

    dim: int = 1
    nx: int = 63
    Lx: float = 1.0
    nt: int = 201
    T_r: float = 20.0
    ny: int = 63
    Ly: float = 1.0
    tail_tol: float = 1e-8

    # derived quantities, filled by __post_init__
    dx: float = field(init=False)
    dy: float = field(init=False, default=0.0)
    dt: float = field(init=False)
    x: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False, default=None)
    t: np.ndarray = field(init=False)
    cell_weights: np.ndarray = field(init=False)
    node_time_weights: np.ndarray = field(init=False)
    axis_weights: list = field(init=False)
    space_weights: np.ndarray = field(init=False)
    boundary_mask: np.ndarray = field(init=False)
    tail_mass: float = field(init=False)
    tail_ok: bool = field(init=False)
    # (eps, Q) of the latest quadratic_operator and slice_operator calls;
    # pinned masks by mode
    _quadratic: tuple = field(init=False, default=None, repr=False,
                              compare=False)
    _slice: tuple = field(init=False, default=None, repr=False,
                          compare=False)
    _pinned: dict = field(init=False, default_factory=dict, repr=False,
                          compare=False)

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError("spatial dimension must be 1 or 2")
        if self.nx < 3 or self.nt < 3:
            raise ValueError("nx and nt must both be >= 3")
        if self.T_r <= 0:
            raise ValueError("T_r must be positive")
        if self.Lx <= 0 or (self.dim == 2 and self.Ly <= 0):
            raise ValueError("Lx (and Ly in 2-D) must be positive")

        self.dx = self.Lx / (self.nx + 1)
        self.dt = self.T_r / (self.nt - 1)
        self.x = np.linspace(0.0, self.Lx, self.nx + 2)
        self.t = np.linspace(0.0, self.T_r, self.nt)

        # exact per-cell integrals of e^{-t}; their sum is 1 - e^{-T_r}
        et = np.exp(-self.t)
        self.cell_weights = et[:-1] - et[1:]
        self.node_time_weights = trapezoid_weights(self.cell_weights)

        if self.dim == 2:
            if self.ny < 3:
                raise ValueError("ny must be >= 3 in 2-D")
            self.dy = self.Ly / (self.ny + 1)
            self.y = np.linspace(0.0, self.Ly, self.ny + 2)
        # the one trapezoid rule per axis, M_a, and their outer product
        self.axis_weights = [trapezoid_weights(np.full(n - 1, h))
                             for n, h in self.axes]
        self.space_weights = reduce(np.multiply.outer, self.axis_weights)
        self.boundary_mask = np.ones(self.space_shape, dtype=bool)
        self.boundary_mask[(slice(1, -1),) * self.dim] = False

        self.tail_mass = float(np.exp(-self.T_r))
        self.tail_ok = self.tail_mass <= self.tail_tol

    @property
    def axes(self) -> list:
        """(node count, spacing) of each spatial axis."""
        return [(self.nx + 2, self.dx), (self.ny + 2, self.dy)][:self.dim]

    @property
    def coords(self) -> list:
        """Node coordinates of each spatial axis."""
        return [self.x, self.y][:self.dim]

    @property
    def lengths(self) -> list:
        """Length of each spatial axis."""
        return [self.Lx, self.Ly][:self.dim]

    @property
    def space_shape(self) -> tuple:
        return self.space_weights.shape

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Trapezoidal integral over space, one matrix-vector product:
        (*lead, *space) -> lead."""
        m = self.space_weights.reshape(-1)
        return (values.reshape(-1, m.size) @ m).reshape(
            values.shape[:values.ndim - self.dim])

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Node time weight x spatial weight, shape (nt, *space); read-only."""
        m = np.multiply.outer(self.node_time_weights, self.space_weights)
        m.flags.writeable = False
        return m

    @property
    def dirichlet_scale(self) -> float:
        """The functional's Dirichlet weights over the true ones: 1 in 1-D
        and 1/2 in 2-D, a known defect kept so that results stay comparable
        (the 2-D form took its cross-axis weights from the boundary row of
        the trapezoid weights, so it is half of int |grad u|^2; ROADMAP 6).
        The only site of the half.  The per-axis factors read it, the
        ``edge_weights`` W_a and the ``axis_stiffness`` K_a, and through
        them the value, the gradient, S, Q, the spatial modes, the
        stationary oracle, the uniformity windows and the weak-inequality
        pairings."""
        return 0.5 if self.dim == 2 else 1.0

    @cached_property
    def axis_strides(self) -> list:
        """The stride s_a of each spatial axis a in the C-ordered spatial
        nodes: ny + 2 along x in 2-D, 1 along the last axis."""
        return [math.prod(self.space_shape[a + 1:]) for a in range(self.dim)]

    def edges(self, a: int) -> tuple:
        """Index of the edges along axis a in the trailing spatial axes:
        the nodes i off the last line along a, whose pair (i, i + s_a)
        is an edge."""
        return (Ellipsis,) + tuple(slice(-1) if b == a else slice(None)
                                   for b in range(self.dim))

    @cached_property
    def edge_weights(self) -> list:
        """W_a = s h_a (x)_{b != a} M_b of each spatial axis a, in the shape
        of its ``edges`` (n_a - 1 along a): each edge's length times the
        ``axis_weights`` of the other axes, times the ``dirichlet_scale`` s.
        The Dirichlet form is sum_a sum_e W_a,e (u[e + s_a] - u[e])^2 /
        h_a^2."""
        s = self.dirichlet_scale
        return [s * reduce(np.multiply.outer, self.axis_weights[:a]
                           + [np.full(n - 1, h)] + self.axis_weights[a + 1:])
                for a, (n, h) in enumerate(self.axes)]

    @cached_property
    def dirichlet_weights(self) -> list:
        """The weight of each node's ``axis_step`` along each axis a,
        (n_space,) per axis: W_a / h_a^2 on the ``edges`` along a, W_a the
        ``edge_weights``, and 0 at the nodes off them, whose pairs reach
        the next line or the next slice."""
        out = []
        for a, (W, (_, h)) in enumerate(zip(self.edge_weights, self.axes)):
            w = np.zeros(self.space_shape)
            w[self.edges(a)] = W / (h * h)
            out.append(w.reshape(-1))
        return out

    def axis_step(self, values: np.ndarray, a: int) -> np.ndarray:
        """u[i + s_a] - u[i] at every spatial node i of values (*lead,
        *space), s_a the stride of axis a (``axis_strides``): shape (*lead,
        n_space).  The differences are taken in one pass over the flat
        C-ordered field, so at the nodes off the ``edges`` of axis a the
        pair reaches into the next line or slice, and the last s_a are 0;
        the ``dirichlet_weights`` give them weight 0.  The one home of the
        spatial difference."""
        s = self.axis_strides[a]
        flat = values.reshape(-1)
        step = np.empty(flat.size)
        np.subtract(flat[s:], flat[:-s], out=step[:-s])
        step[-s:] = 0.0
        return step.reshape(values.shape[:values.ndim - self.dim] + (-1,))

    def edge_gradient(self, values: np.ndarray, a: int) -> np.ndarray:
        """The gradient along axis a on its ``edges``, the ``axis_step``
        over h_a without the pairs that wrap: (*lead, *space) -> (*lead,
        *space with n_a - 1 along a)."""
        step = self.axis_step(values, a).reshape(values.shape)
        return step[self.edges(a)] / self.axes[a][1]

    @cached_property
    def axis_stiffness(self) -> list:
        """Sparse tridiagonal K_a = D_a^T diag(s h_a) D_a of each spatial
        axis, D_a its forward difference (n_a - 1, n_a) over h_a and s the
        ``dirichlet_scale``: the line stiffness of the Dirichlet form."""
        out = []
        for n, h in self.axes:
            D = sp.diags_array([-1.0 / h, 1.0 / h], offsets=[0, 1],
                               shape=(n - 1, n))
            out.append(D.T @ sp.diags_array(
                np.full(n - 1, self.dirichlet_scale * h)) @ D)
        return out

    @cached_property
    def dirichlet_stiffness(self):
        """Sparse S (CSC) of the Dirichlet form, u^T S u = ``dirichlet_form``:
        the Kronecker sum sum_a M_<a (x) K_a (x) M_>a of the
        ``axis_stiffness`` over the ``axis_weights``, K_x in 1-D and
        K_x (x) M_y + M_x (x) K_y in 2-D, which ``free_modes``
        diagonalizes axis by axis."""
        M = [sp.diags_array(m) for m in self.axis_weights]
        return reduce(operator.add, [
            reduce(sp.kron, M[:a] + [K] + M[a + 1:])
            for a, K in enumerate(self.axis_stiffness)]).tocsc()

    @cached_property
    def time_stiffness(self) -> tuple:
        """(diag, off) of the tridiagonal K_t = D_t^T diag(cell_weights /
        dt^2) D_t, D_t the forward difference in time: the kinetic form
        sum_j cell_weights_j ((u_{j+1} - u_j) / dt)^2 is u^T K_t u."""
        c = self.cell_weights / self.dt**2
        diag = np.zeros(self.nt)
        diag[:-1] += c
        diag[1:] += c
        off = -c
        diag.flags.writeable = off.flags.writeable = False
        return diag, off

    def quadratic_operator(self, eps: float):
        """Sparse Q with sum_i 1/2 u_i^T Q u_i the functional's kinetic plus
        eps times its Dirichlet term, u_i one species on the C-ordered
        (time, *space) nodes:

            Q = 2 [K_t (x) M_x + eps C_t (x) S],

        K_t the ``time_stiffness``, C_t the node time weights, M_x the
        spatial weights and S the ``dirichlet_stiffness``.  Q is symmetric
        with off-diagonals <= 0 and Q 1 = 0.  Kept for the latest eps only.

        Q is held in diagonal (DIA) storage, offsets ascending: 0, +-s_a
        (the ``axis_strides``) and +-n_space.  Each factor is banded,
        so each stored diagonal of a Kronecker product is the ``np.kron``
        of one stored diagonal of each factor.
        """
        if self._quadratic is None or self._quadratic[0] != eps:
            # drop the previous eps's Q first, so two are never held at once
            self._quadratic = None
            diag, off = self.time_stiffness
            m = self.space_weights.reshape(-1)
            S = self.dirichlet_stiffness.todia()
            # K_t's diagonals -1 and +1 as DIA stores them, by column
            below, above = np.zeros(self.nt), np.zeros(self.nt)
            below[:-1] = above[1:] = off
            data = np.empty((len(S.offsets) + 2, self.nt * m.size))
            data[1:-1] = np.kron(self.node_time_weights, S.data)
            data[1:-1] *= eps
            # S's offsets are symmetric, so offset 0 is the middle row
            data[len(data) // 2] += np.kron(diag, m)
            data[0], data[-1] = np.kron(below, m), np.kron(above, m)
            data *= 2.0
            offsets = np.concatenate([[-m.size], S.offsets, [m.size]])
            self._quadratic = (eps, sp.dia_array((data, offsets),
                                                 shape=(data.shape[1],) * 2))
        return self._quadratic[1]

    def slice_operator(self, eps: float):
        """Sparse 2 eps S, the one-slice case of ``quadratic_operator``
        (no time axis: K_t = 0, C_t = 1), S the ``dirichlet_stiffness``:
        sum_i 1/2 w_i^T (2 eps S) w_i is eps times the Dirichlet term of a
        spatial field w (k, *space).  Kept for the latest eps only."""
        if self._slice is None or self._slice[0] != eps:
            self._slice = (eps, 2.0 * eps * self.dirichlet_stiffness)
        return self._slice[1]

    def pinned(self, data: BoundaryData) -> np.ndarray:
        """Read-only (nt, *space) mask of the nodes ``data`` pins, the
        complement of ``free_mask``; cached per pinning mode."""
        key = (data.pins_initial, data.pins_dirichlet)
        if key not in self._pinned:
            mask = ~free_mask(self, data)
            mask.flags.writeable = False
            self._pinned[key] = mask
        return self._pinned[key]

    def product_sides(self, f: np.ndarray) -> list:
        """The projections of the spatial set f (a boolean mask of the
        spatial nodes, any shape) on the axes.  Their outer product is the
        product hull of f, the least product set that holds it, and f
        itself when f is a product; every 1-D set is one."""
        f = np.reshape(f, self.space_shape)
        return [f.any(axis=tuple(b for b in range(self.dim) if b != a))
                for a in range(self.dim)]

    def free_modes(self, sets: np.ndarray, eps: float,
                   shifts: list) -> list:
        """The modes of P_f V_f = M_f V_f diag(lam), V_f^T M_f V_f = I, for
        P = eps S + M diag(sigma) restricted to the product hull f (the
        outer product of the ``product_sides``) of each spatial set of the
        stack ``sets`` (s, *space), as one factor (V_a, lam_a) per axis: S
        the ``dirichlet_stiffness``, M the spatial weights and sigma the sum
        sigma_x (+) sigma_y of the per-axis profiles ``shifts`` (one (s,
        n_a) array per axis, one row per set).  There P_f is the Kronecker
        sum of eps K_a + M_a diag(sigma_a), K_a the ``axis_stiffness`` and
        M_a the ``axis_weights``, restricted to each side, so the modes of f
        are V_x (x) V_y with lam the sums lam_x + lam_y, C-ordered.  V_a (s,
        n_a, m_a) and lam_a (s, m_a) stack the sets' modes, each padded with
        zero columns (lam = 1) to the most any set has on that axis.

        One dense ``eigh`` per axis and set, of at most n_a nodes, so no
        dense matrix of the spatial nodes.
        """
        sides = [self.product_sides(f) for f in sets]
        factors = []
        for a, (n, _) in enumerate(self.axes):
            K, w = eps * self.axis_stiffness[a].toarray(), self.axis_weights[a]
            modes = [_weighted_modes(K + np.diag(w * shift), w, side[a])
                     for side, shift in zip(sides, shifts[a])]
            m = max(len(lam) for _, lam in modes)
            V, lam = np.zeros((len(modes), n, m)), np.ones((len(modes), m))
            for i, (V_i, lam_i) in enumerate(modes):
                V[i, :, :len(lam_i)] = V_i
                lam[i, :len(lam_i)] = lam_i
            factors.append((V, lam))
        return factors

    def dirichlet_form(self, a: np.ndarray, b: np.ndarray | None = None):
        """a^T S b per slice, S the ``dirichlet_stiffness``, over the
        trailing spatial axes, with b = a by default: shape (*lead, *space)
        -> lead.  Per axis, the products of the ``axis_step`` of a and b
        against the ``dirichlet_weights``, one matrix-vector product."""
        form = 0.0
        for ax, w in enumerate(self.dirichlet_weights):
            step = self.axis_step(a, ax)
            step *= step if b is None else self.axis_step(b, ax)
            form = form + step @ w
        return form

    def x_field(self) -> np.ndarray:
        """x-coordinate at every spatial node, in the spatial shape."""
        if self.dim == 1:
            return self.x
        return np.broadcast_to(self.x[:, None], self.space_shape).copy()

    def metadata(self) -> dict:
        md = {
            "dim": self.dim, "nx": self.nx, "Lx": self.Lx,
            "nt": self.nt, "T_r": self.T_r,
            "dx": self.dx, "dt": self.dt,
            "tail_mass": self.tail_mass, "tail_ok": self.tail_ok,
        }
        if self.dim == 2:
            md.update(ny=self.ny, Ly=self.Ly, dy=self.dy)
        return md


def free_rows(grid: SpaceTimeGrid, free: np.ndarray) -> tuple:
    """(t0, sets) of ``free``, (k, nt, *space) or one slice (k, *space): t0
    is 1 when no species moves at the initial slice and 0 otherwise, and
    row i of ``sets`` (k, n_space) the spatial nodes species i moves at
    some slice t >= t0.  The outer product of a row's ``product_sides`` is
    its spatial hull, the one place that hull is defined."""
    F = free.reshape(len(free), -1, grid.space_weights.size)
    t0 = int(not F[:, 0].any())
    return t0, F[:, t0:].any(axis=1)


class FreeBlockInverse:
    """The inverse of P = Q + 2 diag(node mass sigma_i) on the product hull
    of the nodes that ``free`` marks, masked to them on both sides, for Q
    the ``quadratic_operator(eps)`` and sigma_i >= 0 a shift profile of
    each species i that is constant in time: the sum sigma_x (+) sigma_y of
    its per-axis profiles ``shifts``, one (k, n_a) array per axis
    (``optimizer.penalty_shift``).

    ``free`` is a boolean mask in the field's shape.  From ``free_rows``
    come t0 and species i's spatial set f_i, the nodes it moves at some
    slice t >= t0, and its hull H_i = (t >= t0) x the outer product of
    f_i's sides (``product_sides``).  On H_i

        P_i = 2 [K_H (x) M_H + C_H (x) (eps S_H + M_H diag(sigma_i))].

    A (k, *space) mask (``free.ndim == grid.dim + 1``) is the one-slice
    case: K = 0, C = 1, P_i = 2 (eps S_H + M_H diag(sigma_i)), M_H the
    weights, and Q the ``slice_operator(eps)``.

    ``solve`` gives Pi P^-1 Pi r, Pi the mask ``free`` (shared, not
    copied): a principal block of the hull's inverse, so symmetric positive
    definite on the free set, which is all a scaled projected gradient
    needs (Bonettini, Zanella & Zanni, Inverse Problems 25, 2009).  When
    ``free`` is its own hull the mask changes no bit and the inverse is
    exact.

    In the spatial modes V of ``free_modes``, whose eigenvalues lam hold
    eps and the shift, this is one tridiagonal matrix in time per mode,
    2 [K_H + lam_m C_H]: the fast diagonalization method (Lynch, Rice &
    Thomas, Numer. Math. 6, 1964).  The modes differ per species, so the
    systems of all species stack, species after species, into one block
    tridiagonal system in mode-major order, factored once (LAPACK
    ``dpttrf``; each is symmetric positive definite), the modes separated
    by zero off-diagonals.  The modes come as one factor per axis, applied
    to each time slice one axis at a time.  At least one node must move.
    """

    def __init__(self, grid: SpaceTimeGrid, eps: float, shifts: list,
                 free: np.ndarray):
        if free.ndim == grid.dim + 1:
            k_diag, k_off, c = np.zeros(1), np.zeros(0), np.ones(1)
            self._Q = grid.slice_operator(eps)
        else:
            (k_diag, k_off), c = grid.time_stiffness, grid.node_time_weights
            self._Q = grid.quadratic_operator(eps)
        t0, sets = free_rows(grid, free)
        self.t0, self._c, self._mask = t0, c, free
        # the shift times the spatial weight at each node, (k, n_space)
        self._shift_mass = _outer_sum(shifts) * grid.space_weights.ravel()
        factors = grid.free_modes(sets, eps, shifts)
        self._Vt = [np.swapaxes(V, -1, -2) for V, _ in factors]
        self._shape = tuple(Vt.shape[-1] for Vt in self._Vt)
        lam = _outer_sum([lam for _, lam in factors]).ravel()
        # 2 [K_t + lam C_t] restricted to t >= t0, built and factored in
        # place
        diag = np.multiply.outer(lam, c[t0:])
        diag += k_diag[t0:]
        diag *= 2.0
        off = np.zeros(diag.shape)
        np.multiply(k_off[t0:], 2.0, out=off[:, :-1])
        self._d, self._e, info = dpttrf(diag.reshape(-1),
                                        off.reshape(-1)[:-1],
                                        overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrf failed with info {info}")
        # the shape of the modal coefficients, mode-major
        self._modal = (len(sets), math.prod(Vt.shape[-2] for Vt in self._Vt),
                       len(c) - t0)

    def solve(self, r: np.ndarray, out: np.ndarray | None = None):
        """P^-1 r on the free set and 0 elsewhere, for r in the shape of
        the mask; ``out``, when given, must be C-contiguous.  The mask is
        applied to r in ``out`` and to the result there, allocating none."""
        k, nt, t0 = len(r), len(self._c), self.t0
        if out is None:
            out = np.empty(r.shape)
        r = np.multiply(r, self._mask, out=out)
        # to the modes, one factor at a time from the last: each product
        # contracts the trailing spatial axis and puts its modes first, so
        # the first factor's leaves the coefficients mode-major, time last,
        # in ``b``, the right-hand side read flat.  It lives for one call
        # only, so the loop does not hold it through the functional's calls
        b = np.empty(self._modal)
        Z = np.reshape(r, (k, nt, -1))[:, t0:]
        for a in reversed(range(len(self._Vt))):
            Vt = self._Vt[a]
            Z = np.matmul(
                Vt, Z.reshape(k, -1, Vt.shape[-1]).transpose(0, 2, 1),
                out=None if a else b.reshape(k, Vt.shape[-2], -1))
        X, _ = dpttrs(self._d, self._e, b.reshape(-1, 1), overwrite_b=True)
        # and back, the first factor first, the last one into ``out``
        Z = X.T
        *head, last = self._Vt
        for Vt in head:
            Z = np.matmul(Z.reshape(k, Vt.shape[-2], -1).transpose(0, 2, 1),
                          Vt)
        O = out.reshape((k, nt) + self._shape)
        Z = Z.reshape(k, last.shape[-2], -1).transpose(0, 2, 1)
        # the set axis of ``last`` goes with the species axis of O
        np.matmul(Z.reshape(O[:, t0:].shape[:-1] + (-1,)),
                  last[(slice(None),) + (None,) * len(head)], out=O[:, t0:])
        O[:, :t0] = 0.0
        np.multiply(out, self._mask, out=out)
        return out

    def quadratic(self, d: np.ndarray) -> float:
        """d . P d for a field d that is 0 off the free set, P that of the
        hull: under a mask, a BB step's estimate of s.Ps, asked for only
        after a trial the box clipped (``optimizer.projected_bb``)."""
        q = sum(float(np.dot(di, self._Q @ di))
                for di in d.reshape(len(d), -1))
        dd = d.reshape(len(d), len(self._c), -1)
        return q + 2.0 * float(np.einsum("kts,t,ks,kts->", dd, self._c,
                                         self._shift_mass, dd))


@dataclass
class StateField:
    """k-component nodal values on a space-time grid, shape (k, nt, *space)."""

    values: np.ndarray
    grid: SpaceTimeGrid
    spec: SystemSpec


def discrete_time_derivative(values: np.ndarray, dt) -> np.ndarray:
    """Forward differences per time cell of values (k, nt, *space) over
    the step dt, a scalar or one per cell: shape (k, nt-1, *space)."""
    du = values[:, 1:] - values[:, :-1]
    du /= np.reshape(dt, (-1,) + (1,) * (values.ndim - 2))
    return du


def resample_in_time(times: np.ndarray, values: np.ndarray,
                     query: np.ndarray) -> np.ndarray:
    """Piecewise-linear resampling of ``values`` (k, len(times), *space),
    sampled at ascending ``times``, at the times ``query`` (1-D).

    The arithmetic is that of ``scipy.interpolate.interp1d(kind="linear")``
    -- the cell of each query by ``searchsorted`` clipped to [1, n-1], then
    ``slope * (q - t_lo) + y_lo`` -- so results are bit-identical to it,
    and it returns the nodal values up to round-off.  A query outside
    [times[0], times[-1]] raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    query = np.asarray(query, dtype=float)
    outside = (query < times[0]) | (query > times[-1])
    if np.any(outside):
        raise ValueError(
            f"a query time ({query[np.argmax(outside)]}) lies outside the "
            f"sampled range [{times[0]}, {times[-1]}]"
        )
    hi = np.clip(np.searchsorted(times, query), 1, len(times) - 1)
    lo = hi - 1
    y_lo = values[:, lo]
    y_hi = values[:, hi]
    span = (query - times[lo]).reshape((-1,) + (1,) * (values.ndim - 2))
    width = (times[hi] - times[lo]).reshape(span.shape)
    return (y_hi - y_lo) / width * span + y_lo


def _weighted_modes(K, m: np.ndarray, free: np.ndarray) -> tuple:
    """(V, lam) with K_f V_f = M_f V_f diag(lam) and V_f^T M_f V_f = I, for
    the dense semidefinite K and the weights m, M = diag(m), restricted to
    the boolean set ``free`` of their nodes.  V is V_f padded with zero
    rows outside ``free``, shape (len(free), |free|).  Dense ``eigh`` of
    M_f^-1/2 K_f M_f^-1/2."""
    h = 1.0 / np.sqrt(m[free])
    lam, U = np.linalg.eigh(h[:, None] * K[np.ix_(free, free)] * h)
    V = np.zeros((len(free), len(lam)))
    V[free] = h[:, None] * U
    # K_f is semidefinite: a rounded eigenvalue below 0 means 0
    return V, np.maximum(lam, 0.0)


def _outer_sum(parts: list) -> np.ndarray:
    """The Kronecker sums p_x (+) p_y of the rows of one (s, n_a) array
    per axis, C-ordered: shape (s, prod n_a)."""
    return reduce(lambda p, q: (p[:, :, None] + q[:, None]).reshape(
        len(p), -1), parts)


def cell_average(values: np.ndarray) -> np.ndarray:
    """The mean of the two nodes of each cell along the first axis, from
    node values (per time slice, or node coordinates) to cell values."""
    return 0.5 * (values[:-1] + values[1:])


def trapezoid_weights(widths: np.ndarray) -> np.ndarray:
    """Trapezoid node weights of cells of the given widths: each cell
    gives half its width to each of its two nodes."""
    c = np.zeros(len(widths) + 1)
    c[:-1] += 0.5 * widths
    c[1:] += 0.5 * widths
    return c


def impose_pins(values: np.ndarray, grid: SpaceTimeGrid, data: BoundaryData) -> None:
    """Overwrite pinned nodes (initial slice / lateral trace) in place."""
    np.copyto(values, data.v0[:, None], where=grid.pinned(data))


def free_mask(grid: SpaceTimeGrid, data: BoundaryData) -> np.ndarray:
    """Boolean (nt, *space) mask of nodes the optimizer may move."""
    mask = np.ones((grid.nt,) + grid.space_shape, dtype=bool)
    if data.pins_initial:
        mask[0] = False
    if data.pins_dirichlet:
        mask[:, grid.boundary_mask] = False
    return mask
