"""Truncated exponential-weight space-time mesh and discrete operators.

Everything lives on the rescaled clock with weight e^{-t}: one grid serves
all values of the regularization parameter, and original-time content is
recovered afterwards by resampling.  Spatial nodes include the two boundary
columns, so Dirichlet data is imposed by pinning nodes rather than through
ghost values; nx still counts interior nodes and dx = Lx/(nx+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp

from .model import BoundaryData, SystemSpec


@dataclass
class SpaceTimeGrid:
    dim: int
    nx: int
    Lx: float
    nt: int
    T_r: float
    ny: int = 0
    Ly: float = 0.0
    tail_tol: float = 1e-8

    # derived quantities, filled by build_grid
    dx: float = field(init=False)
    dy: float = field(init=False, default=0.0)
    dt: float = field(init=False)
    x: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False, default=None)
    t: np.ndarray = field(init=False)
    cell_weights: np.ndarray = field(init=False)
    node_time_weights: np.ndarray = field(init=False)
    space_weights: np.ndarray = field(init=False)
    boundary_mask: np.ndarray = field(init=False)
    tail_mass: float = field(init=False)
    tail_ok: bool = field(init=False)
    # (eps, Q) of the latest quadratic_operator call; pinned masks by mode
    _quadratic: tuple = field(init=False, default=None, repr=False,
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

        self.dx = self.Lx / (self.nx + 1)
        self.dt = self.T_r / (self.nt - 1)
        self.x = np.linspace(0.0, self.Lx, self.nx + 2)
        self.t = np.linspace(0.0, self.T_r, self.nt)

        # exact per-cell integrals of e^{-t}; their sum is 1 - e^{-T_r}
        et = np.exp(-self.t)
        self.cell_weights = et[:-1] - et[1:]
        w = self.cell_weights
        c = np.empty(self.nt)
        c[0] = 0.5 * w[0]
        c[1:-1] = 0.5 * (w[:-1] + w[1:])
        c[-1] = 0.5 * w[-1]
        self.node_time_weights = c

        if self.dim == 2:
            if self.ny < 3:
                raise ValueError("ny must be >= 3 in 2-D")
            self.dy = self.Ly / (self.ny + 1)
            self.y = np.linspace(0.0, self.Ly, self.ny + 2)
        self.space_weights = reduce(np.multiply.outer, [
            _trapezoid_weights(n, h) for n, h in self.axes
        ])
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

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Node time weight x spatial weight, shape (nt, *space); read-only."""
        m = np.multiply.outer(self.node_time_weights, self.space_weights)
        m.flags.writeable = False
        return m

    @cached_property
    def dirichlet_operator(self) -> tuple:
        """(G, W) of the functional's Dirichlet form sum_e W_e (G u)_e^2."""
        G, W = cell_gradient(self)
        if self.dim == 2:
            # known defect, kept so that results stay comparable: the 2-D
            # form took its cross-axis weights from the boundary row of the
            # trapezoid weights, so it is half of int |grad u|^2 (ROADMAP 6).
            # This is the only site of the half: the value, the gradient,
            # the space-time operator Q, the uniformity windows and the
            # weak-inequality pairings all read W from here
            W = 0.5 * W
        return G, W

    def quadratic_operator(self, eps: float):
        """Sparse Q with sum_i 1/2 u_i^T Q u_i the functional's kinetic plus
        eps times its Dirichlet term, u_i one species on the C-ordered
        (time, *space) nodes:

            Q = 2 [K_t (x) M_x + eps C_t (x) G^T W G],

        K_t the time stiffness with weights cell_weights / dt^2, C_t the
        node time weights, M_x the spatial weights and (G, W) the
        ``dirichlet_operator``.  Q is symmetric with off-diagonals <= 0 and
        Q 1 = 0.  Kept for the latest eps only.
        """
        if self._quadratic is None or self._quadratic[0] != eps:
            G, W = self.dirichlet_operator
            D_t = sp.diags_array([-1.0, 1.0], offsets=[0, 1],
                                 shape=(self.nt - 1, self.nt))
            K_t = D_t.T @ sp.diags_array(self.cell_weights / self.dt**2) @ D_t
            S = G.T @ sp.diags_array(W) @ G
            Q = 2.0 * (
                sp.kron(K_t, sp.diags_array(self.space_weights.ravel()))
                + eps * sp.kron(sp.diags_array(self.node_time_weights), S))
            self._quadratic = (eps, Q.tocsr())
        return self._quadratic[1]

    def pinned(self, data: BoundaryData) -> np.ndarray:
        """Read-only (nt, *space) mask of the nodes ``data`` pins, the
        complement of ``free_mask``; cached per pinning mode."""
        key = (data.pins_initial, data.pins_dirichlet)
        if key not in self._pinned:
            mask = ~free_mask(self, data)
            mask.flags.writeable = False
            self._pinned[key] = mask
        return self._pinned[key]

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """G u on the trailing axes: (*lead, *space) -> (*lead, n_edges)."""
        G, _ = self.dirichlet_operator
        X = values.reshape(-1, G.shape[1]).T
        return (G @ X).T.reshape(values.shape[:values.ndim - self.dim] + (-1,))

    def dirichlet_form(self, a: np.ndarray, b: np.ndarray | None = None):
        """sum_e W_e (G a)_e (G b)_e over the trailing spatial axes, with
        b = a by default: shape (*lead, *space) -> lead."""
        _, W = self.dirichlet_operator
        ga = self.gradient(a)
        ga *= ga if b is None else self.gradient(b)
        return ga @ W

    @cached_property
    def _gradient_T(self):
        return self.dirichlet_operator[0].T.tocsr()

    def gradient_adjoint(self, flux: np.ndarray) -> np.ndarray:
        """G^T over the last axis: (*lead, n_edges) -> (*lead, *space)."""
        GT = self._gradient_T
        Y = flux.reshape(-1, GT.shape[1])
        return (GT @ Y.T).T.reshape(flux.shape[:-1] + self.space_shape)

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


def build_grid(dim, nx, Lx, nt, T_r, ny=None, Ly=None, tail_tol=1e-8) -> SpaceTimeGrid:
    return SpaceTimeGrid(
        dim=dim, nx=nx, Lx=Lx, nt=nt, T_r=T_r,
        ny=ny or 0, Ly=Ly or 0.0, tail_tol=tail_tol,
    )


@dataclass
class StateField:
    """k-component nodal values on a space-time grid, shape (k, nt, *space)."""

    values: np.ndarray
    grid: SpaceTimeGrid
    spec: SystemSpec


def discrete_time_derivative(field: StateField) -> np.ndarray:
    """Forward differences per time cell, shape (k, nt-1, *space)."""
    u = field.values
    return (u[:, 1:] - u[:, :-1]) / field.grid.dt


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


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def cell_gradient(grid: SpaceTimeGrid) -> tuple:
    """Sparse cell-gradient operator G on the C-ordered spatial nodes and
    the true quadrature weight W of each of its rows (edges).

    G stacks the per-axis forward differences: D_x in 1-D, kron(D_x, I)
    and kron(I, D_y) in 2-D.  An edge's weight is its length times the
    trapezoid weight across the other axis, so G^T diag(W) G is the lumped
    stiffness matrix kron(K_x, M_y) + kron(M_x, K_y).
    """
    blocks, weights = [], []
    for a, (n, h) in enumerate(grid.axes):
        ops = [sp.eye_array(m) for m, _ in grid.axes]
        ws = [_trapezoid_weights(m, hm) for m, hm in grid.axes]
        ops[a] = sp.diags_array([-1.0 / h, 1.0 / h], offsets=[0, 1],
                                shape=(n - 1, n))
        ws[a] = np.full(n - 1, h)
        blocks.append(reduce(sp.kron, ops))
        weights.append(reduce(np.multiply.outer, ws).ravel())
    return sp.vstack(blocks, format="csr"), np.concatenate(weights)


def impose_pins(values: np.ndarray, grid: SpaceTimeGrid, data: BoundaryData) -> None:
    """Overwrite pinned nodes (initial slice / lateral trace) in place."""
    if data.pins_initial:
        values[:, 0] = data.v0
    if data.pins_dirichlet:
        g0 = data.v0[:, grid.boundary_mask]  # (k, nb)
        values[:, :, grid.boundary_mask] = g0[:, None, :]


def free_mask(grid: SpaceTimeGrid, data: BoundaryData) -> np.ndarray:
    """Boolean (nt, *space) mask of nodes the optimizer may move."""
    mask = np.ones((grid.nt,) + grid.space_shape, dtype=bool)
    if data.pins_initial:
        mask[0] = False
    if data.pins_dirichlet:
        mask[:, grid.boundary_mask] = False
    return mask
