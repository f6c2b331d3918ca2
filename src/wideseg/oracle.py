"""Reference solvers for cross-validation of the variational pipeline.

Two oracles: an IMEX time-stepper for the competing-species parabolic
system in original time, and a projected-gradient minimizer of the
stationary spatial energy.  Only the IMEX march is independent of the
space-time functional: it assembles its own P1 stiffness and shares
nothing with it beyond the mesh.  The stationary minimizer reuses the
functional's slice terms, hence ``dirichlet_operator`` (with its factor
1/2 in 2-D), and the ``projected_bb`` descent core.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .continuation import original_time_l2, segregated_ladder, to_original_time
from .functional import (
    _slice_terms, penalty_density, potential_gradient, slice_potential_change,
)
from .grid import SpaceTimeGrid, resample_in_time
from .model import BoundaryData, SystemSpec
from .optimizer import (
    OptimizerConfig, curvature_bound, minimize, projected_bb,
)

#: the oracle discrepancy counts as decreasing along the eps ladder when
#: each rung's is at most this factor times its predecessor's
DISCREPANCY_SLACK = 1.1


@dataclass
class ParabolicRun:
    taus: np.ndarray            # (n_steps + 1,) original-time nodes
    values: np.ndarray          # (k, n_steps + 1, *space)
    beta: float


@dataclass
class EllipticResult:
    w: np.ndarray               # (k, *space)
    energy: float
    iters: int
    converged: bool
    pg_norm: float
    stop_reason: str            # "converged", "no_descent" or "max_iters"


def _reaction_slope_bound(spec: SystemSpec) -> float:
    """max over species and s in [0, 1] of |f_i'(s)|."""
    out = 0.0
    for r in spec.reactions:
        if r.kind == "cubic":
            out = max(out, r.lam)   # |lam (2s - 3 s^2)| peaks at s = 1
    return out


def _stiffness(grid: SpaceTimeGrid):
    """P1 stiffness matrix on the full node set (boundary rows included):
    the sum over axes of the line stiffness on that axis times the lumped
    mass on the others."""
    def line(n, h):
        main = np.full(n, 2.0 / h)
        main[0] = main[-1] = 1.0 / h
        off = np.full(n - 1, -1.0 / h)
        return sp.diags([off, main, off], [-1, 0, 1])

    def lumped(n, h):
        m = np.full(n, h)
        m[0] = m[-1] = 0.5 * h
        return sp.diags(m)

    terms = [
        reduce(sp.kron, [(line if b == a else lumped)(n, h)
                         for b, (n, h) in enumerate(grid.axes)])
        for a in range(grid.dim)
    ]
    return reduce(operator.add, terms).tocsr()


def step_parabolic(spec: SystemSpec, data: BoundaryData, grid: SpaceTimeGrid,
                   beta: float, dtau: float, n_steps: int) -> ParabolicRun:
    """March the competing-species system with an IMEX scheme.

    Crank-Nicolson for diffusion, explicit reaction, and the penalty's
    diagonal factor implicit so the admissible step is beta-independent;
    values are clipped to [0, 1] after each step.  Lumped-mass P1 in space.
    The matrix M/dtau + K/2 is assembled once, with identity rows at the
    pinned Dirichlet nodes; each step and species rewrites only its diagonal
    with the penalty term and makes one direct sparse solve, in any
    dimension.
    """
    slope = _reaction_slope_bound(spec)
    if dtau * slope > 0.5 + 1e-12:
        raise ValueError(
            f"explicit reaction step unstable: dtau * max|f'| = "
            f"{dtau * slope:.3g} > 1/2"
        )
    K = _stiffness(grid)
    m = grid.space_weights.ravel()
    n = m.size
    pinned = grid.boundary_mask.ravel() & data.pins_dirichlet
    free = 1.0 - pinned
    Mdiag = sp.diags(m)
    rhs_op = Mdiag / dtau - 0.5 * K
    # pinned rows become identity rows; free rows keep their entries as is
    lhs = (sp.diags(free) @ (Mdiag / dtau + 0.5 * K)
           + sp.diags(1.0 - free)).tocsc()
    lhs.eliminate_zeros()
    lhs.sort_indices()
    cols = np.repeat(np.arange(n), np.diff(lhs.indptr))
    diag = np.flatnonzero(lhs.indices == cols)
    d0 = lhs.data[diag]
    m_free = m * free

    v = data.v0.reshape(spec.k, n).copy()
    trace = v[:, pinned]
    out = np.empty((spec.k, n_steps + 1, n))
    out[:, 0] = v
    for step in range(n_steps):
        cross = np.einsum("ij,jn->in", spec.A, v * v)   # (k, n)
        rhs = (rhs_op @ v.T).T + m * spec.f_all(v)
        rhs[:, pinned] = trace
        for i in range(spec.k):
            lhs.data[diag] = d0 + beta * (m_free * cross[i])
            out[i, step + 1] = spsolve(lhs, rhs[i])
        v = out[:, step + 1] = np.clip(out[:, step + 1], 0.0, 1.0)

    return ParabolicRun(
        taus=dtau * np.arange(n_steps + 1),
        values=out.reshape((spec.k, n_steps + 1) + grid.space_shape),
        beta=beta,
    )


def compare_with_minimizer(entries, run: ParabolicRun, taus: np.ndarray,
                           grid: SpaceTimeGrid) -> dict:
    """L2 discrepancy between minimizers and the parabolic trajectory,
    resampled linearly in time at ``taus``.

    entries: list of (eps, StateField) in descending eps order.  Reports
    one row per eps and whether the discrepancy decreases along the ladder
    (each entry at most ``DISCREPANCY_SLACK`` times its predecessor).
    """
    ref = resample_in_time(run.taus, run.values, taus)
    rows = []
    for eps, fld in entries:
        d = original_time_l2(to_original_time(fld, eps, taus), ref, taus, grid)
        rows.append({"eps": eps, "discrepancy": d})
    disc = [r["discrepancy"] for r in rows]
    dec = all(b <= DISCREPANCY_SLACK * a for a, b in zip(disc, disc[1:]))
    return {"rows": rows, "decreasing": bool(dec)}


def elliptic_energy(w: np.ndarray, grid: SpaceTimeGrid, spec: SystemSpec,
                    beta: float) -> float:
    """Spatial energy int { |grad w|^2 - 2 F(w) + (beta/2) <w^2, A w^2> }."""
    D, F, P = _slice_terms(w[:, None], grid, spec, beta)
    return float(D[0] - 2.0 * F[0] + 0.5 * beta * P[0])


def minimize_elliptic(spec: SystemSpec, data: BoundaryData,
                      grid: SpaceTimeGrid, beta: float,
                      config: OptimizerConfig | None = None,
                      support: np.ndarray | None = None) -> EllipticResult:
    """Projected-gradient minimizer of the stationary spatial energy.

    Boundary nodes stay pinned to the trace of v0; the initial iterate is
    v0 itself.  Shares the descent core with the space-time minimizer.
    With ``support`` (a (k, *space) boolean mask), nodes outside the mask
    are held at zero.
    """
    cfg = config or OptimizerConfig()
    bmask = grid.boundary_mask
    mass = np.broadcast_to(
        grid.space_weights, (spec.k,) + grid.space_shape
    ).copy()
    mass[:, bmask] = 0.0
    w0 = np.clip(data.v0, 0.0, 1.0)
    if support is not None:
        mass[~support] = 0.0
        w0[~support] = 0.0
    w0[:, bmask] = data.v0[:, bmask]

    def value_fn(w):
        return elliptic_energy(w, grid, spec, beta)

    def change_fn(w, d):
        return float(
            slice_potential_change(w[:, None], d[:, None], grid, spec, beta)[0]
        )

    def grad_fn(w):
        return potential_gradient(w[:, None], grid, spec, beta)[:, 0]

    L = curvature_bound(grid, spec, 1.0, beta)
    L += 2.0 * _reaction_slope_bound(spec)

    w, info = projected_bb(w0, value_fn, grad_fn, mass, cfg, L, change_fn)
    return EllipticResult(
        w=w, energy=info["J"], iters=info["iters"],
        converged=info["converged"], pg_norm=info["pg_norm"],
        stop_reason=info["stop_reason"],
    )


def spatial_overlap(w: np.ndarray, grid: SpaceTimeGrid,
                    spec: SystemSpec) -> float:
    """int <w^2, A w^2> over the domain."""
    sw = grid.space_weights
    return float(np.tensordot(penalty_density(w, spec.A), sw, axes=sw.ndim))


def elliptic_beta_ladder(spec: SystemSpec, data: BoundaryData,
                         grid: SpaceTimeGrid, betas,
                         config: OptimizerConfig | None = None) -> dict:
    """Stationary minimizers up the penalty ladder, warm-started, and their
    segregated limit (``continuation.segregated_ladder``).

    Reports the overlap per rung, its top/bottom decay ratio, and the
    hard-projected refined field.
    """
    cfg = config or OptimizerConfig()

    def solve(beta, values, support):
        res = minimize_elliptic(spec, BoundaryData.make(values, data.bc_mode),
                                grid, beta, cfg, support=support)
        return res, res.w

    results, refined, w_seg = segregated_ladder(solve, betas, data.v0)
    overlaps = [spatial_overlap(r.w, grid, spec) for r in results]
    ratio = overlaps[-1] / overlaps[0] if overlaps[0] > 0 else 0.0
    return {
        "betas": list(betas),
        "results": results,
        "overlaps": overlaps,
        "decay_ratio": float(ratio),
        "w_segregated": w_seg,
        "all_converged": all(r.converged for r in results)
        and refined.converged,
    }


def check_elliptic_equivalence(spec: SystemSpec, data: BoundaryData,
                               grid: SpaceTimeGrid, eps: float, beta: float,
                               config: OptimizerConfig | None = None) -> dict:
    """Space-time minimization with a free initial slice vs the stationary
    minimizer: temporal variation of the former and the L2 gap between its
    time average and the latter."""
    if not (data.pins_dirichlet and not data.pins_initial):
        raise ValueError("elliptic equivalence needs bc_mode='dirichlet_only'")
    cfg = config or OptimizerConfig()
    res = minimize(spec, data, grid, eps, beta, cfg, init="competitor")
    u = res.field.values
    c = grid.node_time_weights
    ubar = np.tensordot(u, c, axes=([1], [0])) / c.sum()   # (k, *space)

    sw = grid.space_weights
    d2 = np.sum((u - ubar[:, None]) ** 2, axis=0)           # (nt, *space)
    var = float(np.sqrt(np.max(np.tensordot(d2, sw, axes=sw.ndim))))

    ell = minimize_elliptic(spec, data, grid, beta, cfg)
    gap2 = np.sum((ubar - ell.w) ** 2, axis=0)
    gap = float(np.sqrt(np.tensordot(gap2, sw, axes=sw.ndim)))
    return {
        "temporal_variation": var,
        "elliptic_gap": gap,
        "all_converged": bool(res.converged and ell.converged),
    }
