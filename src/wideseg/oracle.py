"""Reference solvers for cross-validation of the variational pipeline.

Two oracles: an IMEX time-stepper for the competing-species parabolic
system in original time, and a projected-gradient minimizer of the
stationary spatial energy.  Only the IMEX march is independent of the
space-time functional: it assembles its own P1 stiffness and shares
nothing with it beyond the mesh.  The stationary minimizer reuses the
functional's slice terms, hence the grid's ``dirichlet_scale`` (1/2 in
2-D), and ``projected_bb`` in the one-slice ``grid.FreeBlockInverse``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbsv

from .continuation import original_time_l2, segregated_ladder, to_original_time
from .diagnostics import decreasing
from .functional import (
    _slice_terms, form_change, penalty_density, potential_gradient,
)
from .grid import SpaceTimeGrid, resample_in_time
from .model import BoundaryData, SystemSpec
from .optimizer import (
    OptimizerConfig, curvature_bound, exact_metric, minimize, projected_bb,
)

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
    pinned Dirichlet nodes, and kept in LAPACK band storage: C-ordered nodes
    couple only within one stride of the last axis.  Each step and species
    rewrites only its main diagonal with the penalty term and makes one
    banded LU solve (LAPACK ``gbsv``), the same in 1-D and 2-D.
    """
    if dtau * spec.slope_bound > 0.5 + 1e-12:
        raise ValueError(
            f"explicit reaction step unstable: dtau * max|f'| = "
            f"{dtau * spec.slope_bound:.3g} > 1/2"
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
           + sp.diags(1.0 - free)).todia()
    # band storage with kl spare rows for the LU fill: row kl + ku - o holds
    # the diagonal at offset o, column-aligned as in DIA
    kl, ku = -lhs.offsets.min(), lhs.offsets.max()
    band = np.zeros((2 * kl + ku + 1, n), order="F")
    band[kl + ku - lhs.offsets] = lhs.data
    d0 = band[kl + ku].copy()
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
            band[kl + ku] = d0 + beta * (m_free * cross[i])
            _, _, x, info = dgbsv(kl, ku, band, rhs[i, :, None])
            if info != 0:
                raise np.linalg.LinAlgError(f"dgbsv failed with info {info}")
            out[i, step + 1] = x[:, 0]
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
    (``diagnostics.decreasing``).
    """
    ref = resample_in_time(run.taus, run.values, taus)
    rows = []
    for eps, fld in entries:
        d = original_time_l2(to_original_time(fld, eps, taus), ref, taus, grid)
        rows.append({"eps": eps, "discrepancy": d})
    dec = decreasing([r["discrepancy"] for r in rows])
    return {"rows": rows, "decreasing": dec}


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

    Boundary nodes stay pinned to the trace of v0 whatever ``data.bc_mode``
    says, and nodes outside ``support`` (a (k, *space) boolean mask), when
    given, are held at zero; the initial iterate is v0 itself.  The metric
    is ``optimizer.exact_metric`` of the (k, *space) mask of the nodes that
    move, the one-slice ``grid.FreeBlockInverse``: a zero-reaction refine
    takes one step.
    """
    cfg = config or OptimizerConfig()
    bmask = grid.boundary_mask
    free = ~np.broadcast_to(bmask, data.v0.shape)
    if support is not None:
        free &= support
    mass = free * grid.space_weights
    w0 = np.where(free, np.clip(data.v0, 0.0, 1.0), 0.0)
    w0[:, bmask] = data.v0[:, bmask]

    def value_fn(w):
        return elliptic_energy(w, grid, spec, beta)

    def change_fn(w, d):
        return form_change(w, d, grid.slice_operator(1.0),
                           grid.space_weights, spec, 1.0, beta)

    def grad_fn(w):
        return potential_gradient(w[:, None], grid, spec, beta)[:, 0]

    L = curvature_bound(grid, spec, 1.0, beta)
    L += 2.0 * spec.slope_bound
    precond = exact_metric(grid, spec, 1.0, beta, w0, free)
    w, info = projected_bb(w0, value_fn, grad_fn, mass, cfg, L, change_fn,
                           precond)
    return EllipticResult(
        w=w, energy=info["J"], iters=info["iters"],
        converged=info["converged"], pg_norm=info["pg_norm"],
        stop_reason=info["stop_reason"],
    )


def spatial_overlap(w: np.ndarray, grid: SpaceTimeGrid,
                    spec: SystemSpec) -> float:
    """int <w^2, A w^2> over the domain."""
    return float(grid.integrate(penalty_density(w, spec.A)))


def elliptic_beta_ladder(spec: SystemSpec, data: BoundaryData,
                         grid: SpaceTimeGrid, betas,
                         config: OptimizerConfig | None = None) -> dict:
    """Stationary minimizers up the penalty ladder, warm-started, and their
    segregated limit (``continuation.segregated_ladder``).

    Reports the result and overlap per rung, its top/bottom decay ratio,
    the refine result and the hard-projected refined field.
    """
    def solve(beta, values, support):
        res = minimize_elliptic(spec, BoundaryData.make(values, data.bc_mode),
                                grid, beta, config, support=support)
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
        "refine": refined,
        "all_converged": all(r.converged for r in results)
        and refined.converged,
    }


def check_elliptic_equivalence(spec: SystemSpec, data: BoundaryData,
                               grid: SpaceTimeGrid, eps: float, beta: float,
                               config: OptimizerConfig | None = None) -> dict:
    """Space-time minimization with a free initial slice vs the stationary
    minimizer: temporal variation of the former and the L2 gap between its
    time average and the latter, beside both solves' results."""
    if not (data.pins_dirichlet and not data.pins_initial):
        raise ValueError("elliptic equivalence needs bc_mode='dirichlet_only'")
    res = minimize(spec, data, grid, eps, beta, config, init="competitor")
    u = res.field.values
    c = grid.node_time_weights
    ubar = np.tensordot(u, c, axes=([1], [0])) / c.sum()   # (k, *space)

    d2 = np.sum((u - ubar[:, None]) ** 2, axis=0)           # (nt, *space)
    var = float(np.sqrt(np.max(grid.integrate(d2))))

    ell = minimize_elliptic(spec, data, grid, beta, config)
    gap2 = np.sum((ubar - ell.w) ** 2, axis=0)
    gap = float(np.sqrt(grid.integrate(gap2)))
    return {
        "temporal_variation": var,
        "elliptic_gap": gap,
        "result": res,
        "elliptic": ell,
        "all_converged": bool(res.converged and ell.converged),
    }
