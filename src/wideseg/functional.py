"""Discrete exponential-weight functional, its gradient, and slice energies.

The functional is

    J(u) = sum_j w_j * (I_j + R_j),

with w_j the exact e^{-t} mass of time cell j, I_j the kinetic slice
integral of the forward time difference, and R_j the trapezoidal average of
the potential slice energy

    eps * ( |grad u|^2 - 2 F(u) + (beta/2) <u^2, A u^2> )

at the two bounding time nodes.  Spatial quadrature is trapezoidal at nodes
for the pointwise terms; the gradient term is sum_e W_e (G u)_e^2 with the
grid's ``dirichlet_operator`` (G, W), so its gradient is 2 G^T (W G u).

Summed over cells, the kinetic and Dirichlet terms are the fixed quadratic
form sum_i 1/2 u_i^T Q u_i of the grid's ``quadratic_operator(eps)``, and
the reaction and penalty terms are pointwise with the node weights.  The
gradient and the step change read Q; the values keep the per-cell
stencils, ``eval_J`` because ``EnergyTrace`` needs I per cell and R per
slice, ``eval_J_value`` for its round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpaceTimeGrid, StateField
from .model import BoundaryData, SystemSpec
from . import grid as gridmod

#: time cells closer than this to the truncation horizon are excluded from
#: the energy-identity residual (the truncated tail corrupts E there)
HORIZON_GUARD = 7.0


@dataclass
class EnergyTrace:
    """Per-time-cell kinetic (I) and potential (R) integrals, the forward
    exponential energy average E per node, and the functional value J."""

    t: np.ndarray          # (nt,) rescaled time nodes
    I: np.ndarray          # (nt-1,) kinetic integral per time cell
    R: np.ndarray          # (nt-1,) weighted potential integral per cell
    E: np.ndarray          # (nt,)  E_j = e^{t_j} sum_{m>=j} w_m (I_m + R_m)
    J: float


def penalty_density(values: np.ndarray, A: np.ndarray) -> np.ndarray:
    """<v^2, A v^2> pointwise; values has shape (k, ...)."""
    v2 = values * values
    return np.einsum("i...,i...->...", v2, np.tensordot(A, v2, axes=1))


def _slice_terms(values, grid: SpaceTimeGrid, spec: SystemSpec, beta: float):
    """Dirichlet, reaction and penalty integrals per time slice.

    values: (k, nt, *space).  Returns (D, F, P), each of shape (nt,).
    """
    D = grid.dirichlet_form(values).sum(axis=0)
    sw = grid.space_weights
    if spec.reactive:
        F = np.tensordot(spec.F_sum(values), sw, axes=sw.ndim)
    else:
        F = np.zeros(values.shape[1])
    if beta != 0.0:
        P = np.tensordot(penalty_density(values, spec.A), sw, axes=sw.ndim)
    else:
        P = np.zeros(values.shape[1])
    return D, F, P


def slice_potential(field: StateField, eps: float, beta: float) -> np.ndarray:
    """Potential slice energy at every time node, shape (nt,)."""
    D, F, P = _slice_terms(field.values, field.grid, field.spec, beta)
    return eps * (D - 2.0 * F + 0.5 * beta * P)


def _kinetic_cells(field: StateField) -> np.ndarray:
    du = gridmod.discrete_time_derivative(field)
    sw = field.grid.space_weights
    return np.tensordot(np.sum(du * du, axis=0), sw, axes=sw.ndim)


def eval_J(field: StateField, eps: float, beta: float) -> EnergyTrace:
    """Evaluate the discrete functional and its slice decomposition."""
    g = field.grid
    Rslice = slice_potential(field, eps, beta)
    R = 0.5 * (Rslice[:-1] + Rslice[1:])
    I = _kinetic_cells(field)
    w = g.cell_weights
    cell = w * (I + R)
    J = float(cell.sum())
    E = np.zeros(g.nt)
    E[:-1] = np.exp(g.t[:-1]) * np.cumsum(cell[::-1])[::-1]
    return EnergyTrace(t=g.t, I=I, R=R, E=E, J=J)


def _apply_quadratic(u: np.ndarray, grid: SpaceTimeGrid,
                     eps: float) -> np.ndarray:
    """Q u_i for every species i, in the shape of u (k, nt, *space)."""
    Q = grid.quadratic_operator(eps)
    out = np.empty_like(u)
    for ui, oi in zip(u.reshape(len(u), -1), out.reshape(len(u), -1)):
        oi[:] = Q @ ui
    return out


def eval_J_value(field: StateField, eps: float, beta: float) -> float:
    """Functional value only (cheaper path for line searches).

    Sums the per-cell squares of the stencils rather than 1/2 u.Qu: on a
    smooth field the terms of Q u cancel, and a difference of two values of
    1/2 u.Qu is then off by up to about 1.4e-14 |J| on the desk ladders,
    more than ``optimizer.ROUNDOFF_RTOL`` allows.  It would be no faster.
    """
    g = field.grid
    Rslice = slice_potential(field, eps, beta)
    R = 0.5 * (Rslice[:-1] + Rslice[1:])
    I = _kinetic_cells(field)
    return float(np.dot(g.cell_weights, I + R))


def _penalty_change(u: np.ndarray, d: np.ndarray, p: np.ndarray,
                    A: np.ndarray) -> np.ndarray:
    """<b, A b> - <a, A a> pointwise for a = u^2, b = (u + d)^2 and
    p = 2u + d, as <da, A(2a + da)> with da = d p (A symmetric)."""
    da = d * p
    return np.einsum("i...,i...->...", da,
                     np.tensordot(A, 2.0 * u * u + da, axes=1))


def slice_potential_change(u: np.ndarray, d: np.ndarray, grid: SpaceTimeGrid,
                           spec: SystemSpec, beta: float) -> np.ndarray:
    """Per-slice change of D - 2F + (beta/2)P when u moves to u + d.

    u and d have shape (k, n_slices, *space).  Every term is a local
    difference that carries d as a factor -- grad(2u + d) . grad d for
    |grad u|^2, F(u + d) - F(u) factored through d, and <da, A(2a + da)>
    for <a, A a> with a = u^2, da = d (2u + d) and A symmetric -- so the
    result is exactly 0 where d is and picks up no round-off from the
    unchanged part of u.
    """
    p = 2.0 * u + d
    D = grid.dirichlet_form(p, d).sum(axis=0)
    sw = grid.space_weights
    if spec.reactive:
        F = np.tensordot(spec.F_sum_change(u, d), sw, axes=sw.ndim)
    else:
        F = np.zeros(u.shape[1])
    if beta != 0.0:
        P = np.tensordot(_penalty_change(u, d, p, spec.A), sw, axes=sw.ndim)
    else:
        P = np.zeros(u.shape[1])
    return D - 2.0 * F + 0.5 * beta * P


def eval_J_change(field: StateField, d: np.ndarray, eps: float,
                  beta: float) -> float:
    """J(u + d) - J(u) for u = field.values, free of cancellation.

    Near a minimizer the true change of a step can lie far below the
    round-off of J itself (a step confined to late time slices, whose
    weight is about e^{-T_r}, changes J by less than its ulp), so
    ``eval_J_value(u + d) - eval_J_value(u)`` is noise there.  Here the
    quadratic part is 1/2 d . Q(2u + d), the reaction part is
    ``F_sum_change`` and the penalty part ``<da, A(2a + da)>``: every term
    carries d as a factor, so it is exactly 0 where d is.
    """
    g = field.grid
    spec = field.spec
    u = field.values
    p = 2.0 * u + d
    quad = 0.5 * np.sum(d * _apply_quadratic(p, g, eps))
    dens = -2.0 * spec.F_sum_change(u, d) if spec.reactive else None
    if beta != 0.0:
        pen = 0.5 * beta * _penalty_change(u, d, p, spec.A)
        dens = pen if dens is None else dens + pen
    if dens is None:
        return float(quad)
    return float(quad + eps * np.sum(g.node_weights * dens))


def potential_gradient(u: np.ndarray, g: SpaceTimeGrid, spec: SystemSpec,
                       beta: float) -> np.ndarray:
    """d/du of the per-slice potential D - 2F + (beta/2)P, slicewise.

    u has shape (k, n_slices, *space); the time axis is inert here, so the
    same routine serves space-time slices and purely spatial fields.
    """
    sw = g.space_weights
    _, W = g.dirichlet_operator
    gu = g.gradient(u)
    gu *= 2.0 * W
    gpot = g.gradient_adjoint(gu)
    if spec.reactive:
        gpot += sw * (-2.0 * spec.f_all(u))
    if beta != 0.0:
        Au2 = np.einsum("ij,j...->i...", spec.A, u * u)
        gpot += sw * (2.0 * beta * u * Au2)
    return gpot


def grad_J(field: StateField, eps: float, beta: float,
           data: BoundaryData) -> np.ndarray:
    """Exact gradient of the discrete functional over free nodes.

    Pinned nodes (initial slice and/or lateral trace, per bc_mode) report 0.
    """
    g = field.grid
    spec = field.spec
    u = field.values
    pot = -2.0 * spec.f_all(u) if spec.reactive else None
    if beta != 0.0:
        pen = 2.0 * beta * u * np.tensordot(spec.A, u * u, axes=1)
        pot = pen if pot is None else pot + pen
    out = _apply_quadratic(u, g, eps)
    if pot is not None:
        out += eps * g.node_weights * pot
    np.copyto(out, 0.0, where=g.pinned(data))
    return out


def energy_identity_residual(trace: EnergyTrace):
    """Residual of the forward-average energy law E' + 2I = 0.

    Returns (r, rel, mask): per-cell residual r_j = (E_{j+1}-E_j)/dt + 2 I_j,
    the max interior residual relative to max(1, max_j(I_j + R_j)), and the
    boolean mask of interior cells used.  The first cell and cells within
    ``HORIZON_GUARD`` of the truncation horizon are excluded (the truncated
    tail corrupts E there).
    """
    t = trace.t
    dt = t[1] - t[0]
    r = (trace.E[1:] - trace.E[:-1]) / dt + 2.0 * trace.I
    mask = np.zeros_like(r, dtype=bool)
    mask[1:] = True
    mask &= t[1:] <= t[-1] - HORIZON_GUARD
    denom = max(1.0, float(np.max(trace.I + trace.R)))
    rel = float(np.max(np.abs(r[mask])) / denom) if mask.any() else float("nan")
    return r, rel, mask


def competitor_field(data: BoundaryData, grid: SpaceTimeGrid,
                     spec: SystemSpec) -> StateField:
    """Time-constant extension of v0 (segregated, penalty-free)."""
    vals = np.broadcast_to(
        data.v0[:, None], (spec.k, grid.nt) + grid.space_shape
    ).copy()
    return StateField(vals, grid, spec)


def competitor_value(data: BoundaryData, grid: SpaceTimeGrid,
                     spec: SystemSpec, eps: float) -> float:
    """J of the time-constant extension of v0."""
    return eval_J_value(competitor_field(data, grid, spec), eps, beta=0.0)
