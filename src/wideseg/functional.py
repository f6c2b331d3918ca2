"""Discrete exponential-weight functional, its gradient, and slice energies.

The functional is

    J(u) = sum_j w_j * (I_j + R_j),

with w_j the exact e^{-t} mass of time cell j, I_j the kinetic slice
integral of the forward time difference, and R_j the trapezoidal average of
the potential slice energy

    eps * ( |grad u|^2 - 2 F(u) + (beta/2) <u^2, A u^2> )

at the two bounding time nodes.  Spatial quadrature is trapezoidal at nodes
for the pointwise terms, one matrix-vector product per integral (the
grid's ``integrate``); the gradient term is sum_a sum_e W_a,e (grad_a u)_e^2
over the edges e along each axis a, with the grid's per-axis edge weights
W_a (``edge_weights``), taken by its ``dirichlet_form`` from stride
differences on the flat field, so its gradient is 2 S u with S the grid's
``dirichlet_stiffness``, the Kronecker sum of its per-axis factors.

Summed over cells, the kinetic and Dirichlet terms are the fixed quadratic
form sum_i 1/2 u_i^T Q u_i of the grid's ``quadratic_operator(eps)``, held
in diagonal (DIA) storage built from its factors' diagonals, and the
reaction and penalty terms are pointwise with the node weights.  The
gradient and the step change read Q; the value, ``eval_J``, keeps the
per-cell stencils, for its round-off and because ``EnergyTrace`` needs I
per cell and R per slice.  ``form_change`` is the step change of J and,
with the grid's ``slice_operator(1)`` (2S) and the spatial weights, of
one slice's.
The diagnostics' uniformity windows read the same ``_slice_terms`` and
``_kinetic_cells``.
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


def _species_product(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v over the species axis of v (k, ...), one matrix product."""
    return (A @ v.reshape(len(v), -1)).reshape(v.shape)


def penalty_density(values: np.ndarray, A: np.ndarray) -> np.ndarray:
    """<v^2, A v^2> pointwise; values has shape (k, ...)."""
    v2 = values * values
    return np.einsum("i...,i...->...", v2, _species_product(A, v2))


def _slice_terms(values, grid: SpaceTimeGrid, spec: SystemSpec, beta: float):
    """Dirichlet, reaction and penalty integrals per time slice.

    values: (k, nt, *space).  Returns (D, F, P), each of shape (nt,).
    """
    D = grid.dirichlet_form(values).sum(axis=0)
    if spec.reactive:
        F = grid.integrate(spec.F_sum(values))
    else:
        F = np.zeros(values.shape[1])
    if beta != 0.0:
        P = grid.integrate(penalty_density(values, spec.A))
    else:
        P = np.zeros(values.shape[1])
    return D, F, P


def slice_potential(field: StateField, eps: float, beta: float) -> np.ndarray:
    """Potential slice energy at every time node, shape (nt,)."""
    D, F, P = _slice_terms(field.values, field.grid, field.spec, beta)
    return eps * (D - 2.0 * F + 0.5 * beta * P)


def _kinetic_cells(values, grid: SpaceTimeGrid, dt) -> np.ndarray:
    """Kinetic integral int |dv/dt|^2 per time cell, the species summed,
    of values (k, nt, *space) with the forward ``discrete_time_derivative``
    over the step dt, a scalar or one per cell: shape (nt-1,)."""
    du = gridmod.discrete_time_derivative(values, dt)
    du *= du
    return grid.integrate(du.sum(axis=0))


def eval_J(field: StateField, eps: float, beta: float) -> EnergyTrace:
    """Evaluate the discrete functional and its slice decomposition.

    Sums the per-cell squares of the stencils rather than 1/2 u.Qu: on a
    smooth field the terms of Q u cancel, and a difference of two values of
    1/2 u.Qu is then off by up to about 1.4e-14 |J| on the desk ladders,
    more than ``optimizer.ROUNDOFF_RTOL`` allows.  It would be no faster.
    The stencils are passes over the whole field: the Dirichlet form's
    stride differences on the flat field and one matrix-vector product per
    spatial integral; R is the ``cell_average`` of the slice potential.
    """
    g = field.grid
    Rslice = slice_potential(field, eps, beta)
    R = gridmod.cell_average(Rslice)
    I = _kinetic_cells(field.values, g, g.dt)
    cell = I + R
    J = float(np.dot(g.cell_weights, cell))
    cell *= g.cell_weights
    E = np.zeros(g.nt)
    E[:-1] = np.exp(g.t[:-1]) * np.cumsum(cell[::-1])[::-1]
    return EnergyTrace(t=g.t, I=I, R=R, E=E, J=J)


def _apply_quadratic(u: np.ndarray, Q) -> np.ndarray:
    """Q u_i for every species i, in the shape of u (k, *nodes)."""
    out = np.empty(u.shape)
    for ui, oi in zip(u.reshape(len(u), -1), out.reshape(len(u), -1)):
        oi[:] = Q @ ui
    return out


def eval_J_value(field: StateField, eps: float, beta: float) -> float:
    """The functional value alone, ``eval_J``'s J."""
    return eval_J(field, eps, beta).J


def _penalty_change(u: np.ndarray, da: np.ndarray,
                    A: np.ndarray) -> np.ndarray:
    """<b, A b> - <a, A a> pointwise for a = u^2 and b = a + da, as
    <da, A(2a + da)> (A symmetric), summed in one pass that holds no A q."""
    q = np.multiply(u, u)
    q *= 2.0
    q += da
    return np.einsum("ij,i...,j...->...", A, da, q)


def form_change(u: np.ndarray, d: np.ndarray, Q, weights: np.ndarray,
                spec: SystemSpec, eps: float, beta: float) -> float:
    """E(u + d) - E(u), free of cancellation, for the energy

        E(u) = sum_i 1/2 u_i.Q u_i
               + eps sum weights * (-2 F(u) + (beta/2) <u^2, A u^2>)

    of fields u, d of shape (k, *nodes), the weights of shape nodes.
    Near a minimizer the true change of a step can lie far below the
    round-off of E itself (a step confined to late time slices, whose
    weight is about e^{-T_r}, changes J by less than its ulp), so a
    difference of two values is noise there.  Here the quadratic part is
    1/2 d . Q p with p = 2u + d, the reaction part is ``F_sum_change`` and
    the penalty part ``<da, A(2a + da)>`` with da = d p, built in p's place:
    every term carries d as a factor, so it is exactly 0 where d is.  The
    factors -2 eps and eps beta / 2 scale the two weighted sums.
    """
    p = np.multiply(u, 2.0)
    p += d
    change = 0.5 * float(np.vdot(d, _apply_quadratic(p, Q)))
    if spec.reactive:
        change -= 2.0 * eps * float(np.vdot(weights,
                                            spec.F_sum_change(u, d)))
    if beta != 0.0:
        p *= d
        change += 0.5 * beta * eps * float(
            np.vdot(weights, _penalty_change(u, p, spec.A)))
    return change


def eval_J_change(field: StateField, d: np.ndarray, eps: float,
                  beta: float) -> float:
    """J(u + d) - J(u) for u = field.values: ``form_change`` with the
    grid's ``quadratic_operator(eps)`` and node weights."""
    g = field.grid
    return form_change(field.values, d, g.quadratic_operator(eps),
                       g.node_weights, field.spec, eps, beta)


def _pointwise_gradient(u: np.ndarray, spec: SystemSpec, beta: float,
                        eps: float, weights: np.ndarray) -> np.ndarray | None:
    """eps * weights * (-2 f(u) + 2 beta u (A u^2)), the derivative of eps
    times the weighted reaction and penalty terms -2F(u) + (beta/2)<u^2,
    A u^2> (A symmetric), or None when there is neither.

    ``weights`` broadcasts against u (k, ...) from the right.  The terms
    are built in one array in place: beta scales the k x k matrix A, and
    the factor 2 eps (-2 eps without the penalty) the weights, which
    multiply once.  2 eps w is twice eps w exactly, so the bits are those
    of scaling the weights by eps and then by 2.
    """
    if beta != 0.0:
        out = _species_product(beta * spec.A, u * u)
        out *= u
        if spec.reactive:
            out -= spec.f_all(u)
        scale = 2.0 * eps
    elif spec.reactive:
        out = spec.f_all(u)
        scale = -2.0 * eps
    else:
        return None
    out *= scale * weights
    return out


def potential_gradient(u: np.ndarray, g: SpaceTimeGrid, spec: SystemSpec,
                       beta: float) -> np.ndarray:
    """d/du of the per-slice potential D - 2F + (beta/2)P, slicewise.

    u has shape (k, n_slices, *space); the time axis is inert here, so the
    same routine serves space-time slices and purely spatial fields.
    """
    S = g.dirichlet_stiffness
    gpot = (u.reshape(-1, S.shape[0]) @ S).reshape(u.shape)   # S symmetric
    gpot *= 2.0
    pot = _pointwise_gradient(u, spec, beta, 1.0, g.space_weights)
    if pot is not None:
        gpot += pot
    return gpot


def grad_J(field: StateField, eps: float, beta: float,
           data: BoundaryData) -> np.ndarray:
    """Exact gradient of the discrete functional over free nodes.

    Pinned nodes (initial slice and/or lateral trace, per bc_mode) report 0.
    """
    g = field.grid
    u = field.values
    # the pointwise part first: its temporaries are gone before Q u exists
    pot = _pointwise_gradient(u, field.spec, beta, eps, g.node_weights)
    out = _apply_quadratic(u, g.quadratic_operator(eps))
    if pot is not None:
        out += pot
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
