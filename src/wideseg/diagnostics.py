"""A priori estimate checks and weak differential-inequality residuals.

The estimates hold exactly in the continuum; discretely they acquire
mesh-scaled tolerances.  All checks are pure functions of their inputs and
report verdicts as data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .functional import EnergyTrace, energy_identity_residual, penalty_density
from .grid import SpaceTimeGrid, StateField
from .model import SystemSpec

#: mesh-error prefactor of the weak-inequality tolerance; calibrated once
#: against the exact k=1 heat benchmark and frozen
C_W_DEFAULT = 0.5

#: relative residual threshold for the energy identity at minimizers
ENERGY_IDENTITY_TOL = 5e-2

#: level estimate: the largest spread of |J|/eps allowed across the ladder,
#: and the relative and absolute slack on the bounds -eps M |Omega| <= J
#: <= J_competitor
LEVEL_RATIO_CAP = 4.0
LEVEL_REL_SLACK = 0.02
LEVEL_ABS_SLACK = 1e-6

_BPRIME_MAX = 8.0 / (3.0 * np.sqrt(3.0))   # max |d/ds (1-s^2)^2|


def overlap(field: StateField) -> tuple[float, float]:
    """Weighted space-time integral and nodal sup of <v^2, A v^2>."""
    g = field.grid
    P = penalty_density(field.values, field.spec.A)   # (nt, *space)
    sw = g.space_weights
    per_slice = np.tensordot(P, sw, axes=sw.ndim)
    integral = float(
        np.dot(g.cell_weights, 0.5 * (per_slice[:-1] + per_slice[1:]))
    )
    return integral, float(P.max(initial=0.0))


def _bump_profile(s: np.ndarray) -> np.ndarray:
    inside = np.abs(s) < 1.0
    return np.where(inside, (1.0 - s * s) ** 2, 0.0)


def _bump_dprofile(s: np.ndarray) -> np.ndarray:
    inside = np.abs(s) < 1.0
    return np.where(inside, -4.0 * s * (1.0 - s * s), 0.0)


@dataclass(frozen=True)
class Bump:
    """Compactly supported C^1 test bump, tensorized space x time."""

    xc: float
    rx: float
    tc: float
    rt: float
    yc: float | None = None
    ry: float | None = None

    @property
    def radii(self) -> list:
        """Radii in the order x, t, y; a bump on a 1-D grid has no y."""
        return [r for r in (self.rx, self.rt, self.ry) if r is not None]

    def space_parts(self, grid: SpaceTimeGrid):
        """The spatial factor at the nodes, in the spatial shape, and its
        analytic slope at the midpoint of every edge of the grid's cell
        gradient G, in G's row order (built as ``grid.cell_gradient``
        builds its weights: an outer product per axis, raveled)."""
        centres = ((self.xc, self.rx), (self.yc, self.ry))
        axes = list(zip(grid.coords, centres))
        profiles = [_bump_profile((x - c) / r) for x, (c, r) in axes]
        slopes = []
        for a, (x, (c, r)) in enumerate(axes):
            factors = list(profiles)
            mid = 0.5 * (x[:-1] + x[1:])
            factors[a] = _bump_dprofile((mid - c) / r) / r
            slopes.append(reduce(np.multiply.outer, factors).ravel())
        return reduce(np.multiply.outer, profiles), np.concatenate(slopes)

    def time_parts(self, t: np.ndarray):
        st = (t - self.tc) / self.rt
        return _bump_profile(st), _bump_dprofile(st) / self.rt

    @property
    def c1_norm(self) -> float:
        return sum((_BPRIME_MAX / r for r in self.radii), 1.0)

    @property
    def support_measure(self) -> float:
        return math.prod(2.0 * r for r in self.radii)


@dataclass
class TestFunctionLattice:
    bumps: list = field(default_factory=list)
    skipped: int = 0


def build_lattice(grid: SpaceTimeGrid, t_lo: float, t_hi: float,
                  n_x: int = 5, n_t: int = 3,
                  scales=(0.12, 0.2)) -> TestFunctionLattice:
    """Bump centers on a regular interior lattice, n_x per spatial axis and
    n_t in time, for each scale.

    Radii are the scale times the corresponding extent; bumps whose support
    would touch the boundary are dropped (counted in ``skipped``).
    """
    lat = TestFunctionLattice()
    bounds = [(0.0, L) for L in grid.lengths] + [(t_lo, t_hi)]
    counts = [n_x] * grid.dim + [n_t]
    for s in scales:
        radii = [s * (hi - lo) for lo, hi in bounds]
        if any(r >= 0.5 * (hi - lo) for r, (lo, hi) in zip(radii, bounds)):
            lat.skipped += math.prod(counts)
            continue
        centres = [np.linspace(lo + r, hi - r, n + 2)[1:-1]
                   for r, (lo, hi), n in zip(radii, bounds, counts)]
        *rs, rt = radii
        for *cs, tc in itertools.product(*centres):
            lat.bumps.append(Bump(tc=tc, rt=rt,
                                  **dict(zip(("xc", "yc"), cs)),
                                  **dict(zip(("rx", "ry"), rs))))
    return lat


@dataclass
class InequalityReport:
    A: np.ndarray            # (k, n_bumps) sub-solution pairings
    B: np.ndarray            # (k, n_bumps) hatted super-solution pairings
    tol: np.ndarray          # (n_bumps,)
    worst_violation: float
    passed: bool


def _time_derivative(vals: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """dv/dtau on the time cells of a (n, n_tau, *space) field sampled at
    ``taus``: shape (n, n_tau - 1, *space)."""
    dtau = np.diff(taus).reshape((-1,) + (1,) * (vals.ndim - 2))
    return np.diff(vals, axis=1) / dtau


def _pairings(dvdt, grads, forces, taus, grid: SpaceTimeGrid,
              eps_term: float, bump: Bump) -> np.ndarray:
    """Weak pairings  int int { eta dv/dt + eps dv/dt deta/dt
    + grad v . grad eta - f(v) eta } dx dtau  of one bump eta with each
    field along the leading axis.

    dvdt holds the time differences on time cells, grads the cell
    gradients G v on the nodes' time levels, forces f(v) on the nodes.
    The gradient term pairs G v with the bump's analytic slope at the edge
    midpoints under the functional's edge weights W.
    """
    dtau = np.diff(taus)
    t_mid = 0.5 * (taus[:-1] + taus[1:])
    ct = np.zeros_like(taus)
    ct[:-1] += 0.5 * dtau
    ct[1:] += 0.5 * dtau
    _, W = grid.dirichlet_operator

    bt_mid, dbt_mid = bump.time_parts(t_mid)
    bt, _ = bump.time_parts(taus)
    eta, slope = bump.space_parts(grid)
    sw_eta = grid.space_weights * eta

    # time-derivative terms on time cells, eta at midpoints
    spatial = np.tensordot(dvdt, sw_eta, axes=grid.dim)   # (n, n_tau-1)
    T1 = spatial @ (dtau * bt_mid)
    T2 = eps_term * (spatial @ (dtau * dbt_mid))
    T3 = (grads @ (W * slope)) @ (ct * bt)
    T4 = -(np.tensordot(forces, sw_eta, axes=grid.dim) @ (ct * bt))
    return T1 + T2 + T3 + T4


def weak_tolerance(bump: Bump, grid: SpaceTimeGrid, dtau: float,
                   c_w: float = C_W_DEFAULT) -> float:
    # spacings in the order of the bump's radii: x, t, then y
    spacings = [h for _, h in grid.axes]
    spacings.insert(1, dtau)
    return c_w * sum(spacings) * bump.c1_norm * bump.support_measure


def check_weak_inequalities(vals: np.ndarray, taus: np.ndarray,
                            grid: SpaceTimeGrid, spec: SystemSpec,
                            eps_term: float, lattice: TestFunctionLattice,
                            c_w: float = C_W_DEFAULT,
                            tol_dtau: float | None = None) -> InequalityReport:
    """Sub-solution and hatted super-solution pairings on a bump lattice.

    vals is a (k, n_tau, *space) original-time nodal field.  With
    eps_term = 0 the pairings are those of the limiting parabolic
    differential-inequality system.  ``tol_dtau`` overrides the time step
    entering the mesh tolerance (used by the stationary wrapper, whose
    artificial time axis carries no discretization error).
    """
    k = spec.k
    n_b = len(lattice.bumps)
    dtau_mean = float(np.mean(np.diff(taus))) if tol_dtau is None else tol_dtau
    tol = np.array([
        weak_tolerance(b, grid, dtau_mean, c_w) for b in lattice.bumps
    ])

    # the k fields, then their k hatted fields v_i - sum_{j != i} v_j
    fvals = spec.f_all(vals)
    fields = np.concatenate([vals, vals - (vals.sum(axis=0) - vals)])
    forces = np.concatenate([fvals, fvals - (fvals.sum(axis=0) - fvals)])
    dvdt = _time_derivative(fields, taus)
    grads = grid.gradient(fields)
    pairings = np.array([
        _pairings(dvdt, grads, forces, taus, grid, eps_term, b)
        for b in lattice.bumps
    ]).reshape(n_b, 2 * k).T
    A, B = pairings[:k], pairings[k:]

    viol = max(
        float(np.max(A - tol[None, :])),
        float(np.max(-tol[None, :] - B)),
    )
    return InequalityReport(
        A=A, B=B, tol=tol,
        worst_violation=max(viol, 0.0),
        passed=bool(viol <= 0.0),
    )


def check_stationary_inequalities(w_vals: np.ndarray, grid: SpaceTimeGrid,
                                  spec: SystemSpec,
                                  lattice: TestFunctionLattice,
                                  c_w: float = C_W_DEFAULT) -> InequalityReport:
    """Time-independent specialization of the weak inequalities.

    Wraps the space-time check with a short constant-in-time extension of
    the spatial field, so a vanishing time derivative drops those terms.
    """
    # fine artificial time axis: it must resolve the temporal bump factor
    # accurately even though the field itself is time-constant
    n_tau = 41
    taus = np.linspace(0.0, 1.0, n_tau)
    vals = np.broadcast_to(
        w_vals[:, None], (spec.k, n_tau) + grid.space_shape
    ).copy()
    # temporal bump factor spans the artificial interval; its contribution
    # cancels because the field is time-constant
    for b in lattice.bumps:
        if not (0.0 < b.tc - b.rt and b.tc + b.rt < 1.0):
            raise ValueError("stationary lattice bumps must live inside (0,1)")
    return check_weak_inequalities(
        vals, taus, grid, spec, eps_term=0.0, lattice=lattice, c_w=c_w,
        tol_dtau=0.0,
    )


def check_uniform_windows(vals: np.ndarray, taus: np.ndarray,
                          grid: SpaceTimeGrid, spec: SystemSpec,
                          beta: float, windows) -> dict:
    """Windowed Dirichlet+penalty average, sup norm, and kinetic integral.

    vals is an original-time nodal field; each window is (tau0, T) and the
    reported quantity is the max over windows of
    (1/T) int_{tau0}^{tau0+T} int { |grad v|^2 + beta <v^2, A v^2> }.
    """
    sw = grid.space_weights
    D = grid.dirichlet_form(vals).sum(axis=0)
    P = np.tensordot(penalty_density(vals, spec.A), sw, axes=sw.ndim)
    q = D + beta * P    # (n_tau,)

    worst = 0.0
    for tau0, T in windows:
        if tau0 + T > taus[-1] * (1 + 1e-12):
            raise ValueError(
                f"window ({tau0:g}, {tau0 + T:g}) exceeds the available "
                f"horizon {taus[-1]:g}"
            )
        sel = (taus >= tau0 - 1e-12) & (taus <= tau0 + T + 1e-12)
        worst = max(worst, float(np.trapezoid(q[sel], taus[sel]) / T))

    dvdt = _time_derivative(vals, taus)
    kin_cells = np.tensordot(np.sum(dvdt * dvdt, axis=0), sw, axes=sw.ndim)
    kinetic = float(np.dot(np.diff(taus), kin_cells))
    return {
        "windowed_max": worst,
        "sup_norm": float(np.abs(vals).max()),
        "kinetic": kinetic,
    }


def default_windows(eps: float):
    return [(a * eps, b * eps) for a in (0, 1, 2) for b in (1, 2, 4)]


def check_energy_identity(trace: EnergyTrace, converged: bool) -> dict:
    """Diagnostic packaging of the energy-identity residual, judged against
    ``ENERGY_IDENTITY_TOL``."""
    _, rel, _ = energy_identity_residual(trace)
    tol = ENERGY_IDENTITY_TOL
    out = {"relative_residual": rel, "tol": tol, "reliable": bool(converged)}
    out["passed"] = bool(converged and rel <= tol)
    if not converged:
        out["note"] = "input not converged; residual not meaningful"
    return out


def check_level_estimate_across_ladder(entries, M: float,
                                       volume: float) -> dict:
    """Boundedness of |J|/eps across a regularization ladder: the bounds
    within ``LEVEL_REL_SLACK`` and ``LEVEL_ABS_SLACK``, the spread of
    |J|/eps within ``LEVEL_RATIO_CAP``.

    entries: iterable of dicts with keys eps, J, J_competitor.
    """
    rows = []
    ratios = []
    bounds_ok = True
    for e in entries:
        eps, J, Jc = e["eps"], e["J"], e["J_competitor"]
        lower = -eps * M * volume
        slack = LEVEL_ABS_SLACK + LEVEL_REL_SLACK * max(abs(lower), abs(Jc))
        ok = lower - slack <= J <= Jc + slack
        bounds_ok &= ok
        ratios.append(abs(J) / eps)
        rows.append({
            "eps": eps, "J": J, "J_over_eps": J / eps,
            "lower": lower, "upper": Jc, "within_bounds": bool(ok),
        })
    lo = min(ratios)
    spread = max(ratios) / lo if lo > 0 else float("inf")
    return {
        "rows": rows,
        "abs_ratio_spread": spread,
        "bounded": bool(spread <= LEVEL_RATIO_CAP),
        "bounds_ok": bool(bounds_ok),
        "passed": bool(bounds_ok and spread <= LEVEL_RATIO_CAP),
    }
