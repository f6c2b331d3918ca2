"""A priori estimate checks and weak differential-inequality residuals.

The estimates hold exactly in the continuum; discretely they acquire
mesh-scaled tolerances.  All checks are pure functions of their inputs and
report verdicts as data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functional import EnergyTrace, energy_identity_residual, penalty_density
from .grid import SpaceTimeGrid, StateField, spatial_gradients
from .model import SystemSpec

#: mesh-error prefactor of the weak-inequality tolerance; calibrated once
#: against the exact k=1 heat benchmark and frozen
C_W_DEFAULT = 0.5

#: relative residual threshold for the energy identity at minimizers
ENERGY_IDENTITY_TOL = 5e-2

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

    def space_parts(self, x: np.ndarray, y: np.ndarray | None = None):
        """(value, d/dx[, d/dy]) of the spatial factor on given coords."""
        sx = (x - self.xc) / self.rx
        bx, dbx = _bump_profile(sx), _bump_dprofile(sx) / self.rx
        if self.yc is None:
            return bx, dbx
        sy = (y - self.yc) / self.ry
        by, dby = _bump_profile(sy), _bump_dprofile(sy) / self.ry
        return bx[:, None] * by[None, :], dbx[:, None] * by[None, :], \
            bx[:, None] * dby[None, :]

    def time_parts(self, t: np.ndarray):
        st = (t - self.tc) / self.rt
        return _bump_profile(st), _bump_dprofile(st) / self.rt

    @property
    def c1_norm(self) -> float:
        n = 1.0 + _BPRIME_MAX / self.rx + _BPRIME_MAX / self.rt
        if self.yc is not None:
            n += _BPRIME_MAX / self.ry
        return n

    @property
    def support_measure(self) -> float:
        m = (2.0 * self.rx) * (2.0 * self.rt)
        if self.yc is not None:
            m *= 2.0 * self.ry
        return m


@dataclass
class TestFunctionLattice:
    bumps: list = field(default_factory=list)
    skipped: int = 0


def build_lattice(grid: SpaceTimeGrid, t_lo: float, t_hi: float,
                  n_x: int = 5, n_t: int = 3, scales=(0.12, 0.2),
                  n_y: int | None = None) -> TestFunctionLattice:
    """Bump centers on a regular interior lattice, two support radii each.

    Radii are the scale times the corresponding extent; bumps whose support
    would touch the boundary are dropped (counted in ``skipped``).
    """
    lat = TestFunctionLattice()
    if n_y is None and grid.dim == 2:
        n_y = n_x
    for s in scales:
        rx = s * grid.Lx
        rt = s * (t_hi - t_lo)
        ry = s * grid.Ly if grid.dim == 2 else None
        if rx >= 0.5 * grid.Lx or rt >= 0.5 * (t_hi - t_lo):
            lat.skipped += n_x * n_t * (n_y or 1)
            continue
        xcs = np.linspace(rx, grid.Lx - rx, n_x + 2)[1:-1]
        tcs = np.linspace(t_lo + rt, t_hi - rt, n_t + 2)[1:-1]
        if grid.dim == 1:
            for xc in xcs:
                for tc in tcs:
                    lat.bumps.append(Bump(xc=xc, rx=rx, tc=tc, rt=rt))
        else:
            ycs = np.linspace(ry, grid.Ly - ry, n_y + 2)[1:-1]
            for xc in xcs:
                for yc in ycs:
                    for tc in tcs:
                        lat.bumps.append(
                            Bump(xc=xc, rx=rx, tc=tc, rt=rt, yc=yc, ry=ry)
                        )
    return lat


@dataclass
class InequalityReport:
    A: np.ndarray            # (k, n_bumps) sub-solution pairings
    B: np.ndarray            # (k, n_bumps) hatted super-solution pairings
    tol: np.ndarray          # (n_bumps,)
    worst_violation: float
    passed: bool


def _pairing(vals, dvdt, grads, fvals, taus, grid: SpaceTimeGrid,
             eps_term: float, bump: Bump) -> float:
    """One weak pairing  int int { eta dv/dt + eps dv/dt deta/dt
    + grad v . grad eta - f(v) eta } dx dtau  for a single scalar field."""
    dtau = np.diff(taus)
    t_mid = 0.5 * (taus[:-1] + taus[1:])
    ct = np.zeros_like(taus)
    ct[:-1] += 0.5 * dtau
    ct[1:] += 0.5 * dtau
    sw = grid.space_weights

    bt_mid, dbt_mid = bump.time_parts(t_mid)
    bt, _ = bump.time_parts(taus)
    if grid.dim == 1:
        bx, _ = bump.space_parts(grid.x)
        x_mid = 0.5 * (grid.x[:-1] + grid.x[1:])
        sx = (x_mid - bump.xc) / bump.rx
        dbx_cells = _bump_dprofile(sx) / bump.rx

        # time-derivative terms on time cells, eta at midpoints
        spatial = np.tensordot(dvdt, sw * bx, axes=1)          # (n_tau-1,)
        T1 = float(np.dot(dtau * bt_mid, spatial))
        T2 = eps_term * float(np.dot(dtau * dbt_mid, spatial))
        # gradient term: cell gradients x analytic bump slope at midpoints
        per_tau = np.tensordot(grads[0], dbx_cells * grid.dx, axes=1)
        T3 = float(np.dot(ct * bt, per_tau))
        per_tau_f = np.tensordot(fvals, sw * bx, axes=1)
        T4 = -float(np.dot(ct * bt, per_tau_f))
        return T1 + T2 + T3 + T4

    bxy, dbx, dby = bump.space_parts(grid.x, grid.y)
    spatial = np.tensordot(dvdt, sw * bxy, axes=2)
    T1 = float(np.dot(dtau * bt_mid, spatial))
    T2 = eps_term * float(np.dot(dtau * dbt_mid, spatial))
    x_mid = 0.5 * (grid.x[:-1] + grid.x[1:])
    y_mid = 0.5 * (grid.y[:-1] + grid.y[1:])
    sxm = (x_mid - bump.xc) / bump.rx
    sym = (y_mid - bump.yc) / bump.ry
    bx_m = _bump_profile((grid.x - bump.xc) / bump.rx)
    by_m = _bump_profile((grid.y - bump.yc) / bump.ry)
    dbx_cells = (_bump_dprofile(sxm) / bump.rx)[:, None] * by_m[None, :]
    dby_cells = bx_m[:, None] * (_bump_dprofile(sym) / bump.ry)[None, :]
    wy = grid.space_weights[0, :] / grid.dx
    wx = grid.space_weights[:, 0] / grid.dy
    per_tau = (
        np.tensordot(grads[0], dbx_cells * (grid.dx * wy)[None, :], axes=2)
        + np.tensordot(grads[1], dby_cells * (grid.dy * wx)[:, None], axes=2)
    )
    T3 = float(np.dot(ct * bt, per_tau))
    per_tau_f = np.tensordot(fvals, sw * bxy, axes=2)
    T4 = -float(np.dot(ct * bt, per_tau_f))
    return T1 + T2 + T3 + T4


def weak_tolerance(bump: Bump, grid: SpaceTimeGrid, dtau: float,
                   c_w: float = C_W_DEFAULT) -> float:
    h = grid.dx + dtau
    if grid.dim == 2:
        h += grid.dy
    return c_w * h * bump.c1_norm * bump.support_measure


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
    A = np.zeros((k, n_b))
    B = np.zeros((k, n_b))
    tol = np.array([
        weak_tolerance(b, grid, dtau_mean, c_w) for b in lattice.bumps
    ])

    dt_cells = np.diff(taus).reshape((-1,) + (1,) * grid.dim)
    fvals = spec.f_all(vals)
    for i in range(k):
        vi = vals[i]
        vhat = vals[i] - (vals.sum(axis=0) - vals[i])
        fhat = fvals[i] - (fvals.sum(axis=0) - fvals[i])
        dvdt_i = (vi[1:] - vi[:-1]) / dt_cells
        dvhat = (vhat[1:] - vhat[:-1]) / dt_cells
        grads_i = spatial_gradients(vi, grid)
        grads_h = spatial_gradients(vhat, grid)
        for b_idx, bump in enumerate(lattice.bumps):
            A[i, b_idx] = _pairing(
                vi, dvdt_i, grads_i, fvals[i], taus, grid, eps_term, bump
            )
            B[i, b_idx] = _pairing(
                vhat, dvhat, grads_h, fhat, taus, grid, eps_term, bump
            )

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
    rows = []
    for tau0, T in windows:
        if tau0 + T > taus[-1] * (1 + 1e-12):
            raise ValueError(
                f"window ({tau0:g}, {tau0 + T:g}) exceeds the available "
                f"horizon {taus[-1]:g}"
            )
        sel = (taus >= tau0 - 1e-12) & (taus <= tau0 + T + 1e-12)
        val = float(np.trapezoid(q[sel], taus[sel]) / T)
        rows.append({"tau0": tau0, "T": T, "value": val})
        worst = max(worst, val)

    dvdt = np.diff(vals, axis=1) / np.diff(taus).reshape(
        (-1,) + (1,) * grid.dim
    )
    kin_cells = np.tensordot(np.sum(dvdt * dvdt, axis=0), sw, axes=sw.ndim)
    kinetic = float(np.dot(np.diff(taus), kin_cells))
    return {
        "windowed_max": worst,
        "windows": rows,
        "sup_norm": float(np.abs(vals).max()),
        "kinetic": kinetic,
    }


def default_windows(eps: float):
    return [(a * eps, b * eps) for a in (0, 1, 2) for b in (1, 2, 4)]


def check_energy_identity(trace: EnergyTrace, converged: bool,
                          tol: float = ENERGY_IDENTITY_TOL) -> dict:
    """Diagnostic packaging of the energy-identity residual."""
    _, rel, _ = energy_identity_residual(trace)
    out = {"relative_residual": rel, "tol": tol, "reliable": bool(converged)}
    out["passed"] = bool(converged and rel <= tol)
    if not converged:
        out["note"] = "input not converged; residual not meaningful"
    return out


def check_level_estimate_across_ladder(entries, M: float, volume: float,
                                       ratio_cap: float = 4.0,
                                       rel_slack: float = 0.02,
                                       abs_slack: float = 1e-6) -> dict:
    """Boundedness of |J|/eps across a regularization ladder.

    entries: iterable of dicts with keys eps, J, J_competitor.
    """
    rows = []
    ratios = []
    bounds_ok = True
    for e in entries:
        eps, J, Jc = e["eps"], e["J"], e["J_competitor"]
        lower = -eps * M * volume
        slack = abs_slack + rel_slack * max(abs(lower), abs(Jc))
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
        "bounded": bool(spread <= ratio_cap),
        "bounds_ok": bool(bounds_ok),
        "passed": bool(bounds_ok and spread <= ratio_cap),
    }
