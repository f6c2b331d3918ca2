"""Penalty and regularization ladders with warm starts.

The penalty coefficient is driven upward first (at fixed regularization),
then the regularization parameter downward, matching the ordered double
limit; each rung is warm-started from its predecessor because cold starts
at large penalties stall in the stiff landscape.  Convergence along a
ladder is reported as Cauchy distances between consecutive rungs, never
asserted to be monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import overlap
from .functional import competitor_field
from .grid import SpaceTimeGrid, StateField, resample_in_time
from .model import BoundaryData, SystemSpec
from .optimizer import OptimizeResult, OptimizerConfig, minimize


@dataclass
class LadderSpec:
    betas: tuple = (10.0, 100.0, 1000.0, 10000.0)
    epsilons: tuple = (0.2, 0.1, 0.05, 0.025)
    cauchy_tol: float = 1e-3

    def __post_init__(self) -> None:
        b = list(self.betas)
        if any(x <= 0 for x in b) or b != sorted(b):
            raise ValueError("betas must be ascending and positive")
        e = list(self.epsilons)
        if any(not 0 < x < 1 for x in e) or e != sorted(e, reverse=True):
            raise ValueError("epsilons must be descending in (0, 1)")


def hard_segregation(values: np.ndarray, tie_tol: float = 0.1) -> np.ndarray:
    """Keep the dominant component at each node, zero the rest.

    Nodes where the runner-up is within ``tie_tol`` (relative) of the
    leader have no dominant component: they are interface nodes, where
    every component of the segregated limit vanishes, and are zeroed for
    all species.  Without this, a node sitting exactly on an interface
    lands arbitrarily in one support and displaces the zero set by a cell.
    """
    idx = np.argmax(values, axis=0)
    out = np.zeros_like(values)
    top = np.take_along_axis(values, idx[None], axis=0)
    np.put_along_axis(out, idx[None], top, axis=0)
    if values.shape[0] > 1:
        part = np.partition(values, -2, axis=0)
        second = part[-2]
        tie = (top[0] - second) <= tie_tol * top[0]
        out[:, tie] = 0.0
    return out


@dataclass
class BetaLadderResult:
    eps: float
    betas: tuple
    results: list          # OptimizeResult per rung
    beta_overlap: list     # beta * weighted overlap integral per rung
    v_eps: StateField      # hard-projected top-rung field
    refine: OptimizeResult  # penalty-free re-minimization, frozen partition
    all_converged: bool


def segregated_ladder(solve, betas, init: np.ndarray):
    """Ascend the penalty ladder, then pass to its segregated limit.

    ``solve(beta, values, support) -> (result, values)`` minimizes at one
    penalty from the starting ``values``, holding nodes outside ``support``
    (when given) at zero.  Each rung is warm-started from the previous
    one.  The top rung is hard-segregated and re-minimized with the penalty
    off on the frozen partition: the hard projection leaves an
    O(beta^{-1/4}) cliff at interfaces, whereas the limit object is the
    minimizer over segregated fields.  Returns the rung results, the
    refine result and the hard-segregated refined values.
    """
    results = []
    values = init
    for beta in betas:
        res, values = solve(beta, values, None)
        results.append(res)
    projected = hard_segregation(values)
    refined, values = solve(0.0, projected, projected > 0.0)
    return results, refined, hard_segregation(values)


def run_beta_ladder(spec: SystemSpec, data: BoundaryData, grid: SpaceTimeGrid,
                    eps: float, betas, config: OptimizerConfig | None = None,
                    init: StateField | None = None) -> BetaLadderResult:
    """Ascend the penalty ladder at fixed eps, warm-starting each rung."""
    if init is None:
        init = competitor_field(data, grid, spec)

    def solve(beta, values, support):
        res = minimize(spec, data, grid, eps, beta, config,
                       init=StateField(values, grid, spec), support=support)
        return res, res.field.values

    results, refined, v_eps = segregated_ladder(solve, betas, init.values)
    return BetaLadderResult(
        eps=eps,
        betas=tuple(betas),
        results=results,
        beta_overlap=[b * overlap(r.field)[0]
                      for b, r in zip(betas, results)],
        v_eps=StateField(v_eps, grid, spec),
        refine=refined,
        all_converged=all(r.converged for r in results) and refined.converged,
    )


def to_original_time(field: StateField, eps: float,
                     tau_grid: np.ndarray) -> np.ndarray:
    """Resample a rescaled-clock field at original times tau = eps * t.

    Linear interpolation per node (``grid.resample_in_time``); on the
    nodal lattice it returns the nodal values up to round-off.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    horizon = eps * field.grid.T_r
    if tau_grid.max() > horizon * (1 + 1e-12):
        raise ValueError(
            f"requested tau up to {tau_grid.max():g} exceeds the available "
            f"original-time horizon {horizon:g} (= eps * T_r)"
        )
    t_query = np.clip(tau_grid / eps, 0.0, field.grid.T_r)
    return resample_in_time(field.grid.t, field.values, t_query)


def original_time_l2(a: np.ndarray, b: np.ndarray, taus: np.ndarray,
                     grid: SpaceTimeGrid) -> float:
    """Unweighted L2 distance over Omega x (taus[0], taus[-1])."""
    d2 = np.sum((a - b) ** 2, axis=0)     # (n_tau, *space)
    per_tau = grid.integrate(d2)
    return float(np.sqrt(np.trapezoid(per_tau, taus)))


#: nodes of the original-time comparison window linspace(0, tau_max, .)
N_TAU = 101


@dataclass
class DoubleLimitResult:
    beta_results: dict = field(default_factory=dict)   # eps -> BetaLadderResult
    w: StateField = None
    cauchy: list = field(default_factory=list)         # [(eps_hi, eps_lo, dist)]
    tau_max: float = 0.0
    all_converged: bool = True

    @property
    def taus(self) -> np.ndarray:
        """The common original-time comparison window, covered by every
        rung: the Cauchy distances, the weak inequalities and the oracle
        are all read on it."""
        return np.linspace(0.0, self.tau_max, N_TAU)


def run_eps_ladder(spec: SystemSpec, data: BoundaryData, grid: SpaceTimeGrid,
                   ladder: LadderSpec,
                   config: OptimizerConfig | None = None) -> DoubleLimitResult:
    """Descend the regularization ladder, each rung running a full penalty
    ladder warm-started from the previous segregated limit."""
    out = DoubleLimitResult()
    eps_list = list(ladder.epsilons)
    out.tau_max = 0.5 * min(eps_list) * grid.T_r
    taus = out.taus

    warm: StateField | None = None
    prev_orig = None
    prev_eps = None
    for eps in eps_list:
        bl = run_beta_ladder(spec, data, grid, eps, ladder.betas, config,
                             init=warm)
        out.beta_results[eps] = bl
        out.all_converged &= bl.all_converged
        # the grid is eps-independent in the rescaled clock, so the
        # segregated limit is reused directly as the next warm start
        warm = bl.v_eps
        # Cauchy distances use the raw top-rung minimizers: the hard
        # projection moves every field by O(interface width), which is far
        # larger than the inter-rung differences it would be measuring
        cur_orig = to_original_time(bl.results[-1].field, eps, taus)
        if prev_orig is not None:
            d = original_time_l2(prev_orig, cur_orig, taus, grid)
            out.cauchy.append((prev_eps, eps, d))
        prev_orig = cur_orig
        prev_eps = eps
    out.w = out.beta_results[eps_list[-1]].v_eps
    return out
