"""Box-projected gradient descent with Barzilai-Borwein steps.

The descent direction is the raw gradient divided by the node quadrature
mass (time-cell weight times spatial trapezoid weight), which turns it into
an O(1) residual density across the exponentially weighted mesh; without
this scaling, late-time nodes see gradients around e^{-T_r} times smaller
than early ones and a scalar step cannot serve both.  Convergence is
measured on this preconditioned gradient after removing components blocked
by active box constraints.

The first trial step of an iteration follows the adaptive Barzilai-Borwein
rule ABBmin (Frassoldati, Zanghirati & Zanni, J. Ind. Manag. Optim. 4,
2008) with the self-adjusting threshold of the scaled gradient projection
method (Bonettini, Zanella & Zanni, Inverse Problems 25, 2009).  Of the two
BB steps, BB1 = s.s / s.y is long and BB2 = s.y / y.y short (s the last
move, y the change of the preconditioned gradient, both in the mass inner
product).  BB2 / BB1 is the squared cosine of the angle between s and y.
When it falls below a threshold tau, the step is the least of the recent
BB2 values and tau shrinks; otherwise the step is BB1 and tau grows.  Pure
BB1 steps fail the Armijo test at first in about half of all iterations on
the desk ladders, and every rejected trial costs a value call.

Steps are accepted only on a decrease of the objective (monotone descent).
Near a minimizer the true decrease of a step can fall below the round-off
of the full objective sum -- on the exponentially weighted mesh a step
confined to late time slices changes J by far less than J's ulp -- so a
comparison of two full sums is decided by noise there.  Whenever that
comparison is within round-off, the decrease is instead taken from a
cancellation-free local difference of the objective (``change_fn``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from .functional import EnergyTrace, eval_J, eval_J_change, eval_J_value, grad_J
from .grid import SpaceTimeGrid, StateField
from .model import BoundaryData, SystemSpec


@dataclass
class OptimizerConfig:
    max_iters: int = 4000
    grad_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class OptimizeResult:
    field: StateField
    trace: EnergyTrace
    iters: int
    pg_norm: float
    converged: bool
    stop_reason: str          # "converged", "no_descent" or "max_iters"
    J_history: list = field(default_factory=list)


def _kkt_norm(x: np.ndarray, gh: np.ndarray) -> float:
    """Max-norm of the preconditioned gradient with the components blocked
    by active box constraints removed: a positive entry at x = 0 and a
    negative one at x = 1 would push outward, so they do not count."""
    return float(max(np.max(np.where(x > 0.0, gh, 0.0)),
                     -np.min(np.where(x < 1.0, gh, 0.0))))


def _trial(x: np.ndarray, gh: np.ndarray, step: float,
           out: np.ndarray) -> None:
    """Write x - step * gh clipped to [0, 1] into ``out``."""
    np.multiply(gh, step, out=out)
    np.subtract(x, out, out=out)
    np.clip(out, 0.0, 1.0, out=out)


#: round-off allowance on a difference of two full objective values, as a
#: fraction of the objective.  On the 1-D (nx=63, nt=201, eps down to 0.05)
#: and 2-D (15 x 15, nt=101) desk ladders, under the ABBmin trial steps,
#: that difference is off the cancellation-free change by at most
#: 5.8e-16 |J| on the trials that consult ``change_fn``, and by at most
#: 8.2e-16 |J| on any trial that changes J by less than 1e-6 |J|, so this
#: leaves a margin of 12x-17x; a larger value only consults ``change_fn``
#: more often
ROUNDOFF_RTOL = 1e-14

#: ABBmin: the threshold on BB2 / BB1 at the start of every call, and how
#: many recent BB2 values the short step is the least of; each iteration
#: multiplies the threshold by 0.9 after a short step and by 1.1 after BB1
ABB_TAU0 = 0.5
ABB_MEMORY = 3

#: backtracking: the factor each rejected trial step is shrunk by, the
#: smallest step tried, and the Armijo fraction of the predicted decrease
#: a step must achieve
BACKTRACK_FACTOR = 0.5
MIN_STEP = 1e-14
ARMIJO = 1e-4


def _decrease(change_fn, x, J, x_new, J_new, bound: float) -> float:
    """J_new - J, to be compared with ``bound``.

    When the difference of full sums lies within round-off of ``bound`` it
    cannot tell on which side the true decrease falls, and the
    cancellation-free ``change_fn`` is used instead.
    """
    dJ = J_new - J
    if abs(dJ - bound) <= ROUNDOFF_RTOL * abs(J):
        dJ = change_fn(x, x_new - x)
    return dJ


def _bb_products(x, x_prev, gh, gh_prev, mass):
    """s.s, s.y and y.y in the mass inner product, for the last move
    s = x - x_prev and the change y = gh - gh_prev of the preconditioned
    gradient.  y reuses the buffer of s and mass * y that of mass * s, and
    both buffers are freed on return, before the iteration's value and
    gradient calls."""
    s = x - x_prev
    ms = mass * s
    ss = float(np.sum(ms * s))
    y = np.subtract(gh, gh_prev, out=s)
    sy = float(np.sum(ms * y))
    yy = float(np.sum(np.multiply(mass, y, out=ms) * y))
    return ss, sy, yy


def projected_bb(x0, value_fn, grad_fn, mass, cfg: OptimizerConfig,
                 lipschitz: float, change_fn):
    """Generic monotone projected-BB loop on the box [0, 1].

    value_fn(x) -> scalar, grad_fn(x) -> raw gradient, mass -> quadrature
    mass per entry (used as a diagonal preconditioner and inner product),
    change_fn(x, d) -> value_fn(x + d) - value_fn(x) computed without
    cancellation.  ``lipschitz`` is a curvature estimate for the
    preconditioned gradient, used for the initial and fallback step 1/L.

    ``x0`` must lie in the box; every trial point is ``x - s * gh``
    clipped to [0, 1].  Entries with zero mass get a preconditioned
    gradient of exactly 0, so they never move from ``x0``: callers hold
    pinned entries and nodes outside a prescribed support fixed by setting
    them in ``x0`` and giving them zero mass, not by projecting every trial.

    A trial point is judged on the decrease ``J_new - J``; when that
    difference of full sums is within ``ROUNDOFF_RTOL * |J|`` of the bound
    it is tested against, it cannot decide, and ``change_fn`` gives the
    decrease instead.  The first trial step is ABBmin's choice between
    BB1 and the least of the last ``ABB_MEMORY`` BB2 values (see the
    module docstring; 1/L on the first pass or when s.y <= 0), clamped to
    [``MIN_STEP``, 1e6/L]; the threshold and the BB2 memory start afresh
    on every call.  Backtracking shrinks the step by ``BACKTRACK_FACTOR``
    until it meets the Armijo condition (fraction ``ARMIJO``) on that
    decrease, down to ``MIN_STEP``; failing that, the short step 1/L is
    taken only if it strictly decreases J by the same measure, and
    otherwise the loop stops.  A stop reports ``converged`` only if the
    KKT residual is within ``grad_tol``.

    ``stop_reason`` says where the loop ended: ``"converged"`` (KKT
    residual within ``grad_tol``), ``"no_descent"`` (no step decreased J)
    or ``"max_iters"`` (the cap was reached with the residual above
    ``grad_tol``).  ``iters`` is the index of the last loop pass, so a
    capped run reports ``max_iters - 1``.
    """
    free = mass > 0
    divisor = np.where(free, mass, 1.0)

    def precondition(g):
        return np.where(free, g / divisor, 0.0)

    x = np.asarray(x0, dtype=float)
    J = value_fn(x)
    history = [J]
    gh = precondition(grad_fn(x))
    s_fallback = 1.0 / lipschitz
    s = s_fallback
    tau = ABB_TAU0
    bb2_recent = deque(maxlen=ABB_MEMORY)
    x_prev = None
    gh_prev = None
    it = 0
    for it in range(cfg.max_iters):
        pg_norm = _kkt_norm(x, gh)
        if pg_norm <= cfg.grad_tol:
            stop_reason = "converged"
            break

        if x_prev is not None:
            ss, sy, yy = _bb_products(x, x_prev, gh, gh_prev, mass)
            if sy > 0 and ss > 0 and yy > 0:
                bb1, bb2 = ss / sy, sy / yy
                bb2_recent.append(bb2)
                if bb2 / bb1 < tau:
                    s = min(bb2_recent)
                    tau *= 0.9
                else:
                    s = bb1
                    tau *= 1.1
            else:
                s = s_fallback
        s = min(max(s, MIN_STEP), 1e6 * s_fallback)

        mgh = mass * gh
        x_new = np.empty_like(x)
        accepted = False
        trial = s
        while True:
            _trial(x, gh, trial, x_new)
            J_new = value_fn(x_new)
            pred = float(np.sum(mgh * (x - x_new)))
            bound = -ARMIJO * pred
            dJ = _decrease(change_fn, x, J, x_new, J_new, bound)
            if dJ <= bound and dJ <= 0.0:
                accepted = True
                break
            if trial <= MIN_STEP:
                break
            trial *= BACKTRACK_FACTOR

        if not accepted:
            # descent safeguard: short fixed step from the curvature estimate
            trial = s_fallback
            _trial(x, gh, trial, x_new)
            J_new = value_fn(x_new)
            if not _decrease(change_fn, x, J, x_new, J_new, 0.0) < 0.0:
                # cannot make progress; stop with the current iterate
                stop_reason = "no_descent"
                break

        x_prev, gh_prev = x, gh
        x, J = x_new, J_new
        history.append(J)
        gh = precondition(grad_fn(x))
    else:
        # the cap was reached: judge the iterate of the last accepted step
        pg_norm = _kkt_norm(x, gh)
        stop_reason = "converged" if pg_norm <= cfg.grad_tol else "max_iters"

    return x, {
        "J": J,
        "J_history": history,
        "iters": it,
        "pg_norm": pg_norm,
        "converged": stop_reason == "converged",
        "stop_reason": stop_reason,
    }


def node_mass(grid: SpaceTimeGrid, spec: SystemSpec) -> np.ndarray:
    """Quadrature mass per node, broadcast to the field shape."""
    return np.repeat(grid.node_weights[None], spec.k, axis=0)


def curvature_estimate(grid: SpaceTimeGrid, spec: SystemSpec,
                       eps: float, beta: float) -> float:
    """Upper bound on the preconditioned Hessian diagonal of the space-time
    functional: the time stencil's 8 / dt^2 plus ``curvature_bound``."""
    return curvature_bound(grid, spec, eps, beta, 8.0 / grid.dt**2)


def curvature_bound(grid: SpaceTimeGrid, spec: SystemSpec, eps: float,
                    beta: float, L: float = 0.0) -> float:
    """L plus the curvature bounds of eps times the spatial stencil and of
    eps times the penalty on the box.  With eps = 1 and L = 0 it bounds the
    stationary energy without its reaction term."""
    L = sum((8.0 * eps / h**2 for _, h in grid.axes), L)
    if beta > 0:
        row = float(np.max(np.sum(np.abs(spec.A), axis=1)))
        L += 6.0 * eps * beta * row
    return L


def default_init(spec: SystemSpec, data: BoundaryData, grid: SpaceTimeGrid,
                 mode: str = "competitor", seed: int = 0) -> StateField:
    """Starting fields: the time-constant extension of v0 (``competitor``)
    or seeded segregation-respecting noise (``random``), traces re-imposed."""
    shape = (spec.k, grid.nt) + grid.space_shape
    if mode == "competitor":
        vals = np.broadcast_to(data.v0[:, None], shape).copy()
    elif mode == "random":
        rng = np.random.default_rng(seed)
        noise = rng.uniform(0.0, 1.0, size=shape)
        support = (data.v0 > 0).astype(float)  # (k, *space)
        vals = noise * support[:, None]
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    gridmod.impose_pins(vals, grid, data)
    field = StateField(np.clip(vals, 0.0, 1.0), grid, spec)
    return field


def minimize(spec: SystemSpec, data: BoundaryData, grid: SpaceTimeGrid,
             eps: float, beta: float, config: OptimizerConfig | None = None,
             init: StateField | str = "competitor",
             support: np.ndarray | None = None) -> OptimizeResult:
    """Minimize the discrete functional over the constrained box.

    With ``support`` (a (k, nt, *space) boolean mask), nodes outside the
    mask are held at zero: this minimizes over fields with a prescribed
    segregated partition.
    """
    cfg = config or OptimizerConfig()
    if isinstance(init, str):
        init = default_init(spec, data, grid, mode=init, seed=cfg.seed)
    mass = node_mass(grid, spec)
    mass[:, grid.pinned(data)] = 0.0
    x0 = np.clip(init.values, 0.0, 1.0)
    if support is not None:
        mass[~support] = 0.0
        x0[~support] = 0.0
    gridmod.impose_pins(x0, grid, data)

    def value_fn(x):
        return eval_J_value(StateField(x, grid, spec), eps, beta)

    def change_fn(x, d):
        return eval_J_change(StateField(x, grid, spec), d, eps, beta)

    def grad_fn(x):
        return grad_J(StateField(x, grid, spec), eps, beta, data)

    L = curvature_estimate(grid, spec, eps, beta)
    x, info = projected_bb(x0, value_fn, grad_fn, mass, cfg, L, change_fn)
    out_field = StateField(x, grid, spec)
    return OptimizeResult(
        field=out_field,
        trace=eval_J(out_field, eps, beta),
        iters=info["iters"],
        pg_norm=info["pg_norm"],
        converged=info["converged"],
        J_history=info["J_history"],
        stop_reason=info["stop_reason"],
    )
