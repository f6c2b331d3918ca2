"""Box-projected gradient descent with Barzilai-Borwein steps.

One loop serves every minimization.  A metric P, an object with
``solve(g, out)`` (P^-1 g) and ``quadratic(d)`` (d.Pd), sets the direction
-P^-1 g and the inner product of the BB steps (Molina & Raydan, Numer.
Algorithms 13, 1996).  One rule, ``exact_metric``, picks it from the mask
of the nodes that move alone, with natural step 1 either way:

- Exactly where that mask is (t >= t0) x one product spatial set (the
  outer product of its sides on the axes) for each species, the exact
  inverse of Q + 2 sigma diag(mass) on it, ``grid.FreeBlockInverse``: Q
  the functional's kinetic and Dirichlet form, 2 sigma the median
  penalty curvature of the start (``penalty_shift``).  Q is a Kronecker
  sum there, and the fast diagonalization method inverts it exactly.
  Every penalty rung (no support) qualifies, so does a refine whose
  frozen partition is the same at every time slice (every 1-D set is a
  product; s1's 2-D parts are x-halves), and so does every stationary
  solve of ``oracle.minimize_elliptic`` (the one-slice case, K = 0).
  At the penalty rungs' minimizers fewer than 0.1% of the free entries
  sit on a bound, so a direction that knows the curvature pays: on the
  1-D desk ladder they take 8-91 iterations against 209-403 in the mass
  metric, and the s1 stationary solves 1-101 against 162-319.  A refine
  (beta 0, zero reactions) minimizes that quadratic form itself, and its
  off-diagonals are <= 0, so its first step lands on the minimizer
  inside the box: 1 iteration against 162-231 on s1.
- ``InverseMass``, P = L diag(mass), on every other mask (a partition
  that moves in time or a 2-D part that is not a product) and on an
  empty one: the node quadrature mass scaled by the curvature bound L,
  which turns the gradient into an O(1) residual density across the
  exponentially weighted mesh.

Convergence is always measured on g / mass, after removing components
blocked by active box constraints, so ``grad_tol`` means the same in
either metric.

The first trial step of an iteration follows the adaptive Barzilai-Borwein
rule ABBmin (Frassoldati, Zanghirati & Zanni, J. Ind. Manag. Optim. 4,
2008) with the self-adjusting threshold of the scaled gradient projection
method (Bonettini, Zanella & Zanni, Inverse Problems 25, 2009).  Of the two
BB steps, BB1 = s.Ps / s.y is long and BB2 = s.y / y.P^-1 y short (s the
last move, y the change of the gradient).  BB2 / BB1 is the squared cosine
of the angle between s and y in the P metric.  When it falls below a
threshold tau, the step is the least of the recent BB2 values and tau
shrinks; otherwise the step is BB1 and tau grows.  Pure BB1 steps fail the
Armijo test at first in about half of all iterations on the desk ladders,
and every rejected trial costs a value call.

Steps are accepted only on a decrease of the objective (monotone descent).
Near a minimizer the true decrease of a step can fall below the round-off
of the full objective sum -- on the exponentially weighted mesh a step
confined to late time slices changes J by far less than J's ulp -- so a
comparison of two full sums is decided by noise there.  Whenever that
comparison is within round-off, the decrease is instead taken from a
cancellation-free local difference of the objective (``change_fn``).

Array work.  At the desk mesh sizes a pass that writes a field-sized
array costs several times one that only reads: on a 2-core x86 box with a
2 MB L2, about 1.1 ns per entry against 0.2 ns for an ``np.dot``
reduction, at 87,567 entries.  So one iteration writes as few fields as it
can.  The loop owns C-ordered buffers for the iterate, the trial point,
the trial step d, g / mass and P^-1 g, and swaps them rather than
allocating.  The accepted d is the move s of the BB products.  y (raw) is
written over g / mass, which is rebuilt after the products; P^-1 g goes
into the trial buffer and P^-1 y over the old P^-1 g.  s.Ps is -t g.d for
an unclipped trial (``quadratic`` only after a clipped one).  The Armijo
product g.d is a reduction, and the KKT residual is two reductions unless
an extreme entry is blocked.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from .functional import (
    EnergyTrace, competitor_field, eval_J, eval_J_change, eval_J_value, grad_J,
)
from .grid import SpaceTimeGrid, StateField
from .model import BoundaryData, SystemSpec


@dataclass
class OptimizerConfig:
    max_iters: int = 4000
    grad_tol: float = 1e-5

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


def _kkt_norm(x: np.ndarray, gh: np.ndarray,
              out: np.ndarray | None = None) -> float:
    """Max-norm of the preconditioned gradient with the components blocked
    by active box constraints removed: a positive entry at x = 0 and a
    negative one at x = 1 would push outward, so they do not count.

    When neither the largest nor the least entry of gh is blocked, they
    bound the unblocked ones and two reductions give the norm without
    writing an array; otherwise the blocked entries are zeroed by mask
    multiplies into ``out``.  Adding 0.0 turns a result of -0.0 into 0.0.
    """
    i, j = gh.argmax(), gh.argmin()
    if x.flat[i] > 0.0 and x.flat[j] < 1.0:
        hi, lo = gh.flat[i], gh.flat[j]
    else:
        out = np.multiply(gh, x > 0.0, out=out)
        hi = out.max()
        lo = np.multiply(gh, x < 1.0, out=out).min()
    return float(max(hi, -lo)) + 0.0


def _mass_dot(mass: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sum(mass * a * b) over 1-D arrays, in one reading pass that writes
    no product array."""
    return float(np.einsum("i,i,i->", mass, a, b))


class InverseMass:
    """The metric P = L diag(mass) of ``projected_bb``: step 1 along
    P^-1 g is step 1/L along g / mass.  ``projected_bb``'s default, so
    the metric of every free set that ``exact_metric`` turns down.

    ``inv_mass`` is 1 / mass, and 0 where the mass is, so P^-1 g is 0 at
    zero-mass entries.  It is the loop's own array, shared, not copied.
    """

    def __init__(self, mass: np.ndarray, inv_mass: np.ndarray,
                 lipschitz: float):
        self.mass, self.inv_mass = np.ravel(mass), inv_mass
        self.lipschitz = lipschitz

    def solve(self, g: np.ndarray, out: np.ndarray | None = None):
        """P^-1 g, into ``out`` when given."""
        out = np.multiply(g, self.inv_mass, out=out)
        out *= 1.0 / self.lipschitz
        return out

    def quadratic(self, d: np.ndarray) -> float:
        """d . P d."""
        dd = np.ravel(d)
        return self.lipschitz * _mass_dot(self.mass, dd, dd)


#: round-off allowance on a difference of two full objective values, as a
#: fraction of the objective.  On the 1-D (nx=63, nt=201, eps down to 0.05,
#: at most 1200 iterations per rung) and 2-D (15 x 15, nt=101) desk
#: ladders, under the ABBmin trial steps (along P^-1 g on the penalty
#: rungs, g / mass on the refines, as measured before a refine on a
#: partition fixed in time took P^-1 g too), that difference is off the
#: cancellation-free change by at most 4.5e-16 |J| on the trials that
#: consult ``change_fn``, and by at most 8.6e-16 |J| on any trial that
#: changes J by less than 1e-6 |J|, so this leaves a margin of 12x-22x; a
#: larger value only consults ``change_fn`` more often
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


def projected_bb(x0, value_fn, grad_fn, mass, cfg: OptimizerConfig,
                 lipschitz: float, change_fn, precond=None):
    """Generic monotone projected-BB loop on the box [0, 1].

    value_fn(x) -> scalar, grad_fn(x) -> raw gradient, mass -> quadrature
    mass per entry (the inner product of the KKT residual), change_fn(x, d)
    -> value_fn(x + d) - value_fn(x) computed without cancellation.
    ``lipschitz`` is a curvature estimate L for the mass-preconditioned
    gradient, used for the fallback step 1/L and the default metric.

    The direction and the BB metric come from ``precond``: an object with
    ``solve(g, out)``, returning P^-1 g for a symmetric positive definite
    P, and ``quadratic(d)``, returning d.P d (``grid.FreeBlockInverse``).
    It defaults to ``InverseMass``, P = L diag(mass).  The natural step is
    1: it is the first trial and the step after a pass with s.y <= 0.

    ``x0`` must lie in the box; it is copied, never written, and every
    callback gets C-contiguous arrays.  Every trial point is ``x - s * gh``
    clipped to [0, 1], gh = P^-1 g.  Entries with zero mass get gh exactly
    0 (``precond`` must give it too), so they never move from ``x0``:
    callers hold pinned entries and nodes outside a prescribed support
    fixed by setting them in ``x0`` and giving them zero mass, not by
    projecting every trial.

    A trial point is judged on the decrease ``J_new - J``; when that
    difference of full sums is within ``ROUNDOFF_RTOL * |J|`` of the bound
    it is tested against, it cannot decide, and ``change_fn`` gives the
    decrease instead.  The first trial step is ABBmin's choice between
    BB1 and the least of the last ``ABB_MEMORY`` BB2 values (see the
    module docstring), clamped to [``MIN_STEP``, 1e6]; the threshold and
    the BB2 memory start afresh on every call.  Backtracking shrinks the
    step by ``BACKTRACK_FACTOR`` until it meets the Armijo condition
    (fraction ``ARMIJO``) on that decrease, down to ``MIN_STEP``; failing
    that, the short step 1/L along g / mass is taken only if it strictly
    decreases J by the same measure, and otherwise the loop stops.  With a
    P that is not diagonal a clipped step along P^-1 g need not descend
    (Bertsekas, SIAM J. Control Optim. 20, 1982), which this fallback
    covers.  A stop reports ``converged`` only if the KKT residual, always
    that of g / mass, is within ``grad_tol``.

    ``stop_reason`` says where the loop ended: ``"converged"`` (KKT
    residual within ``grad_tol``), ``"no_descent"`` (no step decreased J)
    or ``"max_iters"`` (the cap was reached with the residual above
    ``grad_tol``).  ``iters`` is the index of the last loop pass, so a
    capped run reports ``max_iters - 1``.
    """
    x = np.array(x0, dtype=float, order="C")
    x_new = np.empty_like(x)      # trial point; KKT terms
    d = np.empty_like(x)          # trial step x_new - x
    inv_mass = np.divide(1.0, mass, out=np.zeros(x.shape), where=mass > 0)
    if precond is None:
        precond = InverseMass(mass, inv_mass, lipschitz)

    J = value_fn(x)
    history = [J]
    g = grad_fn(x)
    # gm = g / mass gives the KKT residual and the fallback direction
    gm = g * inv_mass
    gh = precond.solve(g, np.empty_like(x))
    s_fallback = 1.0 / lipschitz
    s = 1.0
    tau = ABB_TAU0
    bb2_recent = deque(maxlen=ABB_MEMORY)
    it = 0
    for it in range(cfg.max_iters):
        pg_norm = _kkt_norm(x, gm, x_new)
        if pg_norm <= cfg.grad_tol:
            stop_reason = "converged"
            break

        s = min(max(s, MIN_STEP), 1e6)
        trial, direction = s, gh
        fallback = False
        while True:
            np.multiply(direction, -trial, out=x_new)
            x_new += x
            # s.Ps = -trial g.d holds for a trial along gh that no bound cut
            exact = not fallback and \
                x_new.min() >= 0.0 and x_new.max() <= 1.0
            np.clip(x_new, 0.0, 1.0, out=x_new)
            np.subtract(x_new, x, out=d)
            J_new = value_fn(x_new)
            # Armijo: the decrease must reach ARMIJO * g.d, with the raw
            # gradient g as d is 0 wherever the mass is; the fallback step
            # must decrease J strictly
            gd = float(np.vdot(g, d))
            bound = 0.0 if fallback else ARMIJO * gd
            dJ = J_new - J
            if abs(dJ - bound) <= ROUNDOFF_RTOL * abs(J):
                dJ = change_fn(x, d)
            accepted = dJ < 0.0 if fallback else dJ <= min(bound, 0.0)
            if accepted or fallback:
                break
            if trial <= MIN_STEP:
                # descent safeguard: short fixed step from the curvature
                trial, direction, fallback = s_fallback, gm, True
            else:
                trial *= BACKTRACK_FACTOR
        if not accepted:
            # cannot make progress; stop with the current iterate
            stop_reason = "no_descent"
            break

        x, x_new = x_new, x
        J = J_new
        history.append(J)
        # y over gm, the new gh over x_new (the old iterate) and P^-1 y
        # over the old gh; gm is rebuilt once y is used.  The move s of
        # the BB products is the accepted d
        g_new = grad_fn(x)
        y = np.subtract(g_new, g, out=gm).ravel()
        g = g_new
        precond.solve(g, x_new)
        y_hat = np.subtract(x_new, gh, out=gh).ravel()
        gh, x_new = x_new, gh
        ss = -trial * gd if exact else precond.quadratic(d)
        sy = float(np.dot(d.ravel(), y))
        yy = float(np.dot(y_hat, y))
        np.multiply(g, inv_mass, out=gm)
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
            s = 1.0
    else:
        # the cap was reached: judge the iterate of the last accepted step
        pg_norm = _kkt_norm(x, gm, x_new)
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


def penalty_shift(x0: np.ndarray, spec: SystemSpec, eps: float,
                  beta: float, held: np.ndarray) -> float:
    """sigma of a rung's preconditioner Q + 2 sigma diag(mass): the shift
    2 sigma is the median, over the entries of the start ``x0`` that
    ``held`` leaves free, of the penalty Hessian diagonal per unit mass,
    2 beta eps (A x0^2)_i; 0 at beta 0.  ``held`` masks the entries that
    do not move, in the shape of x0 (k, ...) or of one species (the pins,
    shared by all).  On the 1-D desk ladder rung (0.2, 1e4) takes 88
    iterations with it and 241 without."""
    if beta == 0.0:
        return 0.0
    h = np.tensordot(spec.A, x0 * x0, axes=1)
    h = h[~np.broadcast_to(held, h.shape)]
    return float(beta * eps * np.median(h, overwrite_input=True))


def exact_metric(grid: SpaceTimeGrid, spec: SystemSpec, eps: float,
                 beta: float, x0: np.ndarray, free: np.ndarray):
    """The metric of a minimization from ``x0`` that moves the nodes
    ``free`` marks, a (k, nt, *space) or one-slice (k, *space) mask: the
    ``grid.FreeBlockInverse``, sigma from ``penalty_shift``, when each
    species moves one spatial set at every slice from ``grid.free_rows``'
    t0 on (per-node counts tell, writing no field) and that set is a
    product (``grid.product_sides``), and None, which leaves
    ``projected_bb`` its ``InverseMass``, otherwise and for an empty set."""
    t0, F = gridmod.free_rows(grid, free)
    moves = F[:, t0:].sum(axis=1)
    if not free.any() or not np.array_equal(
            moves, (F.shape[1] - t0) * F[:, t0]) or any(
            grid.product_sides(f) is None for f in F[:, t0]):
        return None
    sigma = penalty_shift(x0, spec, eps, beta, ~free)
    return gridmod.FreeBlockInverse(grid, eps, sigma, free)


def minimize(spec: SystemSpec, data: BoundaryData, grid: SpaceTimeGrid,
             eps: float, beta: float, config: OptimizerConfig | None = None,
             init: StateField | str = "competitor",
             support: np.ndarray | None = None) -> OptimizeResult:
    """Minimize the discrete functional over the constrained box, from
    ``init`` or, for ``"competitor"``, the cold start
    ``functional.competitor_field``; the start is clipped to the box and
    the pins are imposed on it.

    With ``support`` (a (k, nt, *space) boolean mask), nodes outside the
    mask are held at zero: this minimizes over fields with a prescribed
    segregated partition.  The mask of the nodes neither pinned nor
    outside the support picks the metric (``exact_metric``); a refine on a
    partition fixed in time, at beta 0 with zero reactions, lands on its
    minimizer in one step.
    """
    cfg = config or OptimizerConfig()
    if isinstance(init, str):
        if init != "competitor":
            raise ValueError(f"unknown init {init!r}")
        init = competitor_field(data, grid, spec)
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

    # the time stencil's 8 / dt^2 plus the spatial and penalty bounds
    L = curvature_bound(grid, spec, eps, beta, 8.0 / grid.dt**2)
    free = mass > 0.0
    precond = exact_metric(grid, spec, eps, beta, x0, free)
    x, info = projected_bb(x0, value_fn, grad_fn, mass, cfg, L, change_fn,
                           precond)
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
