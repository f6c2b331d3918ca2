"""Competition-system definitions: species matrix, reaction families, boundary data.

A system couples k >= 2 species through a symmetric penalty matrix A with
zero diagonal and positive off-diagonal entries.  Each species carries a
reaction family from a small built-in catalogue whose primitives are known
in closed form, so the admissibility conditions (monotone tails, flat
derivative at zero) hold by construction instead of being checked at
runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: nodal values below this threshold are treated as exact zeros when
#: checking / enforcing the segregation condition
SEGREGATION_TOL = 1e-14

BC_MODES = ("dirichlet_and_initial", "initial_only", "dirichlet_only")


@dataclass(frozen=True)
class ReactionFamily:
    """One reaction term f and its primitive F.

    ``zero``  : f(s) = 0,               F(s) = 0
    ``cubic`` : f(s) = lam*s^2*(1-s),   F(s) = lam*(s^3/3 - s^4/4)

    Both primitives are non-decreasing on (-inf, 0), non-increasing on
    (1, inf) and have F'(0) = 0, so truncating a field to [0, 1] never
    increases the energy.
    """

    kind: str = "zero"
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "cubic"):
            raise ValueError(f"unknown reaction family {self.kind!r}")
        if self.lam < 0:
            raise ValueError("reaction strength lam must be >= 0")

    def f(self, s, out=None):
        """f(s), written into ``out`` when given (an array of s's shape)."""
        s = np.asarray(s, dtype=float)
        if out is None:
            out = np.empty(s.shape)
        if self.kind == "zero":
            out[...] = 0.0
            return out
        # the operations of lam * s * s * (1 - s), in its order
        np.multiply(self.lam, s, out=out)
        out *= s
        out *= 1.0 - s
        return out

    def F(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(s)
        # lam * (s * s * s) * (1/3 - s/4), in its order, in two arrays
        q = np.multiply(s, s, out=np.empty(s.shape))
        q *= s
        q *= self.lam
        t = np.multiply(0.25, s, out=np.empty(s.shape))
        np.subtract(1.0 / 3.0, t, out=t)
        q *= t
        return q

    def F_change(self, s, d):
        """F(s + d) - F(s), factored through d so that it carries no
        cancellation: exactly 0 where d = 0, relatively accurate where d is
        tiny against s."""
        s = np.asarray(s, dtype=float)
        d = np.asarray(d, dtype=float)
        shape = np.broadcast_shapes(s.shape, d.shape)
        if self.kind == "zero":
            return np.zeros(shape)
        # ((s+d)^3 - s^3)/3 - ((s+d)^4 - s^4)/4, divided by d, in Horner
        # form: s^2 (1-s) + d (s (1 - 3s/2) + d (1/3 - s - d/4)), each
        # product and sum in its written order, in q and one work array t
        q, t = np.empty(shape), np.empty(shape)
        np.subtract(1.0 / 3.0, s, out=q)
        q -= np.multiply(0.25, d, out=t)
        q *= d
        np.multiply(1.5, s, out=t)
        np.subtract(1.0, t, out=t)
        t *= s
        q += t
        q *= d
        np.multiply(s, s, out=t)
        t *= 1.0 - s
        q += t
        q *= np.multiply(self.lam, d, out=t)
        return q

    @property
    def F_max(self) -> float:
        """Global maximum of F over the real line (attained at s = 1)."""
        return 0.0 if self.kind == "zero" else self.lam / 12.0

    @property
    def slope_max(self) -> float:
        """max of |f'(s)| over s in [0, 1]: |lam (2s - 3s^2)| peaks at 1."""
        return 0.0 if self.kind == "zero" else self.lam


@dataclass(frozen=True)
class SystemSpec:
    """Species count, competition matrix and per-species reactions."""

    k: int
    A: np.ndarray
    reactions: tuple[ReactionFamily, ...]

    @staticmethod
    def make(k: int, A, reactions=None) -> "SystemSpec":
        A = np.array(A, dtype=float)
        if reactions is None:
            reactions = tuple(ReactionFamily("zero") for _ in range(k))
        else:
            reactions = tuple(reactions)
        return SystemSpec(k=int(k), A=A, reactions=reactions)

    @property
    def M_bound(self) -> float:
        """2 * sum_i max F_i, the coercivity defect of the potential term."""
        return 2.0 * sum(r.F_max for r in self.reactions)

    @property
    def slope_bound(self) -> float:
        """max_i ``slope_max`` of f_i, the Lipschitz bound of f on [0, 1]."""
        return max(r.slope_max for r in self.reactions)

    @property
    def reactive(self) -> bool:
        """Whether some species has a reaction other than ``zero``; when
        none has, callers skip ``f_all``, ``F_sum`` and ``F_sum_change``,
        which would only return zeros."""
        return any(r.kind != "zero" for r in self.reactions)

    def f_all(self, values: np.ndarray) -> np.ndarray:
        """Apply f_i componentwise; values has shape (k, ...).  Each f_i is
        written into its row of one C-ordered result."""
        out = np.empty(values.shape)
        for r, v, o in zip(self.reactions, values, out):
            r.f(v, out=o)
        return out

    def F_sum(self, values: np.ndarray) -> np.ndarray:
        """sum_i F_i(v_i), pointwise over the trailing axes, species 0
        first."""
        out = self.reactions[0].F(values[0])
        for r, v in zip(self.reactions[1:], values[1:]):
            out += r.F(v)
        return out

    def F_sum_change(self, values: np.ndarray, d: np.ndarray) -> np.ndarray:
        """sum_i F_i(v_i + d_i) - F_i(v_i), pointwise, without cancellation,
        species 0 first."""
        out = self.reactions[0].F_change(values[0], d[0])
        for r, v, di in zip(self.reactions[1:], values[1:], d[1:]):
            out += r.F_change(v, di)
        return out


def validate_system(spec: SystemSpec) -> list[tuple[str, str]]:
    """Check the structural invariants of a SystemSpec.

    Returns (field, message) pairs, the field one of ``k``, ``A``,
    ``A[i][j]`` (0-based) or ``reactions``; an empty list means ok.  A
    must be exactly symmetric: the cancellation-free penalty change in
    ``functional.form_change`` relies on it.
    """
    out: list[tuple[str, str]] = []
    if spec.k < 2:
        out.append(("k", f"species count {spec.k} must be >= 2"))
    A = np.asarray(spec.A)
    if A.shape != (spec.k, spec.k):
        out.append(("A", f"shape {A.shape} != ({spec.k}, {spec.k})"))
        return out
    for i in range(spec.k):
        for j in range(spec.k):
            if i == j and A[i, j] != 0.0:
                out.append((f"A[{i}][{j}]", "diagonal entry must be zero"))
            if i != j and A[i, j] <= 0.0:
                out.append((f"A[{i}][{j}]",
                            "off-diagonal entry must be positive"))
            if j > i and A[i, j] != A[j, i]:
                out.append((f"A[{i}][{j}]", "matrix not symmetric"))
    if len(spec.reactions) != spec.k:
        out.append(("reactions",
                    f"{len(spec.reactions)} entries for k = {spec.k}"))
    return out


@dataclass(frozen=True)
class BoundaryData:
    """Initial profile v0 and the lateral trace derived from it.

    v0 has shape (k, *spatial nodes) including the boundary nodes; the
    Dirichlet trace is always the restriction of v0 to the spatial
    boundary, never supplied independently.
    """

    v0: np.ndarray
    bc_mode: str

    @staticmethod
    def make(v0, bc_mode: str = "dirichlet_and_initial") -> "BoundaryData":
        if bc_mode not in BC_MODES:
            raise ValueError(f"bc_mode must be one of {BC_MODES}, got {bc_mode!r}")
        v0 = np.array(v0, dtype=float)
        # kill float noise so segregation is exact nodewise
        v0[np.abs(v0) < SEGREGATION_TOL] = 0.0
        v0.setflags(write=False)
        return BoundaryData(v0=v0, bc_mode=bc_mode)

    @property
    def pins_initial(self) -> bool:
        return self.bc_mode in ("dirichlet_and_initial", "initial_only")

    @property
    def pins_dirichlet(self) -> bool:
        return self.bc_mode in ("dirichlet_and_initial", "dirichlet_only")


def validate_boundary(data: BoundaryData, spec: SystemSpec) -> list[str]:
    """Check bounds and pairwise segregation of the initial profile.

    Raises ValueError on a component-count mismatch; invariant violations
    are returned as data.
    """
    v0 = data.v0
    if v0.shape[0] != spec.k:
        raise ValueError(
            f"v0 has {v0.shape[0]} components but the system has k = {spec.k}"
        )
    out: list[str] = []
    if v0.min() < 0.0 or v0.max() > 1.0:
        out.append(
            f"bound 0 <= v0 <= 1 fails (range [{v0.min():.3g}, {v0.max():.3g}])"
        )
    for i in range(spec.k):
        for j in range(i + 1, spec.k):
            prod = np.abs(v0[i] * v0[j])
            if prod.max() > SEGREGATION_TOL:
                out.append(
                    f"segregation fails for components ({i+1}, {j+1}): "
                    f"max overlap {prod.max():.3g}"
                )
    return out


def preset_v0(name: str, x: np.ndarray, k: int) -> np.ndarray:
    """Built-in initial profiles.

    ``x`` is the x-coordinate field (any spatial shape, values in [0, L]);
    profiles vary along x only, which keeps them segregated in 2-D as well.
    """
    x = np.asarray(x, dtype=float)
    L = x.max()
    xi = x / L if L > 0 else x
    if name == "zero":
        return np.zeros((k,) + x.shape)
    if name == "two_ramp":
        if k != 2:
            raise ValueError("two_ramp preset requires k = 2")
        return np.stack([
            np.clip(1.0 - 2.0 * xi, 0.0, None),
            np.clip(2.0 * xi - 1.0, 0.0, None),
        ])
    if name == "k_blocks":
        # one tent per species, supported on its own block of the domain
        comps = []
        for i in range(k):
            center = (2 * i + 1) / (2 * k)
            comps.append(np.clip(1.0 - 2.0 * k * np.abs(xi - center), 0.0, None))
        return np.stack(comps)
    raise ValueError(f"unknown profile preset {name!r}")
