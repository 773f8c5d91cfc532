"""Finite-dimensional lp geometry.

Everything the greedy machinery needs from the ambient space lives here:
norms, norming (peak) functionals, the dictionary-dual norm, power-type
smoothness bounds, a Monte-Carlo estimate of the modulus of smoothness, and
the root solver for the scale equation rho(u) = theta * t * u.

Only p in (1, inf) is supported: those are the uniformly smooth cases where
the norming functional is unique and has the explicit coordinatewise form

    F_f(g) = sum_i sign(f_i) |f_i|^(p-1) g_i / ||f||_p^(p-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .dictionary import Dictionary


@dataclass(frozen=True)
class LpSpace:
    """Ambient space lp^n together with its smoothness parameters.

    ``q`` and ``gamma`` give the power-type bound rho(u) <= gamma * u^q,
    with q = min(p, 2).  ``p_conj`` = q/(q-1) is the exponent appearing in
    rate-of-convergence estimates; it is derived from ``q``, not from the
    norm exponent ``p``, and the two must never be conflated.
    """

    n: int
    p: float
    q: float
    gamma: float
    p_conj: float

    @property
    def dual_exponent(self) -> float:
        """Hoelder conjugate p/(p-1) used for dual-vector norms."""
        return self.p / (self.p - 1.0)

    def spec_string(self) -> str:
        return f"lp:p={self.p:g},n={self.n}"


def lp_space(p: float, n: int) -> LpSpace:
    """Build an LpSpace, deriving (q, gamma, p_conj) from the exponent.

    gamma = 1/p for p in (1, 2] and (p-1)/2 for p >= 2; both choices are
    validated empirically by ``empirical_modulus`` rather than trusted.
    """
    if not (1.0 < p < math.inf) or not math.isfinite(p):
        raise ValueError(f"space not uniformly smooth: p={p} must lie in (1, inf)")
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    q = min(p, 2.0)
    gamma = 1.0 / p if p <= 2.0 else (p - 1.0) / 2.0
    p_conj = q / (q - 1.0)
    return LpSpace(n=int(n), p=float(p), q=q, gamma=gamma, p_conj=p_conj)


@dataclass(frozen=True)
class Element:
    """A point of lp^n: a coordinate array tied to its space."""

    coords: np.ndarray
    space: LpSpace

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.space.n,):
            raise ValueError(
                f"dimension mismatch: got shape {c.shape}, space has n={self.space.n}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("element coordinates must be finite")
        object.__setattr__(self, "coords", c)


@dataclass(frozen=True)
class DualFunctional:
    """A dual vector; application is the coordinate dot product."""

    coords: np.ndarray
    space: LpSpace
    norm_bound: float

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.space.n,):
            raise ValueError(
                f"dimension mismatch: got shape {c.shape}, space has n={self.space.n}"
            )
        object.__setattr__(self, "coords", c)
        if self.norm_bound > 1.0 + 1e-12:
            raise ValueError(f"dual norm {self.norm_bound} exceeds 1")


# -- raw-array helpers (hot paths work on ndarrays, wrappers on Elements) --

_NORMAL_MIN = float(np.finfo(float).tiny)


def pnorm(p: float, a: np.ndarray) -> float:
    """||a||_p.  When the plain power sum is subnormal, zero or infinite (at
    large p or tiny |a|), it is formed from a / max|a| instead; otherwise
    the plain sum is used, so ordinary inputs keep their exact results."""
    s = float(np.dot(a, a)) if p == 2.0 else float(np.sum(np.abs(a) ** p))
    if _NORMAL_MIN <= s < math.inf:
        return math.sqrt(s) if p == 2.0 else s ** (1.0 / p)
    scale = float(np.max(np.abs(a), initial=0.0))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * float(np.sum((np.abs(a) / scale) ** p)) ** (1.0 / p)


def pnorm_rows(p: float, a: np.ndarray) -> np.ndarray:
    if p == 2.0:
        return np.sqrt(np.einsum("ij,ij->i", a, a))
    return np.sum(np.abs(a) ** p, axis=1) ** (1.0 / p)


def functional_coords(p: float, f: np.ndarray, f_norm: float) -> np.ndarray:
    """Coordinates of the norming functional of a nonzero f (unit dual norm)."""
    if p == 2.0:
        return f / f_norm
    unit = np.abs(f) / f_norm
    return np.sign(f) * unit ** (p - 1.0)


def dual_norm(p: float, coords: np.ndarray) -> float:
    """lq norm of a dual vector, q = p/(p-1)."""
    return pnorm(p / (p - 1.0), coords)


# -- public operations --

def norm(space: LpSpace, x: Element) -> float:
    """||x||_p = (sum |x_i|^p)^(1/p)."""
    if x.space is not space and x.space != space:
        raise ValueError("element does not belong to this space")
    return pnorm(space.p, x.coords)


def norming_functional(space: LpSpace, f: Element) -> DualFunctional:
    """The unique peak functional of f: ||F|| = 1 and F(f) = ||f||."""
    fn = norm(space, f)
    if fn == 0.0:
        raise ValueError("norming functional of zero undefined")
    coords = functional_coords(space.p, f.coords, fn)
    return DualFunctional(coords=coords, space=space,
                          norm_bound=dual_norm(space.p, coords))


def apply_functional(F: DualFunctional, g: Element) -> float:
    if F.coords.shape != g.coords.shape:
        raise ValueError("dimension mismatch between functional and element")
    return float(np.dot(F.coords, g.coords))


def dict_dual_norm(F: DualFunctional, D: "Dictionary") -> float:
    """sup over the (symmetrized) dictionary of F(g), i.e. max_i |F(g_i)|."""
    if len(D.elements) == 0:
        raise ValueError("empty dictionary")
    return float(np.max(np.abs(D.matrix @ F.coords)))


def smoothness_bound(space: LpSpace, u: float) -> float:
    """Power-type upper bound gamma * u^q for the modulus of smoothness."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    return space.gamma * u ** space.q


def _modulus_sample(space: LpSpace, n_samples: int, seed: int):
    """Unit-norm pair sample (X, Y) used to lower-estimate the modulus.

    Random pairs are augmented with deterministic near-extremal candidates:
    y = x (which witnesses rho(u) >= u - 1) and axis pairs (extremal in the
    Hilbert case).  Uniform random sampling alone only lower-bounds the sup,
    and can miss rho(2) >= 1, which the root solver's bracket relies on.
    """
    rng = np.random.default_rng(seed)
    n = space.n
    xs = rng.standard_normal((n_samples, n))
    ys = rng.standard_normal((n_samples, n))
    extras_x, extras_y = [], []
    e1 = np.zeros(n)
    e1[0] = 1.0
    extras_x.append(e1)
    extras_y.append(e1)  # y = x
    if n >= 2:
        e2 = np.zeros(n)
        e2[1] = 1.0
        extras_x.append(e1)
        extras_y.append(e2)  # axis pair
    ones = np.ones(n)
    extras_x.append(ones)
    extras_y.append(ones)
    X = np.vstack([xs] + [v[None, :] for v in extras_x])
    Y = np.vstack([ys] + [v[None, :] for v in extras_y])
    X = X / pnorm_rows(space.p, X)[:, None]
    Y = Y / pnorm_rows(space.p, Y)[:, None]
    return X, Y


def empirical_modulus(space: LpSpace, u: float, n_samples: int = 512,
                      seed: int = 0) -> float:
    """Sampled lower estimate of rho(u) = sup (||x+uy|| + ||x-uy||)/2 - 1.

    Deterministic given the seed.  Never exceeds the proven power-type bound
    (it is a sampled sup), which is exactly what the build-time validation
    of the (q, gamma) constants checks.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    X, Y = _modulus_sample(space, n_samples, seed)
    vals = (pnorm_rows(space.p, X + u * Y) + pnorm_rows(space.p, X - u * Y)) / 2.0 - 1.0
    return float(max(np.max(vals), 0.0))


def xi_root(space: LpSpace, rho_mode: str, t: float, theta: float,
            n_samples: int = 512, seed: int = 0) -> float:
    """Root u* in (0, 2] of rho(u) = theta * t * u.

    ``rho_mode`` selects the modulus: "power_bound" uses gamma * u^q,
    "empirical" uses the sampled estimate on a fixed pair sample (a max of
    convex functions vanishing at 0, so rho(u)/u is increasing and bisection
    is sound).  Existence of the root in (0, 2] follows from rho(2) >= 1 and
    theta * t <= 1/2.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError("t must lie in (0, 1]")
    if not (0.0 < theta <= 0.5):
        raise ValueError("theta must lie in (0, 1/2]")
    target = theta * t

    if rho_mode == "power_bound":
        def s(u: float) -> float:
            return space.gamma * u ** (space.q - 1.0)
    elif rho_mode == "empirical":
        X, Y = _modulus_sample(space, n_samples, seed)

        def s(u: float) -> float:
            vals = (pnorm_rows(space.p, X + u * Y)
                    + pnorm_rows(space.p, X - u * Y)) / 2.0 - 1.0
            return float(max(np.max(vals), 0.0)) / u
    else:
        raise ValueError(f"unknown rho_mode {rho_mode!r}")

    lo, hi = 1e-12, 2.0
    if s(lo) >= target:
        return lo
    if s(hi) < target:  # cannot happen with the structured sample candidates
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if s(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    return 0.5 * (lo + hi)
