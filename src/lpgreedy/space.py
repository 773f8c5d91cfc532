"""Finite-dimensional lp geometry.

Everything the greedy machinery needs from the ambient space lives here:
norms, norming (peak) functionals, the dictionary-dual norm, power-type
smoothness bounds, a Monte-Carlo estimate of the modulus of smoothness, and
the root solver for the scale equation rho(u) = theta * t * u.

Only p in (1, inf) is supported: those are the uniformly smooth cases where
the norming functional is unique and has the explicit coordinatewise form

    F_f(g) = sum_i sign(f_i) |f_i|^(p-1) g_i / ||f||_p^(p-1).

A functional is its ``(n,)`` coordinate array, as atoms and residuals are,
and F(g) is the dot product ``F @ g``.  ``Element`` ties a point to its
space where a target enters the library.
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


# -- raw-array helpers (hot paths work on ndarrays, wrappers on Elements) --

_NORMAL_MIN = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)
# Largest p at which the plain power sums run with numpy's overflow warnings
# on: |a|^p overflows only for |a| above 10^(308/p), which is 1e77 at p = 4
# but 2.4 at p = 800.  Above it, an overflow is expected and handled (pnorm
# and the ray solves fall back to forms scaled by max|a|), so its warning
# is switched off.
_PLAIN_P = 4.0
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce


def pnorm(p: float, a: np.ndarray) -> float:
    """||a||_p.  When the plain power sum is subnormal, zero or infinite (at
    large p or tiny |a|), it is formed from a / max|a| instead; otherwise
    the plain sum is used, so ordinary inputs keep their exact results."""
    # the ufunc reduction is called directly: it is what np.sum calls, and
    # the wrapper costs more than the sum on these small arrays
    if p == 2.0:
        s = float(np.dot(a, a))
    elif p <= _PLAIN_P:
        s = float(_sum(np.abs(a) ** p))
    else:
        with np.errstate(over="ignore"):
            s = float(_sum(np.abs(a) ** p))
    if _NORMAL_MIN <= s < math.inf:
        return math.sqrt(s) if p == 2.0 else s ** (1.0 / p)
    scale = float(np.max(np.abs(a), initial=0.0))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * float(_sum((np.abs(a) / scale) ** p)) ** (1.0 / p)


def pnorm_rows(p: float, a: np.ndarray) -> np.ndarray:
    """||a_i||_p of every row a_i, scale-safe as ``pnorm``: the plain power
    sums are kept when all of them are normal and finite (ordinary inputs
    keep their exact results); otherwise the affected rows alone are formed
    from a_i / max|a_i|."""
    # the ufunc reductions are called directly: their numpy wrappers cost
    # more than the reductions on these small arrays
    if p == 2.0:
        s = np.einsum("ij,ij->i", a, a)
        finite = _max(s, initial=0.0) < math.inf
    else:
        b = np.abs(a)
        # no power sum can overflow below this max; only above it are the
        # overflow warnings switched off, which costs as much as this test
        finite = (_max(b, axis=None, initial=0.0)
                  < (_MAX / a.shape[1]) ** (1.0 / p))
        if finite:
            s = _sum(b ** p, 1)
        else:
            with np.errstate(over="ignore"):
                s = _sum(b ** p, 1)
    out = np.sqrt(s) if p == 2.0 else s ** (1.0 / p)
    if finite and _min(s, initial=math.inf) >= _NORMAL_MIN:
        return out
    bad = np.flatnonzero(~((s >= _NORMAL_MIN) & (s < math.inf)))
    scale = np.max(np.abs(a[bad]), axis=1, initial=0.0)
    out[bad] = scale  # a zero or non-finite row, as in pnorm
    ok = (scale > 0.0) & (scale < math.inf)
    unit = np.abs(a[bad[ok]]) / scale[ok, None]
    out[bad[ok]] = scale[ok] * np.sum(unit ** p, axis=1) ** (1.0 / p)
    return out


def functional_coords(p: float, f: np.ndarray, f_norm: float) -> np.ndarray:
    """Coordinates of the norming functional of a nonzero f (unit dual norm)."""
    if p == 2.0:
        return f / f_norm
    unit = np.abs(f) / f_norm
    return np.sign(f) * unit ** (p - 1.0)


def dual_norm(p: float, coords: np.ndarray) -> float:
    """lq norm of a dual vector, q = p/(p-1)."""
    return pnorm(p / (p - 1.0), coords)


def in_dual_ball(p: float, F: np.ndarray) -> np.ndarray:
    """F itself, after checking that its dual norm is at most 1 + 1e-12."""
    dn = dual_norm(p, F)
    if dn > 1.0 + 1e-12:
        raise ValueError(f"dual norm {dn} exceeds 1")
    return F


def check_functional(F: np.ndarray, n: int) -> None:
    """Raise unless the functional F has the shape (n,) of lp^n."""
    if np.shape(F) != (n,):
        raise ValueError(f"functional must have shape ({n},), "
                         f"got {np.shape(F)}")


# -- public operations --

def norm(space: LpSpace, x: Element) -> float:
    """||x||_p = (sum |x_i|^p)^(1/p)."""
    if x.space is not space and x.space != space:
        raise ValueError("element does not belong to this space")
    return pnorm(space.p, x.coords)


def norming_functional(space: LpSpace, f: Element) -> np.ndarray:
    """The unique peak functional of f, as an ``(n,)`` array: ||F|| = 1 and
    F(f) = ||f||."""
    fn = norm(space, f)
    if fn == 0.0:
        raise ValueError("norming functional of zero undefined")
    return in_dual_ball(space.p, functional_coords(space.p, f.coords, fn))


def dict_dual_norm(F: np.ndarray, D: "Dictionary",
                   scores: np.ndarray = None) -> float:
    """sup over the (symmetrized) dictionary of F(g), i.e. max_i |F(g_i)|.

    ``F`` is an ``(n,)`` array; ``scores``, when given, is ``D.matrix @ F``,
    already computed by the caller for the selection of the same step."""
    check_functional(F, D.space.n)
    if len(D) == 0:
        raise ValueError("empty dictionary")
    if scores is None:
        scores = D.matrix @ F
    return float(np.max(np.abs(scores)))


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
    eye, ones = np.eye(n), np.ones(n)
    # (e1, e1) is the pair y = x, (e1, e2) the axis pair
    X = np.vstack([xs, eye[0], eye[0], ones] if n >= 2 else [xs, eye[0], ones])
    Y = np.vstack([ys, eye[0], eye[1], ones] if n >= 2 else [ys, eye[0], ones])
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
