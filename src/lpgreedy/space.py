"""Finite-dimensional lp geometry.

Everything the greedy machinery needs from the ambient space lives here:
norms, norming (peak) functionals, the dictionary-dual norm, and the
constants (q, gamma) of the power-type bound rho(u) <= gamma * u^q on the
modulus of smoothness, which every rate and stability bound uses.

Only p in (1, inf) is supported: those are the uniformly smooth cases where
the norming functional is unique and has the explicit coordinatewise form

    F_f(g) = sum_i sign(f_i) |f_i|^(p-1) g_i / ||f||_p^(p-1).

A functional is its ``(n,)`` coordinate array, as atoms and residuals are,
and F(g) is the dot product ``F @ g``.  ``Element`` ties a point to its
space where a target enters the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .dictionary import Dictionary


@dataclass(frozen=True)
class LpSpace:
    """Ambient space lp^n, 1 < p < inf.  ``n`` and ``p`` are the only
    inputs; the constants are derived from p, so they cannot disagree.

    ``q`` = min(p, 2) and ``gamma`` (1/p for p <= 2, (p-1)/2 above) give the
    power-type bound rho(u) <= gamma * u^q; the selftest's sampled modulus
    (``lpgreedy.selftest.empirical_modulus``) is the oracle that checks both.
    ``p_conj`` = q/(q-1), the exponent of the rate estimates, is derived
    from ``q``, not from the norm exponent ``p``: never conflate the two.
    """

    n: int
    p: float
    q: float = field(init=False)
    gamma: float = field(init=False)
    p_conj: float = field(init=False)

    def __post_init__(self):
        p = self.p
        if not 1.0 < p < math.inf:  # NaN fails this test too
            raise ValueError(f"space not uniformly smooth: p={p} must lie in (1, inf)")
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        q = min(p, 2.0)
        for name, value in (("n", int(self.n)), ("p", float(p)), ("q", q),
                            ("gamma", 1.0 / p if p <= 2.0 else (p - 1.0) / 2.0),
                            ("p_conj", q / (q - 1.0))):
            object.__setattr__(self, name, value)

    def spec_string(self) -> str:
        return f"lp:p={self.p:g},n={self.n}"


def lp_space(p: float, n: int) -> LpSpace:
    """The space lp^n; ``LpSpace`` checks p and n and derives its
    constants."""
    return LpSpace(n=n, p=p)


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
    if p == 2.0:  # vdot, unlike dot, does not warn where the sum overflows
        s = float(np.vdot(a, a))
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
    if scores is None:
        scores = D.matrix @ F
    return float(np.max(np.abs(scores)))
