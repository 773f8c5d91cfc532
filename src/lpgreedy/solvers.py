"""Convex minimization along rays and over spans, used by every greedy step.

A one-dimensional greedy step minimises an lp norm along a ray,
a -> ||r - a v||, and ``min_along_ray`` solves it exactly: safeguarded
Newton on the sign of its derivative, in the bracket [0, 2 ||r|| / ||v||]
that the triangle inequality gives.  It stops when the bracket is narrower
than 1e-15 of max(1, its upper end), or where the derivative is within its
own rounding bound, so that no float point can be told nearer the root.
The Chebyshev projection is the one multi-dimensional solve.  It serves the
WCGA over all selected atoms and the free-relaxation step over two atoms,
the previous approximant and the new one.  Like ``Dictionary.matrix``, its
basis is an ``(m, n)`` array with one atom per row, and the target and the
residual are plain ``(n,)`` arrays.  It takes Newton directions from
reweighted least squares, steps along each by the exact ray minimiser, and
its stopping rule is the biorthogonality of the residual against every
atom of the basis.  Its least-squares solves go through one factor of the
basis, an orthonormal Q and a P with Phi P = Q (thin QR, or thin SVD for a
wide or rank-deficient basis), so each direction is an m x m solve (lstsq
in Q where that is singular).  The WCGA grows its factor by one atom a step.

The measured error-reduction reference takes an independent route that
shares no code with the ray minimiser: ``dense_line_min`` scans a grid of
the interval, keeps the bracket around the best point, and scans that
again, each pass one vectorised evaluation of the objective, until the
bracket is within its argument tolerance ``tol``.  It takes
one interval or an array of them: a batch of line problems shares each
pass, so the measurements of many greedy steps cost one call.

Each setting lives where it is read: the projection's iteration cap is
``chebyshev_project``'s ``max_iters`` and the grid scans' argument tolerance
is ``dense_line_min``'s ``tol``.  Their defaults and the other settings are
the module constants below; a run report records three of them, ``TOL``,
``GRAD_TOL`` and ``MAX_ITERS``, as ``solver``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .space import _NORMAL_MIN, _PLAIN_P, LpSpace, functional_coords, pnorm

# Floor on the relative residual size |r_i| / max|r| in the projection's
# weights |r|^(p-2) for p < 2, where a zero residual coordinate would give an
# infinite weight.  At the optimum one coordinate can sit near 1e-9 max|r|
# (p = 1.5), so a floor of 1e-8 distorts the direction enough to stall the
# descent; floors of 1e-10 and below converge.
_WEIGHT_FLOOR = 1e-14
# Floor on |r| in the ray solve's |r|^(p-2), p < 2: keeps the power finite
# at a zero coordinate, where sign(r) |r|^(p-1) vanishes anyway.
_TINY = 1e-300
# Cap on the Newton and bisection steps of one ray solve.  Bisection alone
# narrows the bracket [0, 2 ||r0|| / ||v||] to the 1e-15 relative tolerance
# in about 50, but where psi is rounding noise the solve stops on its
# rounding bound first: no solve of the benchmark's workloads or of the
# tests' scan rays takes more than 40 evaluations.
_RAY_ITERS = 100
# Points of each grid scan of ``dense_line_min``.  A pass narrows the
# bracket by (N_GRID - 1) / 2, and each pass scans a chunk of problems at
# once, so the cost that counts is evaluations per halving: 4.5 at 9 points,
# 8.25 at 33.
N_GRID = 9
# Smallest |diag R| / max |diag R| at which the projection's factor of its
# basis is the thin QR.  Below it the basis is numerically rank deficient
# (a repeated atom), and the factor is the thin SVD without the singular
# values below this share of the largest, whose least-squares answers are
# the minimum-norm ones of lstsq.
_QR_RCOND = 1e-10
# Default argument tolerance of dense_line_min's nested grids, relative to
# max(1, hi - lo).
TOL = 1e-8
# Default iteration cap of chebyshev_project.
MAX_ITERS = 500
# Stopping size max_k |F_r(phi_k)| of the projection's gradient.
GRAD_TOL = 1e-10


@dataclass
class ProjectionResult:
    coeffs: np.ndarray    # (m,): one coefficient per basis row
    residual: np.ndarray  # (n,): f - basis.T @ coeffs
    converged: bool
    iterations: int


# The names of the retired golden-section search.  The benchmark's layer
# trace (``bench/spans.py``) still lists them and looks each up under
# ``--trace 1``, though nothing calls them; they go when that list drops
# them (ROADMAP item 1).  Each is its own function object, because the trace
# rebinds every name bound to the object it looked up.
def _retired(name: str) -> Callable:
    def retired(*args, **kwargs):
        raise NotImplementedError(
            f"{name} is retired: use min_along_ray for a ray, "
            "chebyshev_project for a span, dense_line_min for a grid scan")
    retired.__name__ = retired.__qualname__ = name
    return retired


line_search = _retired("line_search")
bracket_minimum = _retired("bracket_minimum")
minimize_2d = _retired("minimize_2d")


def dense_line_min(objective_vec: Callable, lo, hi,
                   tol: float = TOL) -> tuple:
    """Nested grid scans; the independent line-search oracle.

    Scans ``N_GRID`` evenly spaced points of [lo, hi], keeps the bracket
    [x_(i-1), x_(i+1)] around the best one (which holds the minimiser of a
    convex objective) and scans it again, until the bracket is within
    ``tol * max(1, hi - lo)`` or stops narrowing.  Returns the best
    point ever evaluated and its value.

    With float ``lo`` and ``hi`` there is one problem, and
    ``objective_vec(xs)`` maps a grid of shape ``(N_GRID,)`` to its values.
    With ``(k,)`` arrays there are k problems, solved in one pass per scan:
    ``objective_vec(xs, rows)`` gets the grids of the unfinished problems
    ``rows`` as the rows of ``xs`` and returns their values in the same
    shape, a finished problem drops out of later passes, and the best points
    and values come back as ``(k,)`` arrays.  A grid is built as
    ``np.linspace`` builds it, so a problem's answer does not depend on the
    others solved with it.
    """
    scalar = np.ndim(lo) == 0
    if scalar:
        vec = objective_vec
        objective_vec = lambda xs, rows: vec(xs[0])[None]  # noqa: E731
    a = np.array(lo, dtype=float, ndmin=1)
    b = np.array(hi, dtype=float, ndmin=1)
    if (a > b).any():
        raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
    tol = tol * np.maximum(1.0, b - a)
    best_x, best_v = a.copy(), np.full(a.shape, np.inf)
    steps = np.arange(N_GRID, dtype=float)
    rows = np.arange(a.size)
    while rows.size:
        ra, rb = a[rows], b[rows]
        # np.linspace(a, b, N_GRID): a + i (b - a)/(N_GRID - 1), last point b
        xs = steps * ((rb - ra) / (N_GRID - 1))[:, None] + ra[:, None]
        xs[:, -1] = rb
        vs = objective_vec(xs, rows)
        k = np.arange(rows.size)
        i = np.argmin(vs, axis=1)
        better = vs[k, i] < best_v[rows]
        best_x[rows[better]] = xs[k, i][better]
        best_v[rows[better]] = vs[k, i][better]
        na = xs[k, np.maximum(i - 1, 0)]
        nb = xs[k, np.minimum(i + 1, N_GRID - 1)]
        # a bracket that stops narrowing has hit the float spacing (or a
        # grid of three points or fewer)
        go = (nb - na > tol[rows]) & (nb - na < rb - ra)
        a[rows], b[rows] = na, nb
        rows = rows[go]
    if scalar:
        return float(best_x[0]), float(best_v[0])
    return best_x, best_v


def _psi_scaled(p: float, R: np.ndarray, V: np.ndarray) -> tuple:
    """(psi, psi') of the ray solve for each row r of R, whose direction is
    the same row of V, both divided by s^(p-1) with s = max|r|: the signs
    and the Newton ratio psi/psi' stay, and no power of |r|/s exceeds 1.
    The solves call it where the plain psi' is not a normal float: at large
    p it underflows to 0 once max|r| is small (0.39^799 < 1e-326) and
    overflows once max|r| > 2.4.  A zero row gives psi = 0."""
    s = np.max(np.abs(R), axis=1)
    s[s == 0.0] = 1.0  # a zero row stays zero
    U = R / s[:, None]
    W = np.abs(U)
    if p < 2.0:
        np.maximum(W, _TINY, out=W)
    W **= p - 2.0
    return (-np.einsum("ij,ij->i", U * W, V),
            (p - 1.0) * np.einsum("ij,ij->i", W, V * V) / s)


def _psi_in_noise(p: float, r0: np.ndarray, v: np.ndarray, x: float) -> bool:
    """Whether psi(x) of the ray solve is within its rounding bound, about
    2^-53 [(p-1) sum |r|^(p-2) |v| (|r0| + |x v|) + n sum |r|^(p-1) |v|]
    with r = r0 - x v: the rounding of r carried through |r|^(p-1), plus
    that of the sum.  Both are formed over s = max|r|, as in
    ``_psi_scaled``, so no power overflows at large p.  A bound that is not
    finite (a zero coordinate for p < 2) certifies nothing."""
    r = r0 - x * v
    a = np.abs(r)
    s = float(a.max())
    a /= s
    av = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = a ** (p - 2.0)
        psi = float(np.dot(r * w, v)) / s
        bound = (p - 1.0) * float(np.dot(w * av, np.abs(r0) + x * av)) / s
        bound = 2.0 ** -53 * (bound + len(r) * float(np.dot(w * a, av)))
    return math.isfinite(bound) and abs(psi) <= bound


def min_along_ray(p: float, r0: np.ndarray, v: np.ndarray,
                  nonneg: bool = False) -> float:
    """argmin over a of ||r0 - a v||_p (over a >= 0 with ``nonneg``).

    The derivative sign of the convex map a -> ||r0 - a v|| is the sign of
    psi(a) = -sum sign(r) |r|^(p-1) v with r = r0 - a v, which increases
    with psi'(a) = (p-1) sum |r|^(p-2) v^2; p = 2 has the closed form
    (r0 . v)/(v . v).  Where psi(0) >= 0 the solve runs along -v, whose psi
    is -psi(-a) with the same psi', and negates its answer.  The minimiser
    a* then lies in [0, 2 ||r0|| / ||v||], because ||a* v|| <= ||r0 - a* v||
    + ||r0|| <= 2 ||r0||, and safeguarded Newton from a = 0 closes that
    bracket: a Newton point outside the bracket, or one that does not halve
    the previous step, is replaced by the bisection point.  The solve stops
    when the bracket is within 1e-15 max(1, hi), or where the safeguard
    rejects a Newton step no longer than a few times the first such width,
    1e-15 max(1, 2 ||r0|| / ||v||), taken from a point x whose psi is
    within its rounding bound b (``_psi_in_noise``).  The sign of psi is
    not known there, so bisection cannot find a nearer point, and x is
    returned: the exact psi(x) is within 2 b of 0, so x is within about
    2 b / psi'(x) of the root, of order 2^-53 (1 + n / (p-1)) ||r0|| / ||v||.
    A Newton step below half the tolerance says nothing about the side of
    the root it lands on: psi is rounding noise there, and for p < 2, psi'
    blows up where a residual coordinate crosses zero.  Such a step is
    pushed out to half the tolerance so that the far side gets evaluated,
    and each push that fails to cross the root doubles the next one.  A
    rejected push never stops the solve on the rounding bound.  Where the
    plain psi' is not a normal float, psi and psi' come from
    ``_psi_scaled``.  Where v . v is not a normal float either (a tiny or
    huge v), the solve runs on r0 / max|v| and v / max|v|, which has the
    same minimiser.
    """
    if p > _PLAIN_P:  # an overflowing plain sum falls back to _psi_scaled
        with np.errstate(over="ignore", invalid="ignore"):
            return _min_along_ray(p, r0, v, nonneg)
    return _min_along_ray(p, r0, v, nonneg)


def _min_along_ray(p: float, r0: np.ndarray, v: np.ndarray,
                   nonneg: bool) -> float:
    # vdot, unlike dot, does not warn where v . v overflows
    vv = float(np.vdot(v, v))
    if not _NORMAL_MIN <= vv < math.inf:
        if not v.any():
            return 0.0
        s = float(np.max(np.abs(v)))
        r0, v = r0 / s, v / s
        vv = float(np.dot(v, v))
    if p == 2.0:
        a = float(np.dot(r0, v)) / vv
        return max(0.0, a) if nonneg else a
    scale = pnorm(p, r0) / pnorm(p, v)
    if scale == 0.0:
        return 0.0
    v2 = v * v
    pm1 = p - 1.0

    def psi(a: float) -> tuple:
        """(psi(a), psi'(a)), sharing one power of |r|."""
        r = r0 - a * v
        w = np.abs(r)
        if p < 2.0:  # |r|^(p-2) is infinite at r = 0
            np.maximum(w, _TINY, out=w)
        w **= p - 2.0
        d = pm1 * float(np.dot(w, v2))
        if not _NORMAL_MIN <= d < math.inf:
            f, d = _psi_scaled(p, r[None], v[None])
            return float(f[0]), float(d[0])
        return -float(np.dot(r * w, v)), d

    fx, dx = psi(0.0)
    if nonneg and fx >= 0.0:
        return 0.0
    # psi reads v when called, so after the flip it evaluates the ray
    # along -v
    sign = 1.0
    if fx >= 0.0:
        v, fx, sign = -v, -fx, -1.0

    # ||a v|| <= ||r0 - a v|| + ||r0|| <= 2 ||r0|| at the minimiser
    x, lo, hi = 0.0, 0.0, 2.0 * scale
    last, push = hi, 0.5
    tol0 = 1e-15 * max(1.0, hi)
    for _ in range(_RAY_ITERS):
        tol = 1e-15 * max(1.0, hi)
        if hi - lo <= tol:
            break
        newton = dx > 0.0
        pushed = False
        if newton:
            step = fx / dx
            pushed = abs(step) < 0.5 * tol
            if pushed:
                step = math.copysign(push * tol, step)
            xn = x - step
            newton = lo < xn < hi and (pushed or abs(step) <= 0.5 * last)
        if not newton:
            # a rejected Newton step about as short as the width stop, from
            # a psi that is rounding noise: no bisection point can be told
            # nearer the root than x
            if (dx > 0.0 and not pushed and abs(step) <= 4.0 * tol0
                    and _psi_in_noise(p, r0, v, x)):
                return sign * x
            xn = 0.5 * (lo + hi)
            step = 0.5 * (hi - lo)
            pushed = False
        last = abs(step)
        fn, dn = psi(xn)
        if fn == 0.0:
            return sign * xn
        # a push that does not cross the root doubles the next one
        push = 2.0 * push if pushed and (fn < 0.0) == (fx < 0.0) else 0.5
        if fn < 0.0:
            lo = xn
        else:
            hi = xn
        x, fx, dx = xn, fn, dn
    return sign * (0.5 * (lo + hi))


def _factor(Phi: np.ndarray) -> tuple:
    """(Q, P) with Q an orthonormal basis of the range of Phi and Phi P = Q:
    the thin QR, P = R^-1, or, for a basis wider than the space or with a
    repeated atom, the thin SVD without the singular values below
    ``_QR_RCOND`` of the largest, P = V_k / s_k (lstsq's minimum norm)."""
    if Phi.shape[1] <= Phi.shape[0]:
        Q, R = np.linalg.qr(Phi)
        d = np.abs(np.diagonal(R))
        if d.min() > _QR_RCOND * d.max():
            return Q, np.linalg.inv(R)
    U, s, Vt = np.linalg.svd(Phi, full_matrices=False)
    k = s > _QR_RCOND * s[0]
    return U[:, k], Vt[k].T / s[k]


def _direction(p: float, r: np.ndarray, Q: np.ndarray,
               P: np.ndarray) -> np.ndarray:
    """Minimum-norm argmin_d ||sqrt(w) (Phi d - r)||_2 for the weights
    w = (|r| / max|r|)^(p-2): P y with (Q^T W Q) y = Q^T W r, or lstsq in Q
    where that Gram matrix is singular.  A Q spanning the space fits r."""
    if Q.shape[1] == len(r):
        return P @ (Q.T @ r)
    a = np.abs(r) / float(np.max(np.abs(r)))
    if p < 2.0:
        a = np.maximum(a, _WEIGHT_FLOOR)
    w = a ** (p - 2.0)
    try:
        y = np.linalg.solve((Q.T * w) @ Q, Q.T @ (w * r))
    except np.linalg.LinAlgError:
        sw = a ** ((p - 2.0) / 2.0)
        y = np.linalg.lstsq(sw[:, None] * Q, sw * r, rcond=None)[0]
    return P @ y


def chebyshev_project(space: LpSpace, f: np.ndarray, basis: np.ndarray,
                      max_iters: int = MAX_ITERS,
                      factor: tuple | None = None) -> ProjectionResult:
    """Best approximation of f from the span of the basis rows, lp norm.

    ``f`` is an ``(n,)`` array and ``basis`` an ``(m, n)`` array of atoms as
    rows, the layout of ``Dictionary.matrix``; the solves use Phi = basis.T.

    Newton descent on sum |r_i|^p from the least-squares coefficients (the
    answer at p = 2).  Each direction is the reweighted least-squares fit of
    the residual with weights |r|^(p-2), which is the Newton direction up to
    scale, and the step along it is the exact ray minimiser.  Both kinds of
    least-squares problem go through one factor (Q, P) of the basis
    (``_factor``, with its SVD route, and ``_direction``, with its lstsq
    fallback): the start is P Q^T f and each direction a k x k solve.
    ``factor``, a (Q, P) of ``basis`` as ``_factor`` gives it, saves the
    factorisation.  The gradient of ||f - sum lam_k phi_k|| in lam_k is
    -F_residual(phi_k), so the stopping rule max_k |F_r(phi_k)| <= GRAD_TOL
    is precisely residual-approximant biorthogonality.  A zero residual,
    ||r|| <= 1e-12 ||f|| (exact representation), stops immediately, since
    the norm is not differentiable there.
    """
    f = np.asarray(f, dtype=float)
    # C order makes Phi the same F-ordered view whatever layout the caller
    # passed, so the solves do not depend on it
    basis = np.ascontiguousarray(basis, dtype=float)
    if (f.shape != (space.n,) or basis.ndim != 2 or len(basis) == 0
            or basis.shape[1] != space.n):
        raise ValueError(f"need f of shape ({space.n},) and a nonempty basis of "
                         f"shape (m, {space.n}), got {f.shape} and {basis.shape}")
    if not (np.isfinite(f).all() and np.isfinite(basis).all()):
        raise ValueError("f and basis must be finite")
    p = space.p
    Phi = basis.T  # (n, m)
    Q, P = _factor(Phi) if factor is None else factor
    lam = P @ (Q.T @ f)
    r = f - Phi @ lam
    zero = 1e-12 * pnorm(p, f)
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        rn = pnorm(p, r)
        if rn <= zero:
            converged = True
            break
        g = functional_coords(p, r, rn) @ Phi
        if float(np.max(np.abs(g))) <= GRAD_TOL:
            converged = True
            break
        d = _direction(p, r, Q, P)
        v = Phi @ d
        alpha = min_along_ray(p, r, v)
        if alpha == 0.0:
            break
        lam = lam + alpha * d
        r = f - Phi @ lam
    return ProjectionResult(coeffs=lam, residual=r, converged=converged,
                            iterations=iters)
