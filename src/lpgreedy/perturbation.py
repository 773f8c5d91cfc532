"""Controlled-inaccuracy machinery for the approximate WBGA runs.

Three error channels: delta (inexact norming functionals), eta (relative
slack in the per-step minimizations), and the biorthogonality slack eps they
induce.  ``ErrorSchedule`` resolves delta_k, eta_m and eps_m for each step,
and ``perturbed_functional`` and ``relaxed_minimize`` apply the first two.
delta and eta are ``SequenceSpec``s, as is the weakness; eps may exceed 1.
The greedy loop that uses them is ``algorithms.run_greedy``: every WBGA
member takes a schedule there, and an exact run uses ``ZERO_ERRORS``.
Functionals are perturbed adversarially, by convex mixing with a random
dual vector pushed as far as the delta budget allows, so the theory gets
exercised near its stated boundary instead of with benign rounding noise.

Both perturbations end at a level crossing of a convex function on a ray
(``_ray_crossing``), from a bracket known before any evaluation: the
largest admissible mixing weight for delta, on [0, 1]; the farthest
admissible step from the argmin for eta, on [0, hi], hi the nearer of the
ray's end (where a coordinate held at >= 0 reaches 0) and the step past
which the triangle inequality puts the value over its budget.  One power
of |c| at the ray point c gives the value and its closed-form slope, so
each step takes the root of a quadratic model from the admissible end,
kept between the secant point (admissible, by convexity) and the tangent
roots (not admissible), with bisection where two steps have not halved
the bracket.  A point counts as admissible only as the caller computes
it: the achieved delta from the returned functional, the value from the
caller's residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .dictionary import Dictionary, Target
from .space import (_NORMAL_MIN, _PLAIN_P, Element, LpSpace, dual_norm,
                    functional_coords, in_dual_ball, pnorm)

if TYPE_CHECKING:
    from .algorithms import RunReport

# Stop tests of the level crossings.  A point admissible in its own
# arithmetic whose g lies within tol of the level ends the search, with tol
# 2^-48 of the level (of ||f_m|| for delta, of the budget for eta; for eta
# widened to the rounding measured in the caller's objective).  Otherwise
# the bracket stops once it is _DELTA_REL (delta) or _ETA_REL (eta) times
# its first width, or once no float lies between its ends; the halving
# safeguard makes either come within about twice as many evaluations as a
# bisection would take.
_DELTA_REL = 2.0 ** -60
_ETA_REL = 2.0 ** -50
_LEVEL_REL = 2.0 ** -48
# A backstop for a g that is not convex, where neither test need end it.
_MAX_EVALS = 150


def _norm_slope(p: float, c: np.ndarray, u: np.ndarray) -> tuple:
    """(||c||_p, d/dt ||c + t u||_p at t = 0) for c != 0, both from one
    power of |c|; formed over max|c| where the plain power sum is not a
    normal float, as in ``pnorm``."""
    a = np.abs(c)
    if p <= _PLAIN_P:
        w = a ** (p - 1.0)
        s = float(np.dot(w, a))
    else:
        with np.errstate(over="ignore"):
            w = a ** (p - 1.0)
            s = float(np.dot(w, a))
    m = 1.0
    if not _NORMAL_MIN <= s < math.inf:
        m = float(np.max(a))
        if m == 0.0:
            return 0.0, pnorm(p, u)
        w = (a / m) ** (p - 1.0)
        s = float(np.dot(w, a)) / m
    slope = float(np.dot(np.copysign(w, c), u)) / s ** (1.0 - 1.0 / p)
    return m * s ** (1.0 / p), slope


def _model_root(g: float, d: float, k: float) -> float:
    """First t > 0 where g + d t + k t^2 / 2 reaches 0, for g < 0 (inf if
    it never does)."""
    disc = d * d - 2.0 * k * g
    den = d + math.sqrt(disc) if disc >= 0.0 else -1.0
    return -2.0 * g / den if den > 0.0 else math.inf


def _ray_crossing(ev: Callable, ok: Callable, lo: float, g_lo: float,
                  d_lo: float, hi: float, g_hi: float, tol: float,
                  rel: float) -> tuple:
    """Admissible point at the level crossing of a convex g on [lo, hi].

    g(lo) = g_lo < -tol with slope d_lo there, and g(hi) = g_hi > 0.
    ``ev(x)`` returns (g(x), g'(x)); ``ok(x)`` judges a point with
    -tol <= g(x) <= 0 in its own arithmetic, and a point it rejects counts
    as past the level.

    Each step aims at g = -tol/2.  Its point is the root of the quadratic
    model at lo: value and slope there, curvature from g(hi).  Convexity
    keeps the root between the secant point of the bracket, which is
    admissible, and the tangent roots from either end, which are not.
    Where two evaluations have not halved the bracket, the next one bisects
    it.  Returns (x, g(x), accepted): the first accepted point, else lo.
    """
    aim = 0.5 * tol
    d_hi = 0.0  # the slope at hi is not known until hi moves
    widths = [math.inf, math.inf, math.inf]
    rejected = 0
    stop = rel * (hi - lo)
    for _ in range(_MAX_EVALS):
        if widths[2] > 0.5 * widths[0]:
            x = 0.5 * (lo + hi)
        else:
            glo, ghi, w = g_lo + aim, g_hi + aim, hi - lo
            upper = hi
            if d_lo > 0.0:
                upper = min(upper, lo - glo / d_lo)
            if d_hi > 0.0:
                upper = min(upper, hi - ghi / d_hi)
            x = lo + _model_root(glo, d_lo,
                                 2.0 * (ghi - glo - d_lo * w) / (w * w))
            x = min(max(x, lo - glo * w / (ghi - glo)), upper)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # the ends are adjacent floats
                break
        g, d = ev(x)
        if -tol <= g <= 0.0:
            if ok(x):
                return x, g, True
            rejected += 1
            if rejected > 2:
                break
            g = 0.0
        if g < -tol:
            lo, g_lo, d_lo = x, g, d
        else:
            hi, g_hi, d_hi = x, g, d
        widths = [widths[1], widths[2], hi - lo]
        if hi - lo <= stop:
            break
    return lo, g_lo, False


@dataclass(frozen=True)
class SequenceSpec:
    """One sequence in [0, 1]: the weakness t_m, delta_k or eta_m.  Constant,
    power decay, explicit list, or (errors only) "prop72auto", thresholds
    derived online from the current residual.  t_m and eta_m read list
    position m - 1, the default; ``delta_at`` passes pos=k, as delta_k runs
    from k = 0.  A weakness needs c in (0, 1] (``run_greedy`` checks)."""

    kind: str  # const | pow | prop72auto | list
    c: float = 0.0
    a: float = 0.0
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("const", "pow", "prop72auto", "list"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "list" and not self.values:
            raise ValueError("list sequence needs values")
        nums = (self.c, self.a) + tuple(self.values or ())
        if not all(math.isfinite(v) for v in nums):
            raise ValueError(f"{self.kind} sequence values must be finite")
        if self.kind == "pow" and (self.c < 0.0 or self.a < 0.0):
            raise ValueError("pow sequence needs c >= 0 and a >= 0")
        vals = {"const": (self.c,), "list": self.values}.get(self.kind, ())
        if not all(0.0 <= v <= 1.0 for v in vals):
            raise ValueError(f"{self.kind} sequence values must lie in [0, 1]")

    def value(self, m: int, pos: int = None) -> float:
        """Scheduled value at subscript m.  A list reads its 0-based
        position ``pos``, m - 1 by default, and holds its last value past
        its end; power decay is evaluated at max(m, 1)."""
        if self.kind == "const":
            return float(self.c)
        if self.kind == "pow":
            return min(1.0, self.c * float(max(m, 1)) ** (-self.a))
        if self.kind == "list":
            i = m - 1 if pos is None else pos
            return float(self.values[min(max(i, 0), len(self.values) - 1)])
        raise ValueError("prop72auto sequences are resolved online by the driver")

    def as_dict(self) -> dict:
        return dict(vars(self), values=list(self.values or ()) or None)

    @staticmethod
    def from_dict(d: dict) -> "SequenceSpec":
        vals = tuple(d["values"]) if d.get("values") else None
        return SequenceSpec(kind=d["kind"], c=d["c"], a=d["a"], values=vals)


@dataclass(frozen=True)
class ErrorSchedule:
    delta: SequenceSpec
    eta: SequenceSpec
    eps_mode: str = "derived"  # derived | list
    eps_values: Optional[tuple] = None
    seed: int = 0

    def __post_init__(self):
        if self.eps_mode not in ("derived", "list"):
            raise ValueError(f"unknown eps mode {self.eps_mode!r}")
        if self.eps_mode == "list" and not self.eps_values:
            raise ValueError("list eps mode needs values")
        if not all(math.isfinite(v) and v >= 0.0 for v in self.eps_values or ()):
            raise ValueError("eps list values must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError(f"error schedule seed must be nonnegative, "
                             f"got {self.seed}")

    def as_dict(self) -> dict:
        return {"delta": self.delta.as_dict(), "eta": self.eta.as_dict(),
                "eps_mode": self.eps_mode,
                "eps_values": list(self.eps_values) if self.eps_values else None,
                "seed": self.seed}

    def delta_at(self, space: LpSpace, k: int, r_k: float,
                 t_next: float) -> float:
        """delta_k for the functional of f_k, whose norm is r_k."""
        if self.delta.kind == "prop72auto":
            return _auto_threshold(space, r_k, t_next)
        return self.delta.value(k, pos=k)

    def eta_at(self, space: LpSpace, m: int, r_prev: float,
               t_m: float) -> float:
        """eta_m for step m, taken from f_{m-1}, whose norm is r_prev."""
        if self.eta.kind == "prop72auto":
            # the exact threshold references the post-step residual, which is
            # not known yet; half the current residual is a conservative proxy
            return _auto_threshold(space, 0.5 * r_prev, t_m)
        return self.eta.value(m)

    def eta_overrun(self, space: LpSpace, eta_m: float, r_new: float,
                    t_m: float) -> bool:
        """Whether an online eta_m exceeded the threshold of the residual
        the step actually reached."""
        return (self.eta.kind == "prop72auto"
                and eta_m > _auto_threshold(space, r_new, t_m) + 1e-15)

    def eps_at(self, space: LpSpace, m: int, delta_m: float, eta_m: float,
               g_norm: float) -> float:
        """Biorthogonality slack eps_m of step m."""
        if self.eps_mode == "derived":
            return derived_eps_bound(space, delta_m, eta_m, g_norm)
        return self.eps_values[min(m - 1, len(self.eps_values) - 1)]

    @staticmethod
    def from_dict(d: dict) -> "ErrorSchedule":
        """The schedule ``as_dict`` wrote; ``ValueError`` if d is not one."""
        try:
            vals = tuple(d["eps_values"]) if d.get("eps_values") else None
            if type(d["seed"]) is not int:
                raise TypeError("seed must be an integer")
            return ErrorSchedule(delta=SequenceSpec.from_dict(d["delta"]),
                                 eta=SequenceSpec.from_dict(d["eta"]),
                                 eps_mode=d["eps_mode"], eps_values=vals,
                                 seed=d["seed"])
        except (KeyError, TypeError, AttributeError, ValueError) as e:
            raise ValueError(f"malformed error schedule {d!r}: {e}") from e


ZERO_ERRORS = ErrorSchedule(delta=SequenceSpec(kind="const", c=0.0),
                            eta=SequenceSpec(kind="const", c=0.0))


def perturbed_functional(space: LpSpace, f_m: np.ndarray, delta: float,
                         seed: int = 0) -> tuple:
    """Adversarial admissible functional: ||F|| <= 1, F(f_m) >= (1-delta)||f_m||.

    ``f_m`` is the residual as an ``(n,)`` array; returns (F, achieved
    delta) with F an ``(n,)`` array.  Mixes the exact peak functional F_0
    with a random unit dual vector R, c(s) = F_0 + s (R - F_0), and takes
    F = c(s) / ||c(s)|| for the largest s in [0, 1] that keeps the defining
    inequality: the crossing of the convex
    g(s) = (1-delta)||f_m|| ||c(s)|| - c(s)(f_m), whose slope at 0 is
    delta (||f_m|| - R(f_m)) (``_ray_crossing``).  The achieved delta is
    1 - F(f_m)/||f_m|| as computed from the returned F, and never exceeds
    delta: where no admissible mixture is found, or delta lies within the
    rounding of the level, F_0 is returned with achieved delta 0, as for
    delta = 0.
    """
    if not (0.0 <= delta <= 1.0):
        raise ValueError("delta must lie in [0, 1]")
    if f_m.shape != (space.n,):
        raise ValueError(f"dimension mismatch: got shape {f_m.shape}, "
                         f"space has n={space.n}")
    p = space.p
    fn = pnorm(p, f_m)
    if fn == 0.0:
        raise ValueError("norming functional of zero undefined")
    exact = functional_coords(p, f_m, fn)
    tol = _LEVEL_REL * fn
    if delta * fn <= tol:
        return exact, 0.0

    rng = np.random.default_rng(seed)
    R = rng.standard_normal(space.n)
    R = R / dual_norm(p, R)
    Rf = float(np.dot(R, f_m))
    if Rf < 0.0:
        R, Rf = -R, -Rf
    if 1.0 - Rf / fn <= delta:
        return in_dual_ball(p, R), max(0.0, 1.0 - Rf / fn)

    q, target = p / (p - 1.0), (1.0 - delta) * fn
    D, Df = R - exact, Rf - fn
    seen = [None, None, 0.0]  # the last evaluated point: s, F, achieved delta

    def ev(s: float) -> tuple:
        c = exact + s * D
        dn, slope = _norm_slope(q, c, D)
        seen[0], seen[1] = s, c / dn
        return target * dn - (fn + s * Df), target * slope - Df

    def ok(s: float) -> bool:
        if seen[0] != s:
            ev(s)
        seen[2] = max(0.0, 1.0 - float(np.dot(seen[1], f_m)) / fn)
        return seen[2] <= delta

    # g(1) = target ||R|| - R(f_m) > 0, as ||R|| = 1 and R alone is not admissible
    s, _, accepted = _ray_crossing(ev, ok, 0.0, -delta * fn,
                                   delta * (fn - Rf), 1.0,
                                   max(target - Rf, 0.0), tol, _DELTA_REL)
    if not (accepted or (s > 0.0 and ok(s))):
        return exact, 0.0
    return in_dual_ball(p, seen[1]), seen[2]


def relaxed_minimize(p: float, residual: Callable, eta: float,
                     exact: tuple, seed: int = 0, nonneg=False) -> tuple:
    """Walk away from the exact argmin until half the relative value budget
    (1 + eta) is consumed.  eta = 0 returns the exact solve; an exact
    minimum of 0 leaves no budget and is returned as-is.

    The objective is ||residual(x)||_p for an affine ``residual``; x is a
    float or an array, ``exact`` is the exact solve (x*, v*), and ``nonneg``
    (a bool, or one per coordinate of x) marks the coordinates held at >= 0.
    The walk is one ray from x* in a random direction, up to where the
    first held coordinate reaches 0.  There the residual is r + b u with
    ||r|| = v*, so ||r + b u|| >= b ||u|| - v* lies above the budget
    v* (1 + eta/2) at b = 2 budget / ||u||, and the walk's bracket is
    [0, hi] with hi the smaller of that b and the ray's end.  The level is
    2^-48 of the budget below it, or lower by twice the rounding measured
    in ``residual`` at hi.  Where g(b) = ||r + b u||^2 - level^2 is above 0
    at hi, ``_ray_crossing`` finds where it crosses 0; otherwise the ray
    ends below the level, and its end is judged.  The returned value,
    computed by ``residual``, lies in [v*, v* (1 + eta/2)]: where no such
    point is found, as when the budget lies within that rounding of v*, x*
    itself is returned.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    x_star, v_star = exact
    if eta == 0.0 or v_star <= 1e-300:
        return x_star, v_star
    rng = np.random.default_rng(seed)
    scalar = np.isscalar(x_star)
    if scalar:
        start = np.array([float(x_star)])
        d = np.array([float(rng.integers(0, 2) * 2 - 1)])
    else:
        start = np.asarray(x_star, dtype=float)
        d = rng.standard_normal(start.shape)
        nd = float(np.linalg.norm(d))
        d = d / nd if nd > 0 else np.ones_like(start)
    held = np.asarray(nonneg, dtype=bool)
    any_held = bool(held.any())
    end = math.inf
    if any_held:  # a held coordinate at 0 stays there
        d = np.where(held & (start <= 0.0), np.maximum(d, 0.0), d)
        hit = held & (d < 0.0)
        end = float(np.min(start[hit] / -d[hit], initial=math.inf))

    def caller(x: np.ndarray):
        return float(x[0]) if scalar else x

    def point(b: float) -> np.ndarray:
        x = start + b * d
        return np.where(held, np.maximum(x, 0.0), x) if any_held else x

    def ev(b: float) -> tuple:
        h, slope = _norm_slope(p, r + b * u, u)
        return h * h - level * level, 2.0 * h * slope

    seen = [None, 0.0]  # the last point judged, and its value

    def ok(b: float) -> bool:
        seen[0] = point(b)
        seen[1] = pnorm(p, residual(caller(seen[0])))
        return v_star <= seen[1] <= budget

    budget = v_star * (1.0 + 0.5 * eta)
    r = residual(caller(start))
    u = residual(caller(start + d)) - r
    # ||r + b u|| >= b ||u|| - v* > budget past b = 2 budget / ||u||; where
    # that b is not finite, u is too small beside the budget to walk along
    un = pnorm(p, u)
    b = min(end, 2.0 * budget / un) if un > 0.0 else 0.0
    if b == math.inf:
        b = 0.0
    accepted = False
    if b > 0.0:
        noise = pnorm(p, residual(caller(point(b))) - (r + b * u))
        tol = max(_LEVEL_REL * budget, 2.0 * noise)
        level = budget - 2.0 * noise
        if v_star >= level - tol:  # the budget is within rounding of v*
            return x_star, v_star
        g_hi = ev(b)[0]
        if g_hi > 0.0:  # else the ray ends below the level, at b
            g_tol = tol * (2.0 * level - tol)
            b, _, accepted = _ray_crossing(ev, ok, 0.0,
                                           v_star * v_star - level * level,
                                           0.0, b, g_hi, g_tol, _ETA_REL)
    if accepted or ok(b):
        return caller(seen[0]), seen[1]
    return x_star, v_star


def derived_eps_bound(space: LpSpace, delta: float, eta: float,
                      g_norm: float) -> float:
    """Closed-form inf over lam > 0 of (delta + eta + 2 gamma (lam g)^q)/lam.

    Evaluates to q (q-1)^(-1/p') (delta+eta)^(1/p') (2 gamma)^(1/q) ||G||
    with p' = q/(q-1); zero when there is no error or no approximant.
    """
    c = delta + eta
    if c <= 0.0 or g_norm <= 0.0:
        return 0.0
    q, pc = space.q, space.p_conj
    return (q * (q - 1.0) ** (-1.0 / pc) * c ** (1.0 / pc)
            * (2.0 * space.gamma) ** (1.0 / q) * g_norm)


def _auto_threshold(space: LpSpace, r: float, t: float) -> float:
    """Online error budget 64^(-p') gamma^(1-p') r^p' t^p'."""
    pc = space.p_conj
    return min(1.0, 64.0 ** (-pc) * space.gamma ** (1.0 - pc) * r ** pc * t ** pc)


def run_awbga(algorithm: str, f: Element, D: Dictionary, tau: SequenceSpec,
              errs: ErrorSchedule, *, max_m: int = 100,
              stop_tol: float = 1e-12, rule: str = "exact_argmax",
              target: Optional[Target] = None) -> RunReport:
    """Alias: ``run_greedy`` of the exact id of ``algorithm``, errors=errs."""
    from .algorithms import AWBGA_IDS, run_greedy, run_id  # import cycle
    algorithm = algorithm.lower()
    if algorithm not in AWBGA_IDS:
        raise ValueError(f"unknown approximate algorithm {algorithm!r}")
    return run_greedy(run_id(algorithm)[0], f, D, tau, errors=errs,
                      max_m=max_m, stop_tol=stop_tol, rule=rule, target=target)
