"""Controlled-inaccuracy machinery for the approximate WBGA ids.

Three error channels: delta (inexact norming functionals), eta (relative
slack in the per-step minimizations), and the biorthogonality slack eps they
induce.  ``ErrorSchedule`` resolves delta_k, eta_m and eps_m for each step,
and ``perturbed_functional`` and ``relaxed_minimize`` apply the first two.
The greedy loop that uses them is in ``algorithms``; the exact ids run it
with ``ZERO_ERRORS``.  Functionals are perturbed adversarially, by convex
mixing with a random dual vector pushed as far as the delta budget allows,
so the theory gets exercised near its stated boundary instead of with benign
rounding noise.

Both perturbations end at a level crossing (``_level_crossing``): the
largest admissible mixing weight for delta, and the farthest admissible step
from the argmin for eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .dictionary import Dictionary, Target
from .space import (Element, LpSpace, dual_norm, functional_coords,
                    in_dual_ball, pnorm)

if TYPE_CHECKING:
    from .algorithms import RunReport, WeaknessSchedule

AWBGA_IDS = ("awcga", "awgafr", "arwrga")

# Stop tests of the level crossings: the bracket is as narrow as a 60-step
# (delta) or 50-step (eta) bisection would leave it, or an admissible point
# is within 4e-16 relative of the level (of ||f_m|| for delta, of the budget
# for eta).  The second test matters where the level sits inside the
# rounding band of ||.||, as under small online thresholds: there secant
# steps stall and the width test alone would spend its whole count.
_DELTA_REL = 2.0 ** -60
_ETA_REL = 2.0 ** -50
_ULP_REL = 4e-16


def _level_crossing(g: Callable, lo: float, hi: float, g_lo: float,
                    g_hi: float, rel: float, g_tol: float) -> float:
    """Last point seen with g <= 0, on a bracket with g(lo) <= 0 < g(hi).

    Illinois regula falsi: each step takes the secant point of the bracket
    and keeps the side it lands on; when the same end is kept twice running,
    the other end's g is halved so that a one-sided secant cannot stall.
    Stops once the bracket is ``rel`` times its first width, once a point
    with -g_tol <= g <= 0 has been seen, or once no float lies between the
    ends (far from 0, floats are coarser than 2^-60).
    """
    width = rel * (hi - lo)
    kept = 0  # +1: lo moved last, -1: hi moved last
    while hi - lo > width:
        x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # the ends are adjacent floats
                break
        gx = g(x)
        if gx <= 0.0:
            lo, g_lo = x, gx
            if gx >= -g_tol:
                break
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        else:
            hi, g_hi = x, gx
            if kept == -1:
                g_lo *= 0.5
            kept = -1
    return lo


@dataclass(frozen=True)
class SequenceSpec:
    """One error sequence: constant, power decay, explicit list, or the
    online thresholds derived from the current residual ("prop72auto")."""

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
        if self.kind == "const" and not 0.0 <= self.c <= 1.0:
            raise ValueError(f"const sequence value {self.c} must lie in [0, 1]")
        if self.kind == "pow" and (self.c < 0.0 or self.a < 0.0):
            raise ValueError("pow sequence needs c >= 0 and a >= 0")
        if self.kind == "list" and not all(0.0 <= v <= 1.0 for v in self.values):
            raise ValueError("list sequence values must lie in [0, 1]")

    def value(self, m: int, pos: int = None) -> float:
        """Scheduled value at subscript m; ``pos`` is the 0-based position
        used by list sequences (delta runs from subscript 0, eta from 1).
        Power decay is evaluated at max(m, 1) and capped at 1."""
        if self.kind == "const":
            return float(self.c)
        if self.kind == "pow":
            return min(1.0, self.c * float(max(m, 1)) ** (-self.a))
        if self.kind == "list":
            i = m if pos is None else pos
            return float(self.values[min(max(i, 0), len(self.values) - 1)])
        raise ValueError("prop72auto sequences are resolved online by the driver")

    def as_dict(self) -> dict:
        return {"kind": self.kind, "c": self.c, "a": self.a,
                "values": list(self.values) if self.values else None}

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
        return self.eta.value(m, pos=m - 1)

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
    delta) with F an ``(n,)`` array.  Mixes the exact peak functional with
    a random unit dual vector and takes the largest mixing weight s in
    [0, 1] that keeps the defining inequality.  value(s) = F_s(f_m) has a
    numerator linear in s over a convex dual norm, so {value >= target} is
    an interval starting at 0, and its right end is found by regula falsi
    on target - value(s) (stop tests at ``_DELTA_REL``).  delta = 0 returns
    the exact functional.
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
    if delta <= 0.0:
        return exact, 0.0

    rng = np.random.default_rng(seed)
    R = rng.standard_normal(space.n)
    R = R / dual_norm(p, R)
    if float(np.dot(R, f_m)) < 0.0:
        R = -R
    target = (1.0 - delta) * fn

    def mixed(s: float) -> np.ndarray:
        c = (1.0 - s) * exact + s * R
        dn = dual_norm(p, c)
        return c / dn if dn > 1e-300 else exact

    def value(s: float) -> float:
        return float(np.dot(mixed(s), f_m))

    g1 = target - value(1.0)
    if g1 <= 0.0:
        s_feasible = 1.0
    else:  # value(0) = ||f_m||, so g(0) = -delta ||f_m||
        s_feasible = _level_crossing(lambda s: target - value(s), 0.0, 1.0,
                                     -delta * fn, g1, _DELTA_REL, _ULP_REL * fn)
    F = in_dual_ball(p, mixed(s_feasible))
    return F, max(0.0, 1.0 - float(np.dot(F, f_m)) / fn)


def relaxed_minimize(objective: Callable, eta: float, exact: Callable,
                     seed: int = 0, project: Callable = None) -> tuple:
    """Solve exactly, then walk away from the argmin until half the relative
    value budget (1 + eta) is consumed.  eta = 0 degenerates to the exact
    solver; an exact minimum of 0 leaves no budget and is returned as-is.

    The step along a random direction doubles from 1e-6 until the objective
    exceeds the budget v* (1 + eta/2); the crossing inside that last
    doubling is found by regula falsi on objective - budget (stop tests at
    ``_DELTA_REL``), so the returned value is within the budget and, up to
    rounding, uses all of it.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    x_star, v_star = exact()
    if eta == 0.0 or v_star <= 1e-300:
        return x_star, v_star
    rng = np.random.default_rng(seed)
    proj = project if project is not None else (lambda x: x)
    if np.isscalar(x_star):
        base, d = float(x_star), float(rng.integers(0, 2) * 2 - 1)
    else:
        base = np.asarray(x_star, dtype=float)
        d = rng.standard_normal(base.shape)
        nd = float(np.linalg.norm(d))
        d = d / nd if nd > 0 else np.ones_like(base)

    def candidate(beta: float):
        return proj(base + beta * d)

    budget = v_star * (1.0 + 0.5 * eta)
    scale = max(1.0, float(np.max(np.abs(base))))
    beta_ok, beta = 0.0, 1e-6 * scale
    v_ok = v_star
    for _ in range(200):
        v = objective(candidate(beta))
        if v > budget:
            beta_ok = _level_crossing(
                lambda b: objective(candidate(b)) - budget, beta_ok, beta,
                v_ok - budget, v - budget, _ETA_REL, _ULP_REL * budget)
            break
        beta_ok, v_ok = beta, v
        beta *= 2.0
    x = candidate(beta_ok)
    v = objective(x)
    # numerical guard: never report below the exact minimum, nor above the
    # budget when the slack is so small that even the start point exceeds it
    if not v_star <= v <= budget:
        return x_star, v_star
    return x, v


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


def run_awbga(algorithm: str, f: Element, D: Dictionary, tau: WeaknessSchedule,
              errs: ErrorSchedule, *, max_m: int = 100,
              stop_tol: float = 1e-12, rule: str = "exact_argmax",
              target: Optional[Target] = None) -> RunReport:
    """Drive an approximate greedy run with perturbed functionals, relaxed
    minimizations, and per-iteration biorthogonality-slack accounting: the
    WBGA loop of ``algorithms`` with errors drawn from ``errs``."""
    from .algorithms import _run  # algorithms imports this module
    algorithm = algorithm.lower()
    if algorithm not in AWBGA_IDS:
        raise ValueError(f"unknown approximate algorithm {algorithm!r}")
    return _run(algorithm, f, D, tau, errs, max_m, stop_tol, rule, target)
