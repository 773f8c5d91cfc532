"""Controlled-inaccuracy machinery for approximate greedy runs.

Three error channels: delta (inexact norming functionals), eta (relative
slack in the per-step minimizations), and the biorthogonality slack eps they
induce.  Functionals are perturbed adversarially, by convex mixing with a
random dual vector pushed as far as the delta budget allows, so the theory
gets exercised near its stated boundary instead of with benign rounding
noise.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .algorithms import (IterationRecord, RunReport, WeaknessSchedule,
                         _er_reference, _rescale, _target_meta,
                         _two_dir_solve, bo_noise_floor)
from .dictionary import Dictionary, Target, greedy_select
from .solvers import (DEFAULT_SOLVER, SolverConfig, chebyshev_project,
                      min_along_ray)
from .space import (DualFunctional, Element, LpSpace, dual_norm,
                    functional_coords, norm, pnorm)
from .tolerances import DEFAULT_TOLS

AWBGA_IDS = ("awcga", "awgafr", "arwrga")


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

    def value(self, m: int, pos: int = None) -> float:
        """Scheduled value at subscript m; ``pos`` is the 0-based position
        used by list sequences (delta runs from subscript 0, eta from 1).
        Power decay is evaluated at max(m, 1)."""
        if self.kind == "const":
            return min(1.0, max(0.0, self.c))
        if self.kind == "pow":
            return min(1.0, max(0.0, self.c * float(max(m, 1)) ** (-self.a)))
        if self.kind == "list":
            i = m if pos is None else pos
            return min(1.0, max(0.0, self.values[min(max(i, 0), len(self.values) - 1)]))
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

    def as_dict(self) -> dict:
        return {"delta": self.delta.as_dict(), "eta": self.eta.as_dict(),
                "eps_mode": self.eps_mode,
                "eps_values": list(self.eps_values) if self.eps_values else None,
                "seed": self.seed}

    @staticmethod
    def from_dict(d: dict) -> "ErrorSchedule":
        vals = tuple(d["eps_values"]) if d.get("eps_values") else None
        return ErrorSchedule(delta=SequenceSpec.from_dict(d["delta"]),
                             eta=SequenceSpec.from_dict(d["eta"]),
                             eps_mode=d["eps_mode"], eps_values=vals,
                             seed=d["seed"])


ZERO_ERRORS = ErrorSchedule(delta=SequenceSpec(kind="const", c=0.0),
                            eta=SequenceSpec(kind="const", c=0.0))


@dataclass(frozen=True)
class PerturbedFunctional:
    functional: DualFunctional
    requested_delta: float
    achieved_delta: float


def perturbed_functional(space: LpSpace, f_m: Element, delta: float,
                         seed: int = 0) -> PerturbedFunctional:
    """Adversarial admissible functional: ||F|| <= 1, F(f_m) >= (1-delta)||f_m||.

    Mixes the exact peak functional with a random unit dual vector and
    bisects the mixing weight up to the largest value that keeps the defining
    inequality; delta = 0 returns the exact functional.
    """
    if not (0.0 <= delta <= 1.0):
        raise ValueError("delta must lie in [0, 1]")
    fn = norm(space, f_m)
    if fn == 0.0:
        raise ValueError("norming functional of zero undefined")
    p = space.p
    exact = functional_coords(p, f_m.coords, fn)
    if delta <= 0.0:
        return PerturbedFunctional(
            DualFunctional(coords=exact, space=space, norm_bound=1.0),
            0.0, 0.0)

    rng = np.random.default_rng(seed)
    R = rng.standard_normal(space.n)
    R = R / dual_norm(p, R)
    if float(np.dot(R, f_m.coords)) < 0.0:
        R = -R
    target = (1.0 - delta) * fn

    def mixed(s: float) -> np.ndarray:
        c = (1.0 - s) * exact + s * R
        dn = dual_norm(p, c)
        return c / dn if dn > 1e-300 else exact

    def value(s: float) -> float:
        return float(np.dot(mixed(s), f_m.coords))

    if value(1.0) >= target:
        s_feasible = 1.0
    else:
        lo, hi = 0.0, 1.0  # value(lo) >= target holds throughout
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if value(mid) >= target:
                lo = mid
            else:
                hi = mid
        s_feasible = lo
    coords = mixed(s_feasible)
    achieved = max(0.0, 1.0 - float(np.dot(coords, f_m.coords)) / fn)
    return PerturbedFunctional(
        DualFunctional(coords=coords, space=space,
                       norm_bound=dual_norm(p, coords)),
        delta, achieved)


def relaxed_minimize(objective: Callable, eta: float, exact: Callable,
                     seed: int = 0, project: Callable = None) -> tuple:
    """Solve exactly, then walk away from the argmin until half the relative
    value budget (1 + eta) is consumed.  eta = 0 degenerates to the exact
    solver; an exact minimum of 0 leaves no budget and is returned as-is.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    x_star, v_star = exact()
    if eta == 0.0 or v_star <= 1e-300:
        return x_star, v_star
    rng = np.random.default_rng(seed)
    proj = project if project is not None else (lambda x: x)
    is_scalar = np.isscalar(x_star)
    if is_scalar:
        d = float(rng.integers(0, 2) * 2 - 1)

        def candidate(beta: float):
            return proj(float(x_star) + beta * d)
    else:
        base = np.asarray(x_star, dtype=float)
        d = rng.standard_normal(base.shape)
        nd = float(np.linalg.norm(d))
        d = d / nd if nd > 0 else np.ones_like(base)

        def candidate(beta: float):
            return proj(base + beta * d)

    budget = v_star * (1.0 + 0.5 * eta)
    scale = max(1.0, float(np.max(np.abs(np.atleast_1d(np.asarray(x_star, float))))))
    beta_ok, beta = 0.0, 1e-6 * scale
    exceeded = False
    for _ in range(200):
        if objective(candidate(beta)) > budget:
            exceeded = True
            break
        beta_ok = beta
        beta *= 2.0
    if exceeded:
        lo, hi = beta_ok, beta
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if objective(candidate(mid)) > budget:
                hi = mid
            else:
                lo = mid
        beta_ok = lo
    x = candidate(beta_ok)
    v = objective(x)
    if v < v_star:  # numerical guard: never report below the exact minimum
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


def _delta_at(errs: ErrorSchedule, space: LpSpace, k: int, r_k: float,
              t_next: float) -> float:
    if errs.delta.kind == "prop72auto":
        return _auto_threshold(space, r_k, t_next)
    return errs.delta.value(k, pos=k)


def _eta_at(errs: ErrorSchedule, space: LpSpace, m: int, r_prev: float,
            t_m: float) -> float:
    if errs.eta.kind == "prop72auto":
        # the exact threshold references the post-step residual, which is not
        # known yet; half the current residual is used as a conservative proxy
        return _auto_threshold(space, 0.5 * r_prev, t_m)
    return errs.eta.value(m, pos=m - 1)


def run_awbga(algorithm: str, f: Element, D: Dictionary, tau: WeaknessSchedule,
              errs: ErrorSchedule, cfg: SolverConfig = None, max_m: int = 100,
              stop_tol: float = 1e-12, rule: str = "exact_argmax",
              target: Optional[Target] = None) -> RunReport:
    """Drive an approximate greedy run with perturbed functionals, relaxed
    minimizations, and per-iteration biorthogonality-slack accounting."""
    algorithm = algorithm.lower()
    if algorithm not in AWBGA_IDS:
        raise ValueError(f"unknown approximate algorithm {algorithm!r}")
    space = f.space
    if D.space != space:
        raise ValueError("target and dictionary live in different spaces")
    cfg = cfg or DEFAULT_SOLVER
    p = space.p
    f_arr = f.coords.copy()
    fm = f_arr.copy()
    G = np.zeros(space.n)
    basis: list = []
    records: list = []
    warnings: list = []
    termination = "max_m"
    seed0 = errs.seed

    r0 = pnorm(p, fm)
    delta0 = delta0_achieved = 0.0
    loop_to = max_m
    if r0 <= stop_tol:
        termination = "already exact"
        loop_to = 0
        Fp = None
    else:
        delta0 = _delta_at(errs, space, 0, r0, tau.value(1))
        Fp = perturbed_functional(space, Element(coords=fm, space=space),
                                  delta0, seed=seed0)
        delta0_achieved = Fp.achieved_delta

    for m in range(1, loop_to + 1):
        tick = time.perf_counter_ns()
        f_prev = fm.copy()
        r_prev = pnorm(p, f_prev)
        t_m = tau.value(m)
        dn = float(np.max(np.abs(D.matrix @ Fp.functional.coords)))
        if dn <= 1e-13:
            termination = "stalled"
            break
        sidx, gs_lhs = greedy_select(Fp.functional, D, t_m, rule)
        gs_rhs = t_m * dn
        phi = D.atom(sidx)
        er_ref = _er_reference(space, f_prev, phi, r_prev, cfg)
        eta_m = _eta_at(errs, space, m, r_prev, t_m)
        info: dict = {}

        if algorithm == "awcga":
            basis.append(Element(coords=phi, space=space))
            Phi = np.array([b.coords for b in basis]).T
            proj = chebyshev_project(space, f, basis, cfg)
            if not proj.converged:
                warnings.append(f"projection not converged at m={m}")

            def obj(c: np.ndarray) -> float:
                return pnorm(p, f_arr - Phi @ c)

            coeffs, _ = relaxed_minimize(
                obj, eta_m,
                lambda: (proj.coeffs, pnorm(p, proj.residual.coords)),
                seed=seed0 + 7919 * m + 1)
            G = Phi @ coeffs
            fm = f_arr - G
            info = {"lam": float(coeffs[-1])}
        elif algorithm == "awgafr":
            G_prev = G

            def obj2(x: np.ndarray) -> float:
                return pnorm(p, f_arr - ((1.0 - x[0]) * G_prev + x[1] * phi))

            def exact2() -> tuple:
                w, lam, v = _two_dir_solve(space, f_arr, G_prev, phi)
                return np.array([w, lam]), v

            x, _ = relaxed_minimize(
                obj2, eta_m, exact2, seed=seed0 + 7919 * m + 1,
                project=lambda x_: np.array([x_[0], max(0.0, x_[1])]))
            G = (1.0 - x[0]) * G_prev + x[1] * phi
            fm = f_arr - G
            info = {"lam": float(x[1]), "omega": float(x[0])}
        else:  # arwrga: both scalar searches get a third of the eta budget
            G_prev = G

            def obj_lam(lam: float) -> float:
                return pnorm(p, f_prev - lam * phi)

            def exact_lam() -> tuple:
                lam_ = min_along_ray(p, f_prev, phi, nonneg=True)
                return lam_, obj_lam(lam_)

            lam, _ = relaxed_minimize(obj_lam, eta_m / 3.0, exact_lam,
                                      seed=seed0 + 7919 * m + 1,
                                      project=lambda x_: max(0.0, x_))
            v = G_prev + lam * phi

            def obj_mu(mu: float) -> float:
                return pnorm(p, f_arr - mu * v)

            def exact_mu() -> tuple:
                mu_, _, val_ = _rescale(space, f_arr, v)
                return mu_, val_

            mu, _ = relaxed_minimize(obj_mu, eta_m / 3.0, exact_mu,
                                     seed=seed0 + 7919 * m + 2)
            G = mu * v
            fm = f_arr - G
            info = {"lam": float(lam), "mu": float(mu)}

        r_new = pnorm(p, fm)
        g_norm = pnorm(p, G)
        if errs.eta.kind == "prop72auto":
            exact_thr = _auto_threshold(space, r_new, t_m)
            if eta_m > exact_thr + 1e-15:
                warnings.append(f"eta threshold exceeded at m={m}")

        if r_new <= DEFAULT_TOLS.zero_residual:
            delta_m = delta_achieved = bo_abs = 0.0
        else:
            t_next = tau.value(m + 1)
            delta_m = _delta_at(errs, space, m, r_new, t_next)
            Fp = perturbed_functional(space, Element(coords=fm, space=space),
                                      delta_m, seed=seed0 + 7919 * m)
            delta_achieved = Fp.achieved_delta
            if r_new <= bo_noise_floor(g_norm):
                bo_abs = 0.0  # numerically exact arrival; defect unmeasurable
            else:
                bo_abs = abs(float(np.dot(Fp.functional.coords, G)))

        if errs.eps_mode == "derived":
            eps_m = derived_eps_bound(space, delta_m, eta_m, g_norm)
        else:
            eps_m = errs.eps_values[min(m - 1, len(errs.eps_values) - 1)]

        records.append(IterationRecord(
            m=m, selected_index=int(sidx), t_m=t_m, gs_lhs=gs_lhs,
            gs_rhs=gs_rhs, residual_norm=r_new, bo_abs=bo_abs,
            er_reference=er_ref, lam=float(info.get("lam", 0.0)),
            omega=info.get("omega"), mu=info.get("mu"),
            delta_m=delta_m, delta_achieved=delta_achieved,
            eta_m=eta_m, eps_m=eps_m,
            wall_ns=time.perf_counter_ns() - tick))
        if r_new <= stop_tol:
            termination = "stop_tol"
            break

    return RunReport(
        algorithm=algorithm,
        space_spec=space.spec_string(),
        space_meta={"n": space.n, "p": space.p, "q": space.q,
                    "gamma": space.gamma, "p_conj": space.p_conj},
        dict_spec=D.spec_string(),
        target_spec=target.spec.mode if target else "custom",
        target_meta=_target_meta(target),
        weakness=tau.as_dict(),
        solver=asdict(cfg),
        max_m=max_m, stop_tol=stop_tol, rule=rule,
        termination=termination, records=records, initial_residual=r0,
        warnings=warnings, errors=errs.as_dict(), delta0=delta0,
        delta0_achieved=delta0_achieved)
