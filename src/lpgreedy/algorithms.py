"""Greedy iteration engine: one-step transitions and the run driver.

Algorithm ids: wcga (full projection onto all selected atoms), wgafr (free
relaxation: the same projection onto the previous approximant and the new
atom, with a nonnegative atom coefficient), rwrga (decoupled line search +
rescale), rrxga (norm-scan selection + rescale, no weakness parameter),
wrga (convex relaxation), wdga (plain one-dimensional update), gg
(explicit step size from the space's smoothness constants, then rescale).

Every iteration records the measured quantities the diagnostics layer
audits: selection threshold values, an independently measured single-atom
error-reduction reference, the residual-approximant pairing, and grid
margins for the orthogonality-style inequalities.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .dictionary import Dictionary, Target, greedy_select
from .solvers import (_TINY, DEFAULT_SOLVER, SolverConfig, chebyshev_project,
                      dense_line_min, min_along_ray)
from .space import (DualFunctional, Element, LpSpace, dict_dual_norm,
                    functional_coords, pnorm, pnorm_rows)
from .tolerances import DEFAULT_TOLS

ALGORITHM_IDS = ("wcga", "wgafr", "rwrga", "rrxga", "wrga", "wdga", "gg")

_BJ_GRID = np.array([-1.0, -0.5, 0.1, 0.5, 1.0])
_NEG_GRID = np.array([-2.0, -1.0, -0.5, -0.1, -0.01])
# Iteration cap of the two-atom projection in ``_two_dir_solve``.  Solves
# that converge take at most about a dozen iterations; where the stationarity
# test is out of floating-point reach (near-optimal at p = 1.5 under
# prop72auto) the default cap of 500 would be spent in full.
_TWO_DIR_SOLVER = SolverConfig(max_iters=20)


@dataclass(frozen=True)
class WeaknessSchedule:
    """Per-iteration selection relaxation factors t_m in [0, 1]."""

    kind: str = "constant"  # constant | power_decay | explicit_list
    t0: float = 1.0
    exponent: float = 0.0
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("constant", "power_decay", "explicit_list"):
            raise ValueError(f"unknown weakness kind {self.kind!r}")
        if not (0.0 < self.t0 <= 1.0):
            raise ValueError("t0 must lie in (0, 1]")
        if self.exponent < 0:
            raise ValueError("decay exponent must be nonnegative")
        if self.kind == "explicit_list":
            if not self.values:
                raise ValueError("explicit_list schedule needs values")
            if any(not (0.0 <= v <= 1.0) for v in self.values):
                raise ValueError("weakness values must lie in [0, 1]")

    def value(self, m: int) -> float:
        if self.kind == "constant":
            return self.t0
        if self.kind == "power_decay":
            return self.t0 * float(m) ** (-self.exponent)
        return self.values[min(m - 1, len(self.values) - 1)]

    def as_dict(self) -> dict:
        return {"kind": self.kind, "t0": self.t0, "exponent": self.exponent,
                "values": list(self.values) if self.values else None}

    @staticmethod
    def from_dict(d: dict) -> "WeaknessSchedule":
        vals = tuple(d["values"]) if d.get("values") else None
        return WeaknessSchedule(kind=d["kind"], t0=d["t0"],
                                exponent=d["exponent"], values=vals)


@dataclass
class GreedyState:
    """Mutable per-run state: f = f_m + G_m holds throughout."""

    space: LpSpace
    f: np.ndarray
    f_m: np.ndarray
    G_m: np.ndarray
    m: int = 0
    selected: list = field(default_factory=list)
    basis: list = field(default_factory=list)   # Elements, wcga only
    coeffs: Optional[np.ndarray] = None


@dataclass
class IterationRecord:
    """Everything one greedy step produced, as measured scalars."""

    m: int
    selected_index: int
    t_m: float
    gs_lhs: float
    gs_rhs: float
    residual_norm: float
    bo_abs: float
    er_reference: float
    lam: float
    omega: Optional[float] = None
    mu: Optional[float] = None
    delta_m: float = 0.0
    delta_achieved: float = 0.0
    eta_m: float = 0.0
    eps_m: float = 0.0
    bj_margin: float = 0.0
    neg_line_margin: float = 0.0
    wall_ns: int = 0


@dataclass
class RunReport:
    """Ordered iteration records plus everything needed to audit them."""

    algorithm: str
    space_spec: str
    space_meta: dict
    dict_spec: str
    target_spec: str
    target_meta: dict
    weakness: dict
    solver: dict
    max_m: int
    stop_tol: float
    rule: str
    termination: str
    records: list
    initial_residual: float = 0.0
    warnings: list = field(default_factory=list)
    errors: Optional[dict] = None
    delta0: float = 0.0
    delta0_achieved: float = 0.0
    schema: int = 1

    def residual_norms(self) -> np.ndarray:
        return np.array([r.residual_norm for r in self.records])

    def t_values(self) -> np.ndarray:
        return np.array([r.t_m for r in self.records])

    def partial_tp_sums(self) -> np.ndarray:
        """Cumulative sums of t_k^p_conj, one entry per iteration."""
        p_conj = self.space_meta["p_conj"]
        return np.cumsum(self.t_values() ** p_conj)

    def to_json(self) -> str:
        # a shallow dict: json.dumps walks the nested dicts and lists
        # itself, so asdict's deep copy of them is not needed
        d = dict(vars(self), records=[vars(r) for r in self.records])
        return json.dumps(d, indent=1, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        """Parse a report; ``ValueError`` names what a malformed one lacks."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"report must be a JSON object, not {type(d).__name__}")
        if not isinstance(d.get("records"), list):
            raise ValueError("report has no 'records' list")
        try:
            records = [IterationRecord(**r) for r in d.pop("records")]
            return RunReport(records=records, **d)
        except TypeError as e:
            raise ValueError(f"malformed report: {e}") from e


def _functional(space: LpSpace, arr: np.ndarray, arr_norm: float) -> DualFunctional:
    coords = functional_coords(space.p, arr, arr_norm)
    return DualFunctional(coords=coords, space=space, norm_bound=1.0)


def bo_noise_floor(g_norm: float) -> float:
    """Below this residual norm the residual direction is float cancellation
    noise and the residual-approximant pairing cannot be measured; such
    remainders count as numerically exact and their defect is recorded as 0."""
    return max(DEFAULT_TOLS.zero_residual, 1e-8 * max(1.0, g_norm))


def _measured_bo(space: LpSpace, f_m: np.ndarray, r_new: float,
                 G: np.ndarray) -> float:
    if r_new <= bo_noise_floor(pnorm(space.p, G)):
        return 0.0
    F = functional_coords(space.p, f_m, r_new)
    return abs(float(np.dot(F, G)))


def _er_reference(space: LpSpace, f_prev: np.ndarray, phi: np.ndarray,
                  r_prev: float, cfg: SolverConfig) -> float:
    """Independently measured inf over lam >= 0 of ||f_prev - lam phi||,
    by the nested grid scans of ``dense_line_min`` (no ray solve)."""
    def vec(ls: np.ndarray) -> np.ndarray:
        return pnorm_rows(space.p, f_prev[None, :] - ls[:, None] * phi[None, :])
    return dense_line_min(vec, 0.0, 2.0 * r_prev, cfg=cfg)[1]


def _grid_margins(space: LpSpace, f_prev: np.ndarray, r_prev: float,
                  phi: np.ndarray, f_new: np.ndarray, r_new: float,
                  G_new: np.ndarray) -> tuple:
    """(bj_margin, neg_line_margin) over the fixed lambda grids."""
    p = space.p
    neg = float(np.min(pnorm_rows(p, f_prev - _NEG_GRID[:, None] * phi))) - r_prev
    bj = float(np.min(pnorm_rows(p, f_new - _BJ_GRID[:, None] * G_new))) - r_new
    return bj, neg


def _xgreedy_scan(space: LpSpace, f_prev: np.ndarray, D: Dictionary,
                  r_prev: float) -> tuple:
    """Best (signed atom, lam) minimizing ||f_prev - lam g|| over the scan.

    The safeguarded Newton iteration of ``min_along_ray``, run on all atoms
    at once over [-2 r, 2 r] with r = ||f_prev|| (the minimizer magnitude
    never exceeds 2 r for unit atoms).  An atom is frozen once its step or
    its bracket is below 1e-10 r; without the freeze, bisection would move
    converged atoms away from their root.  The smallest value picks the
    atom, and an exact ray solve refines its step.
    """
    p = space.p
    M = D.matrix
    N = M.shape[0]
    x = np.zeros(N)
    lo = np.full(N, -2.0 * r_prev)
    hi = np.full(N, 2.0 * r_prev)
    last = hi - lo
    tol = 1e-10 * r_prev
    active = np.arange(N)
    for _ in range(60):
        Ma, xa = M[active], x[active]
        R = f_prev[None, :] - xa[:, None] * Ma
        W = np.abs(R)
        if p < 2.0:
            np.maximum(W, _TINY, out=W)
        W **= p - 2.0
        psi = -np.einsum("ij,ij->i", R * W, Ma)
        dpsi = (p - 1.0) * np.einsum("ij,ij->i", W, Ma * Ma)
        neg = psi < 0.0
        la = np.where(neg, xa, lo[active])
        ha = np.where(neg, hi[active], xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton_step = psi / dpsi
        xn = xa - newton_step
        step = np.abs(newton_step)
        newton = (la <= xn) & (xn <= ha) & (step <= 0.5 * last[active])
        step = np.where(newton, step, 0.5 * (ha - la))
        x[active] = np.where(newton, xn, 0.5 * (la + ha))
        lo[active], hi[active], last[active] = la, ha, step
        active = active[(step > tol) & (ha - la > tol)]
        if active.size == 0:
            break
    vals = pnorm_rows(p, f_prev[None, :] - x[:, None] * M)
    i = int(np.argmin(vals))
    lam = min_along_ray(p, f_prev, M[i])
    sidx = (i + 1) if lam >= 0 else -(i + 1)
    return sidx, abs(lam)


def _rescale(space: LpSpace, f: np.ndarray, v: np.ndarray) -> tuple:
    """min over mu in R of ||f - mu v|| by the exact ray minimiser, whose
    derivative-precision stationary point keeps the residual-approximant
    pairing at machine precision as the residual shrinks.  The identity
    rescale is always admissible and wins if the solve lands above it.
    Returns (mu, mu * v, value)."""
    p = space.p
    if pnorm(p, v) <= 1e-15:
        return 1.0, v * 0.0, pnorm(p, f)
    mu = min_along_ray(p, f, v)
    val = pnorm(p, f - mu * v)
    val_id = pnorm(p, f - v)
    if val_id < val * (1.0 - 1e-12):
        mu, val = 1.0, val_id
    return mu, mu * v, val


def _two_dir_solve(space: LpSpace, f: np.ndarray, G_prev: np.ndarray,
                   phi: np.ndarray) -> tuple:
    """min over (w in R, lam >= 0) of ||f - ((1-w) G_prev + lam phi)||.

    The Chebyshev projection of f onto span{G_prev, phi}, whose
    coefficients (a, b) give w = 1 - a and lam = b.  With G_prev = 0 (the
    first step) it is the ray solve along phi with lam >= 0.  If the
    unconstrained optimum has b < 0, the constrained one lies on lam = 0 by
    convexity, and the ray solve along G_prev finds it.  The previous
    approximant, (w, lam) = (0, 0), is always admissible and is kept when
    the solve lands above it.  Returns (w, lam, value).
    """
    p = space.p
    if not G_prev.any():
        lam = min_along_ray(p, f, phi, nonneg=True)
        return 0.0, lam, pnorm(p, f - lam * phi)
    proj = chebyshev_project(space, Element(coords=f, space=space),
                             [Element(coords=G_prev, space=space),
                              Element(coords=phi, space=space)],
                             _TWO_DIR_SOLVER)
    a, b = (float(c) for c in proj.coeffs)
    r = proj.residual.coords
    if b < 0.0:
        a, b = min_along_ray(p, f, G_prev), 0.0
        r = f - a * G_prev
    value = pnorm(p, r)
    keep = pnorm(p, f - G_prev)
    if keep < value:
        return 0.0, 0.0, keep
    return 1.0 - a, b, value


def step_wcga(state: GreedyState, D: Dictionary, sidx: int,
              cfg: SolverConfig) -> dict:
    """Append the atom and project f onto the span of all selected atoms."""
    phi = D.atom(sidx)
    state.basis.append(Element(coords=phi, space=state.space))
    proj = chebyshev_project(state.space, Element(coords=state.f, space=state.space),
                             state.basis, cfg)
    state.G_m = proj.approximant.coords
    state.f_m = proj.residual.coords
    state.coeffs = proj.coeffs
    return {"lam": float(proj.coeffs[-1]), "converged": proj.converged}


def step_wgafr(state: GreedyState, D: Dictionary, sidx: int,
               cfg: SolverConfig) -> dict:
    """Best approximation from span{G_prev, phi} with lam >= 0: the
    two-atom Chebyshev projection of ``_two_dir_solve``."""
    phi = D.atom(sidx)
    w, lam, _ = _two_dir_solve(state.space, state.f, state.G_m, phi)
    state.G_m = (1.0 - w) * state.G_m + lam * phi
    state.f_m = state.f - state.G_m
    return {"lam": lam, "omega": w}


def step_rwrga(state: GreedyState, D: Dictionary, sidx: int,
               cfg: SolverConfig) -> dict:
    """Line search along the atom, then rescale the whole approximant."""
    phi = D.atom(sidx)
    f = state.f
    lam = min_along_ray(state.space.p, state.f_m, phi, nonneg=True)
    mu, G, _ = _rescale(state.space, f, state.G_m + lam * phi)
    state.G_m = G
    state.f_m = f - G
    return {"lam": lam, "mu": mu}


def step_rrxga(state: GreedyState, D: Dictionary, sidx: int, lam: float,
               cfg: SolverConfig) -> dict:
    """Rescale step for the scan-selected atom (selection happens upstream)."""
    phi = D.atom(sidx)
    mu, G, _ = _rescale(state.space, state.f, state.G_m + lam * phi)
    state.G_m = G
    state.f_m = state.f - G
    return {"lam": lam, "mu": mu}


def step_variant(state: GreedyState, D: Dictionary, sidx: int, variant: str,
                 cfg: SolverConfig, gs_value: float = 0.0) -> dict:
    """wrga / wdga / gg one-step updates."""
    phi = D.atom(sidx)
    f, p = state.f, state.space.p
    f_prev, G_prev = state.f_m, state.G_m

    if variant == "wrga":
        # f - ((1-lam) G_prev + lam phi) = f_prev - lam (phi - G_prev)
        lam = min(1.0, min_along_ray(p, f_prev, phi - G_prev, nonneg=True))
        state.G_m = (1.0 - lam) * G_prev + lam * phi
        state.f_m = f - state.G_m
        return {"lam": lam}

    if variant == "wdga":
        lam = min_along_ray(p, f_prev, phi, nonneg=True)
        state.G_m = G_prev + lam * phi
        state.f_m = f - state.G_m
        return {"lam": lam}

    if variant == "gg":
        space = state.space
        r_prev = pnorm(p, f_prev)
        mag = (abs(gs_value) / (2.0 * space.gamma * space.q)) ** (1.0 / (space.q - 1.0))
        lam = float(np.sign(gs_value)) * r_prev * mag if gs_value != 0.0 else 0.0
        mu, G, _ = _rescale(space, f, G_prev + lam * phi)
        state.G_m = G
        state.f_m = f - G
        return {"lam": lam, "mu": mu}

    raise ValueError(f"unknown variant {variant!r}")


def run_greedy(algorithm: str, f: Element, D: Dictionary, tau: WeaknessSchedule,
               cfg: SolverConfig = None, max_m: int = 100,
               stop_tol: float = 1e-12, rule: str = "exact_argmax",
               target: Optional[Target] = None) -> RunReport:
    """Iterate one algorithm until max_m, exact arrival, or a stall.

    Deterministic given the dictionary/target seeds; every record is fully
    populated with the measured per-iteration quantities.
    """
    algorithm = algorithm.lower()
    if algorithm not in ALGORITHM_IDS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    space = f.space
    if D.space != space:
        raise ValueError("target and dictionary live in different spaces")
    cfg = cfg or DEFAULT_SOLVER

    warnings: list = []
    if algorithm == "wrga" and (target is None or not target.in_hull):
        warnings.append("wrga target lacks a hull certificate; "
                        "convergence is only guaranteed on the hull")

    state = GreedyState(space=space, f=f.coords.copy(), f_m=f.coords.copy(),
                        G_m=np.zeros(space.n))
    records: list = []
    termination = "max_m"
    loop_to = max_m
    if pnorm(space.p, state.f_m) <= stop_tol:
        termination = "already exact"
        loop_to = 0

    for m in range(1, loop_to + 1):
        tick = time.perf_counter_ns()
        f_prev = state.f_m.copy()
        r_prev = pnorm(space.p, f_prev)
        F = _functional(space, f_prev, r_prev)

        if algorithm == "rrxga":
            t_m = 0.0
            sidx, lam_scan = _xgreedy_scan(space, f_prev, D, r_prev)
            phi = D.atom(sidx)
            gs_lhs = float(np.dot(F.coords, phi))
            gs_rhs = 0.0
        else:
            t_m = tau.value(m)
            dn = dict_dual_norm(F, D)
            if dn <= 1e-13:
                termination = "stalled"
                break
            sidx, gs_lhs = greedy_select(F, D, t_m, rule)
            gs_rhs = t_m * dn
            phi = D.atom(sidx)

        er_ref = _er_reference(space, f_prev, phi, r_prev, cfg)

        if algorithm == "wcga":
            info = step_wcga(state, D, sidx, cfg)
            if not info.pop("converged"):
                warnings.append(f"projection not converged at m={m}")
        elif algorithm == "wgafr":
            info = step_wgafr(state, D, sidx, cfg)
        elif algorithm == "rwrga":
            info = step_rwrga(state, D, sidx, cfg)
        elif algorithm == "rrxga":
            info = step_rrxga(state, D, sidx, lam_scan, cfg)
        else:
            info = step_variant(state, D, sidx, algorithm, cfg, gs_value=gs_lhs)

        state.selected.append(sidx)
        state.m = m
        r_new = pnorm(space.p, state.f_m)
        bo_abs = _measured_bo(space, state.f_m, r_new, state.G_m)
        bj, neg = _grid_margins(space, f_prev, r_prev, phi, state.f_m, r_new,
                                state.G_m)
        records.append(IterationRecord(
            m=m, selected_index=int(sidx), t_m=t_m, gs_lhs=gs_lhs, gs_rhs=gs_rhs,
            residual_norm=r_new, bo_abs=bo_abs, er_reference=er_ref,
            lam=float(info.get("lam", 0.0)),
            omega=info.get("omega"), mu=info.get("mu"),
            bj_margin=bj, neg_line_margin=neg,
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
        termination=termination, records=records,
        initial_residual=pnorm(space.p, f.coords), warnings=warnings)


def _target_meta(target: Optional[Target]) -> dict:
    if target is None:
        return {"in_hull": False, "eps": 0.0, "a_eps": 1.0, "certificate": None,
                "mode": "custom", "k": 0, "seed": 0}
    cert = [[i, w] for i, w in target.certificate] if target.certificate else None
    return {"in_hull": target.in_hull, "eps": target.eps, "a_eps": target.a_eps,
            "certificate": cert, "mode": target.spec.mode, "k": target.spec.k,
            "seed": target.spec.seed}
