"""The greedy loop of the WBGA class and the update rules of its members.

One function, ``run_greedy``, runs every algorithm id.  Each iteration
takes the norming functional of the residual f_{m-1} (perturbed by delta
for a run with errors), selects an atom by the weak greedy rule (or by
the norm scan, for rrxga) and applies the id's update rule from
``_RULES``.  A rule hands its exact solve to
``relaxed_minimize``, which with eta = 0 returns that solve unchanged, so
an exact run is the zero-error case of the approximate one.  The
functional of the new residual is computed once per step: it measures the
residual-approximant pairing and then drives the next selection.

The weakness t_m is a ``SequenceSpec``, as are delta_k and eta_m, checked
before the first step as ``RunReport.from_json`` checks a report's
``weakness``: every report a run writes can be audited.

Approximation is a run option: each WBGA member (every id but wrga and
wdga) runs under an ``ErrorSchedule`` as "a" + id.  rrxga's norm scan reads
no functional, so delta shows only in its ``gs_lhs`` and pairing; gg's step
is F(phi), so delta also sets it.  Both take eta in the rescale.

Update rules: wcga (projection onto all selected atoms, kept as the
rows of a growing ``(m, n)`` array, the layout of ``Dictionary.matrix``),
wgafr (free relaxation: the same projection onto the previous
approximant and the new atom, with a nonnegative atom coefficient),
rwrga (line search along the atom, then rescale), rrxga (norm-scan
selection, then rescale; no weakness parameter), wrga (convex relaxation),
wdga (plain one-dimensional update), gg (explicit step size from the
space's smoothness constants, then rescale).

Every iteration records the measured quantities the diagnostics layer
audits: selection threshold values, an independently measured single-atom
error-reduction reference, the residual-approximant pairing, the error
budgets, and (exact runs) grid margins for the orthogonality-style
inequalities.  The reference and the grid margins never feed the next
step, so the loop only keeps what they need (the residuals, atoms, norms
and, for the exact runs, approximants) and ``_measure`` computes them after
it: a few steps at a time, each batch one call of the nested grid scans
and two row-norm calls.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .dictionary import Dictionary, Target, greedy_select
from .perturbation import (ZERO_ERRORS, ErrorSchedule, SequenceSpec,
                           perturbed_functional, relaxed_minimize)
from .solvers import (_QR_RCOND, _TINY, GRAD_TOL, MAX_ITERS, N_GRID, TOL,
                      _psi_scaled, chebyshev_project, dense_line_min,
                      min_along_ray)
from .space import (_NORMAL_MIN, Element, LpSpace, _max, _min, dict_dual_norm,
                    lp_space, pnorm, pnorm_rows)

ALGORITHM_IDS = ("wcga", "wgafr", "rwrga", "rrxga", "wrga", "wdga", "gg")
# The names of the approximate runs, "a" + the id of a WBGA member: every id
# but wrga and wdga, whose steps promise no biorthogonality.
AWBGA_IDS = tuple("a" + a for a in ALGORITHM_IDS if a not in ("wrga", "wdga"))

_BJ_GRID = np.array([-1.0, -0.5, 0.1, 0.5, 1.0])
_NEG_GRID = np.array([-2.0, -1.0, -0.5, -0.1, -0.01])
# Below this residual norm a remainder counts as exactly 0.
_ZERO_RESIDUAL = 1e-12
# Largest temporary of the measurement pass, in float64 values (128 KB):
# it measures as many steps at once as keep their grid scans within it.
_MEASURE_VALUES = 16384


# Each SequenceSpec kind a weakness may take, named as a schema-1 report's
# ``weakness`` dict names it.
_WEAKNESS_NAMES = {"const": "constant", "pow": "power_decay",
                   "list": "explicit_list"}


def WeaknessSchedule(kind: str = "constant", t0: float = 1.0,
                     exponent: float = 0.0,
                     values: Optional[tuple] = None) -> SequenceSpec:
    """The weakness t_m from the fields of a report's ``weakness`` dict:
    ``constant`` t0, ``power_decay`` t0 m^-exponent or an ``explicit_list``
    of values, with t0 in (0, 1] and a finite exponent >= 0.  It is also
    the weakness check of ``run_greedy`` and ``RunReport.from_json``; the
    name stays for the callers, the benchmark among them, that use it."""
    seq_kind = [k for k, name in _WEAKNESS_NAMES.items() if name == kind]
    if not seq_kind:
        raise ValueError(f"unknown weakness kind {kind!r}")
    if not (0.0 < t0 <= 1.0):
        raise ValueError("t0 must lie in (0, 1]")
    if not (math.isfinite(exponent) and exponent >= 0):
        raise ValueError(f"decay exponent must be finite and nonnegative, "
                         f"got {exponent}")
    return SequenceSpec(seq_kind[0], c=t0, a=exponent,
                        values=tuple(values) if values else None)


@dataclass
class GreedyState:
    """Mutable per-run state: f = f_m + G_m holds throughout."""

    space: LpSpace
    f: np.ndarray
    f_m: np.ndarray
    G_m: np.ndarray
    basis: np.ndarray  # (m, n), the selected atoms as rows (wcga only)
    # (Q, P) of basis.T from its thin QR, as ``solvers._factor`` gives it,
    # grown one atom per step (wcga only); None once the basis needs the
    # SVD route, which chebyshev_project then takes afresh each step
    factor: Optional[tuple]

    def update(self, G: np.ndarray) -> None:
        self.G_m = G
        self.f_m = self.f - G


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


def _check_contiguous(records: list) -> None:
    """Every audit reads the records as the steps m = 1..M."""
    if any(r.m != i + 1 for i, r in enumerate(records)):
        raise ValueError("incomplete report: records must be contiguous from m=1")


def _check_certificate(target_meta: dict) -> None:
    """The error-reduction certificate and the eps bounds need A(eps) >= eps."""
    if target_meta["a_eps"] < target_meta["eps"]:
        raise ValueError("certificate requires A(eps) >= eps")


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
        # the fields the audit and the rate bounds read
        for name, keys in (("space_meta", ("n", "p", "q", "gamma", "p_conj")),
                           ("weakness", ("kind", "t0")),
                           ("target_meta", ("eps", "a_eps"))):
            sub = d.get(name)
            bad = [k for k in keys if not isinstance(sub, dict) or not
                   isinstance(sub.get(k), str if k == "kind" else (int, float))]
            if bad:
                raise ValueError(f"report field {name!r} lacks {bad}")
        _check_certificate(d["target_meta"])
        sm = d["space_meta"]
        space = lp_space(sm["p"], sm["n"])
        if sm != vars(space):
            raise ValueError(f"report field 'space_meta' {sm} differs from "
                             f"the constants of {space.spec_string()}")
        try:
            WeaknessSchedule(**d["weakness"])
        except (TypeError, ValueError) as e:
            raise ValueError(f"malformed weakness schedule {d['weakness']!r}: "
                             f"{e}") from e
        if d.get("errors") is not None:
            ErrorSchedule.from_dict(d["errors"])
        # an approximate name with its schedule, an exact one without
        approximate = run_id(d.get("algorithm"))[1]
        if approximate != (d.get("errors") is not None):
            raise ValueError(f"report of {d['algorithm']!r} "
                             f"{'lacks' if approximate else 'has'} errors")
        try:
            records = [IterationRecord(**r) for r in d.pop("records")]
            report = RunReport(records=records, **d)
        except TypeError as e:
            raise ValueError(f"malformed report: {e}") from e
        odd = [f.name for f in fields(RunReport) if f.type in ("int", "float")
               and type(getattr(report, f.name)) not in (int, float)]
        if odd:
            raise ValueError(f"report field(s) {odd} are not numbers")
        # one set of types per field over all records, which costs about
        # half as much as checking value by value
        columns = zip(*(vars(r).values() for r in records))
        for f, column in zip(fields(IterationRecord), columns):
            odd = set(map(type, column)) - {int, float}
            if f.name in ("omega", "mu"):
                odd.discard(type(None))
            if odd:
                raise ValueError(f"record field {f.name!r} is not a number "
                                 f"in every record")
        _check_contiguous(records)
        return report


def _functional(space: LpSpace, errs: ErrorSchedule, k: int, f_k: np.ndarray,
                r_k: float, t_next: float) -> tuple:
    """(F, delta_k, achieved delta) for the residual f_k of norm r_k: its
    norming functional, perturbed by the schedule's delta_k (exact at 0)."""
    delta = errs.delta_at(space, k, r_k, t_next)
    F, achieved = perturbed_functional(space, f_k, delta,
                                       seed=errs.seed + 7919 * k)
    return F, delta, achieved


def _measured_bo(F: np.ndarray, r_new: float, G: np.ndarray,
                 g_norm: float) -> float:
    """|F(G)| for the functional F of the residual, whose norm is r_new; 0
    below the noise floor max(zero_residual, 1e-8 max(1, ||G||)), where the
    residual direction is float cancellation noise and the pairing cannot be
    measured (such remainders count as numerically exact)."""
    if r_new <= max(_ZERO_RESIDUAL, 1e-8 * max(1.0, g_norm)):
        return 0.0
    return abs(float(np.dot(F, G)))


def _er_reference(space: LpSpace, f_prev: np.ndarray, phi: np.ndarray,
                  r_prev: np.ndarray) -> np.ndarray:
    """Independently measured inf over lam >= 0 of ||f_prev - lam phi|| for
    each row of the ``(k, n)`` arrays f_prev and phi, with r_prev the norms
    of f_prev: one batch of nested grid scans over [0, 2 r_prev] by
    ``dense_line_min`` (no ray solve)."""
    n = space.n

    def vec(ls: np.ndarray, rows: np.ndarray) -> np.ndarray:
        R = f_prev[rows, None, :] - ls[:, :, None] * phi[rows, None, :]
        return pnorm_rows(space.p, R.reshape(-1, n)).reshape(ls.shape)
    return dense_line_min(vec, np.zeros(len(r_prev)), 2.0 * r_prev)[1]


def _grid_margins(space: LpSpace, f_prev: np.ndarray, r_prev: np.ndarray,
                  phi: np.ndarray, f_new: np.ndarray, r_new: np.ndarray,
                  G_new: np.ndarray) -> tuple:
    """(bj_margin, neg_line_margin) over the fixed lambda grids, one entry
    per row of the ``(k, n)`` arrays, each grid in one ``pnorm_rows`` call."""
    p, n = space.p, space.n

    def least(f: np.ndarray, grid: np.ndarray, v: np.ndarray) -> np.ndarray:
        R = f[:, None, :] - grid[None, :, None] * v[:, None, :]
        return pnorm_rows(p, R.reshape(-1, n)).reshape(len(f), -1).min(axis=1)
    return (least(f_new, _BJ_GRID, G_new) - r_new,
            least(f_prev, _NEG_GRID, phi) - r_prev)


def _chunk_steps(n: int) -> int:
    """Steps measured together: their scans of dense_line_min's grids of
    ``N_GRID`` points, (steps * N_GRID, n) values, stay within
    ``_MEASURE_VALUES``."""
    return max(1, _MEASURE_VALUES // (N_GRID * n))


def _measure(space: LpSpace, f_traj: list, phis: list, norms: list,
             G_traj: Optional[list]) -> tuple:
    """(er_reference, bj_margin, neg_line_margin) lists, one entry per step,
    from the residuals f_0..f_M, the atoms phi_1..phi_M, the norms r_0..r_M
    and, for the grid margins, the approximants G_1..G_M (None: margins 0).
    Steps are measured in chunks of ``_chunk_steps``."""
    steps = len(phis)
    er, bj, neg = [], [0.0] * steps, [0.0] * steps
    chunk = _chunk_steps(space.n)
    for s in range(0, steps, chunk):
        e = min(s + chunk, steps)
        f_prev, phi = np.array(f_traj[s:e]), np.array(phis[s:e])
        r_prev = np.array(norms[s:e])
        er += _er_reference(space, f_prev, phi, r_prev).tolist()
        if G_traj is not None:
            bj_s, neg_s = _grid_margins(
                space, f_prev, r_prev, phi, np.array(f_traj[s + 1:e + 1]),
                np.array(norms[s + 1:e + 1]), np.array(G_traj[s:e]))
            bj[s:e], neg[s:e] = bj_s.tolist(), neg_s.tolist()
    return er, bj, neg


def _xgreedy_scan(space: LpSpace, f_prev: np.ndarray, D: Dictionary,
                  r_prev: float) -> tuple:
    """Best (signed atom, lam) minimizing ||f_prev - lam g|| over the scan.

    A safeguarded Newton iteration run on all atoms at once, two-sided over
    [-2 r, 2 r] with r = ||f_prev||: the minimiser lam* of a unit atom g
    obeys |lam*| = ||lam* g|| <= ||f_prev - lam* g|| + r <= 2 r, and
    ``Dictionary`` rejects atoms that are not unit.  A Newton point outside
    an atom's bracket, or one that does not halve its previous step, is
    replaced by the bisection point.  An atom is frozen once its step or
    its bracket is below 1e-10 r; without the freeze, bisection would move
    converged atoms away from their root.  The scan only ranks the atoms,
    so it shares with ``min_along_ray`` no more than that triangle
    inequality bound: it does not flip to one side, push short steps or
    stop on psi rounding noise.  Rows whose plain psi' is not a normal
    float take psi and psi' from ``_psi_scaled``.  The smallest value picks
    the atom, and an exact ray solve refines its step.
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
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            W **= p - 2.0
            psi = -np.einsum("ij,ij->i", R * W, Ma)
            dpsi = (p - 1.0) * np.einsum("ij,ij->i", W, Ma * Ma)
            if not (_NORMAL_MIN <= _min(dpsi) and _max(dpsi) < math.inf):
                bad = ~((dpsi >= _NORMAL_MIN) & (dpsi < math.inf))
                psi[bad], dpsi[bad] = _psi_scaled(p, R[bad], Ma[bad])
            newton_step = psi / dpsi
        neg = psi < 0.0
        la = np.where(neg, xa, lo[active])
        ha = np.where(neg, hi[active], xa)
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
    rescale is always admissible and wins if the solve lands above it.  A
    numerically zero v is dropped (mu = 0).  Returns (mu, value)."""
    p = space.p
    if pnorm(p, v) <= 1e-15:
        return 0.0, pnorm(p, f)
    mu = min_along_ray(p, f, v)
    val = pnorm(p, f - mu * v)
    val_id = pnorm(p, f - v)
    if val_id < val * (1.0 - 1e-12):
        mu, val = 1.0, val_id
    return mu, val


def _two_dir_solve(space: LpSpace, f: np.ndarray, G_prev: np.ndarray,
                   phi: np.ndarray) -> tuple:
    """min over (w in R, lam >= 0) of ||f - ((1-w) G_prev + lam phi)||.

    The Chebyshev projection of f onto span{G_prev, phi}, whose
    coefficients (a, b) give w = 1 - a and lam = b.  With G_prev = 0 (the
    first step) it is the ray solve along phi with lam >= 0.  If the
    unconstrained optimum has b < 0, the constrained one lies on lam = 0 by
    convexity, and the ray solve along G_prev finds it.  The previous
    approximant, (w, lam) = (0, 0), is always admissible and is kept when
    the solve lands above it.  Returns (array [w, lam], value, converged),
    converged being false when the projection hit its cap.
    """
    p = space.p
    if not G_prev.any():
        lam = min_along_ray(p, f, phi, nonneg=True)
        return np.array([0.0, lam]), pnorm(p, f - lam * phi), True
    # A cap of 20 iterations: solves that converge take at most about a
    # dozen; where the stationarity test is out of floating-point reach
    # (near-optimal at p = 1.5 under prop72auto) the default cap of 500
    # would be spent in full.
    proj = chebyshev_project(space, f, np.array([G_prev, phi]), 20)
    a, b = (float(c) for c in proj.coeffs)
    r = proj.residual
    if b < 0.0:
        a, b = min_along_ray(p, f, G_prev), 0.0
        r = f - a * G_prev
    value = pnorm(p, r)
    keep = pnorm(p, f - G_prev)
    if keep < value:
        return np.array([0.0, 0.0]), keep, proj.converged
    return np.array([1.0 - a, b]), value, proj.converged


def _grown_factor(factor: tuple, phi: np.ndarray) -> Optional[tuple]:
    """The thin-QR ``factor`` (Q, P) of a basis with the atom phi appended:
    two passes of classical Gram-Schmidt give u = phi - Q h, and Q gains
    u / rho, rho = ||u||, and P the column [-P h; 1] / rho.  None where the
    basis needs ``_factor``'s SVD route: more atoms than coordinates, or
    rho <= ``_QR_RCOND`` max|diag R|, where diag R = 1 / diag P."""
    Q, P = factor
    n, k = Q.shape
    h, u = np.zeros(k), phi
    for _ in range(2):
        c = Q.T @ u
        u, h = u - Q @ c, h + c
    rho = float(np.linalg.norm(u))
    if k == n or k and rho <= _QR_RCOND / np.min(np.abs(np.diagonal(P))):
        return None
    grown = np.zeros((k + 1, k + 1))
    grown[:k, :k] = P
    grown[:, k] = np.append(-(P @ h), 1.0) / rho
    return np.column_stack((Q, u / rho)), grown


def _wcga(st: GreedyState, phi: np.ndarray, hint: float, eta: float,
          seed: int) -> dict:
    """Append the atom and project f onto the span of all selected atoms."""
    space, f = st.space, st.f
    st.basis = np.vstack((st.basis, phi))
    Phi = st.basis.T
    if st.factor is not None:
        st.factor = _grown_factor(st.factor, phi)
    proj = chebyshev_project(space, f, st.basis, factor=st.factor)
    c, _ = relaxed_minimize(
        space.p, lambda c: f - Phi @ c, eta,
        (proj.coeffs, pnorm(space.p, proj.residual)),
        seed=seed + 1)
    # f_m = f - Phi c is bitwise the projection's residual when c is exact
    st.f_m = f - Phi @ c
    st.G_m = f - st.f_m
    return {"lam": float(c[-1]), "converged": proj.converged}


def _wgafr(st: GreedyState, phi: np.ndarray, hint: float, eta: float,
           seed: int) -> dict:
    """Best approximation from span{G_prev, phi} with lam >= 0: the
    two-atom Chebyshev projection of ``_two_dir_solve``."""
    p, f, G_prev = st.space.p, st.f, st.G_m
    x0, v0, converged = _two_dir_solve(st.space, f, G_prev, phi)
    x, _ = relaxed_minimize(
        p, lambda x: f - ((1.0 - x[0]) * G_prev + x[1] * phi), eta,
        (x0, v0), seed=seed + 1, nonneg=(False, True))
    st.update((1.0 - x[0]) * G_prev + x[1] * phi)
    return {"lam": float(x[1]), "omega": float(x[0]), "converged": converged}


def _rescaled(st: GreedyState, v: np.ndarray, eta: float, seed: int) -> float:
    """Set the approximant to mu v, mu from ``_rescale``; returns mu."""
    mu, _ = relaxed_minimize(st.space.p, lambda mu: st.f - mu * v, eta,
                             _rescale(st.space, st.f, v), seed=seed)
    st.update(mu * v)
    return float(mu)


def _wdga(st: GreedyState, phi: np.ndarray, hint: float, eta: float,
          seed: int) -> dict:
    """Line search along the atom: G_prev + lam phi with lam >= 0."""
    p, f_prev = st.space.p, st.f_m

    def along(lam: float) -> np.ndarray:
        return f_prev - lam * phi

    lam0 = min_along_ray(p, f_prev, phi, nonneg=True)
    lam, _ = relaxed_minimize(p, along, eta,
                              (lam0, pnorm(p, along(lam0))),
                              seed=seed + 1, nonneg=True)
    st.update(st.G_m + lam * phi)
    return {"lam": float(lam)}


def _rwrga(st: GreedyState, phi: np.ndarray, hint: float, eta: float,
           seed: int) -> dict:
    """The wdga line search, then rescale the whole approximant; each of
    the two solves gets a third of the eta budget."""
    info = _wdga(st, phi, hint, eta / 3.0, seed)
    return dict(info, mu=_rescaled(st, st.G_m, eta / 3.0, seed + 2))


def _rrxga(st: GreedyState, phi: np.ndarray, hint: float, eta: float,
           seed: int) -> dict:
    """Rescale step for the scan-selected atom; ``hint`` is the scan's step."""
    return {"lam": hint, "mu": _rescaled(st, st.G_m + hint * phi, eta, seed + 1)}


def _wrga(st: GreedyState, phi: np.ndarray, hint: float, eta: float,
          seed: int) -> dict:
    """Convex relaxation (1 - lam) G_prev + lam phi with lam in [0, 1]."""
    # f - ((1-lam) G_prev + lam phi) = f_prev - lam (phi - G_prev)
    lam = min(1.0, min_along_ray(st.space.p, st.f_m, phi - st.G_m, nonneg=True))
    st.update((1.0 - lam) * st.G_m + lam * phi)
    return {"lam": lam}


def _gg(st: GreedyState, phi: np.ndarray, hint: float, eta: float,
        seed: int) -> dict:
    """Step from the smoothness constants, then rescale; ``hint`` is F(phi)."""
    space = st.space
    r_prev = pnorm(space.p, st.f_m)
    mag = (abs(hint) / (2.0 * space.gamma * space.q)) ** (1.0 / (space.q - 1.0))
    lam = float(np.sign(hint)) * r_prev * mag if hint != 0.0 else 0.0
    return {"lam": lam, "mu": _rescaled(st, st.G_m + lam * phi, eta, seed + 1)}


# id -> update rule(state, phi, hint, eta, seed) -> record fields.  The
# rule replaces f_m and G_m; hint is F(phi) for a weak selection and the
# scan's step for rrxga; seed derives the random directions of the eta walk.
_RULES = {"wcga": _wcga, "wgafr": _wgafr, "rwrga": _rwrga, "rrxga": _rrxga,
          "wrga": _wrga, "wdga": _wdga, "gg": _gg}


def run_id(name: str) -> tuple:
    """(id, approximate) of a run name in ``ALGORITHM_IDS + AWBGA_IDS``."""
    if name in ALGORITHM_IDS:
        return name, False
    if name in AWBGA_IDS:
        return name[1:], True
    raise ValueError(f"unknown algorithm {name!r}")


def run_greedy(algorithm: str, f: Element, D: Dictionary, tau: SequenceSpec,
               *, errors: Optional[ErrorSchedule] = None, max_m: int = 100,
               stop_tol: float = 1e-12, rule: str = "exact_argmax",
               target: Optional[Target] = None) -> RunReport:
    """Iterate one algorithm until max_m, exact arrival, or a stall.

    ``errors`` (WBGA members only) perturbs the functionals by delta and
    relaxes the steps by eta, and names the report "a" + id; an exact run
    also records the grid margins.  ``target``, when given, is the Target
    whose element is ``f``; the report takes its metadata from it.  Every
    option is checked before the first step.  Deterministic given the seeds.
    """
    algorithm = algorithm.lower()
    if algorithm not in ALGORITHM_IDS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    exact = errors is None
    name = algorithm if exact else "a" + algorithm
    if not exact and name not in AWBGA_IDS:
        raise ValueError(f"{algorithm} is no WBGA member: it takes no errors")
    if rule not in ("exact_argmax", "threshold_first"):
        raise ValueError(f"unknown selection rule {rule!r}")
    if max_m < 1:
        raise ValueError(f"max_m (--iters) must be at least 1, got {max_m}")
    if not (math.isfinite(stop_tol) and stop_tol >= 0.0):
        raise ValueError(f"stop_tol (--stop-tol) must be finite and "
                         f"nonnegative, got {stop_tol}")
    # the report's weakness, t0 = 1 for a list without one, checked as
    # from_json checks it, so that every report a run writes can be audited
    weakness = {"kind": _WEAKNESS_NAMES.get(tau.kind, tau.kind),
                "t0": (tau.c or 1.0) if tau.kind == "list" else tau.c,
                "exponent": tau.a,
                "values": list(tau.values) if tau.values else None}
    WeaknessSchedule(**weakness)
    if target is not None and not np.array_equal(target.f.coords, f.coords):
        raise ValueError("target.f is not f: the report would describe "
                         "another target than the one run")
    space = f.space
    if D.space != space:
        raise ValueError("target and dictionary live in different spaces")
    errs = errors or ZERO_ERRORS
    p = space.p
    update = _RULES[algorithm]

    warnings: list = []
    if algorithm == "wrga" and (target is None or not target.in_hull):
        warnings.append("wrga target lacks a hull certificate; "
                        "convergence is only guaranteed on the hull")

    st = GreedyState(space=space, f=f.coords.copy(), f_m=f.coords.copy(),
                     G_m=np.zeros(space.n), basis=np.empty((0, space.n)),
                     factor=(np.empty((space.n, 0)), np.empty((0, 0))))
    records: list = []
    termination = "max_m"
    r = r0 = pnorm(p, st.f_m)
    # what the measurement pass after the loop reads: f_0..f_M, phi_1..phi_M,
    # r_0..r_M and (exact runs) G_1..G_M
    f_traj, phis, norms = [st.f_m], [], [r0]
    G_traj = [] if exact else None
    delta0 = delta0_achieved = 0.0
    loop_to = max_m
    if r0 <= stop_tol:
        termination = "already exact"
        loop_to = 0
    else:
        F, delta0, delta0_achieved = _functional(space, errs, 0, st.f_m, r0,
                                                 tau.value(1))

    for m in range(1, loop_to + 1):
        tick = time.perf_counter_ns()
        r_prev = r
        if algorithm == "rrxga":
            t_m = gs_rhs = 0.0
            sidx, hint = _xgreedy_scan(space, st.f_m, D, r_prev)
            gs_lhs = float(np.dot(F, D.atom(sidx)))
        else:
            t_m = tau.value(m)
            scores = D.matrix @ F
            dn = dict_dual_norm(F, D, scores)
            if dn <= 1e-13:
                termination = "stalled"
                break
            sidx, gs_lhs = greedy_select(F, D, t_m, rule, scores)
            gs_rhs = t_m * dn
            hint = gs_lhs
        phi = D.atom(sidx)
        eta_m = errs.eta_at(space, m, r_prev, t_m)

        info = update(st, phi, hint, eta_m, errs.seed + 7919 * m)
        if not info.pop("converged", True):
            warnings.append(f"projection not converged at m={m}")

        r = pnorm(p, st.f_m)
        g_norm = pnorm(p, st.G_m)
        if errs.eta_overrun(space, eta_m, r, t_m):
            warnings.append(f"eta threshold exceeded at m={m}")
        # below both floors the run stops here and needs no functional
        delta_m = delta_achieved = 0.0
        if r > min(stop_tol, _ZERO_RESIDUAL):
            F, delta_m, delta_achieved = _functional(space, errs, m, st.f_m,
                                                     r, tau.value(m + 1))
        bo_abs = _measured_bo(F, r, st.G_m, g_norm)
        records.append(IterationRecord(
            m=m, selected_index=int(sidx), t_m=t_m, gs_lhs=gs_lhs, gs_rhs=gs_rhs,
            residual_norm=r, bo_abs=bo_abs, er_reference=0.0,  # see _measure
            delta_m=delta_m, delta_achieved=delta_achieved, eta_m=eta_m,
            eps_m=errs.eps_at(space, m, delta_m, eta_m, g_norm),
            wall_ns=time.perf_counter_ns() - tick, **info))
        f_traj.append(st.f_m)
        phis.append(phi)
        norms.append(r)
        if exact:
            G_traj.append(st.G_m)
        if r <= stop_tol:
            termination = "stop_tol"
            break

    measured = _measure(space, f_traj, phis, norms, G_traj)
    for rec, er_ref, bj, neg in zip(records, *measured):
        rec.er_reference, rec.bj_margin, rec.neg_line_margin = er_ref, bj, neg
    return RunReport(
        algorithm=name,
        space_spec=space.spec_string(),
        space_meta=dict(vars(space)),
        dict_spec=D.spec_string(),
        target_spec=target.spec.mode if target else "custom",
        target_meta=_target_meta(target),
        weakness=weakness,
        solver={"tol": TOL, "grad_tol": GRAD_TOL, "max_iters": MAX_ITERS},
        max_m=max_m, stop_tol=stop_tol, rule=rule,
        termination=termination, records=records, initial_residual=r0,
        warnings=warnings, errors=None if exact else errs.as_dict(),
        delta0=delta0, delta0_achieved=delta0_achieved)


def _target_meta(target: Optional[Target]) -> dict:
    if target is None:
        return {"in_hull": False, "eps": 0.0, "a_eps": 1.0, "certificate": None,
                "mode": "custom", "k": 0, "seed": 0}
    cert = [[i, w] for i, w in target.certificate] if target.certificate else None
    # k: the number of atoms the target is built on (N for a1_dense)
    return {"in_hull": target.in_hull, "eps": target.spec.eps,
            "a_eps": target.a_eps, "certificate": cert, "mode": target.spec.mode,
            "k": len(cert) if cert else target.spec.k, "seed": target.spec.seed}
