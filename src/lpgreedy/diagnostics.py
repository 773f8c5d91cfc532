"""Checkable predicates over run reports.

Three layers: the per-iteration condition audit (selection threshold, error
reduction against the independently measured single-atom reference, and
residual-approximant biorthogonality, with the orthogonality grid checks),
the per-iteration error-reduction inequality with its right-hand side
minimized in closed form, and the closed-form rate bounds with their exact
constants.

Bound ids accepted by ``rate_bound``: cor21, thm52, cor52, thm72, cor72,
prop72, thm91.  All bound evaluations use the proven power-type modulus
gamma * u^q, never the sampled estimate.  ``_bound_form`` tables each bound
as coefficient * (shift + x)^(-1/p'), x being m or the t_k^p' partial sum,
over a floor of 2 eps, 4 eps or none; ``bound_curve`` and ``verify_rates``
apply it to a report's columns, each read once, with the constants evaluated
once per report, and ``rate_bound`` is its one-point form.  Per-record
powers stay Python-float ``**``: numpy's array power differs in the last
bit on some inputs, and no margin, tightness or CSV bound may move.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .algorithms import RunReport, run_id

BOUND_IDS = ("cor21", "thm52", "cor52", "thm72", "cor72", "prop72", "thm91")

DEFAULT_COND_TOLS = (1e-12, 1e-6, 1e-6)  # selection, error reduction, biorthogonality
_NEG_LINE_TOL = 1e-9
# Absolute slack of a rate bound: residual_norm(m) <= bound(m) + _RATE_SLACK.
_RATE_SLACK = 1e-6

# Which per-iteration properties each algorithm actually promises.  wdga
# never satisfies biorthogonality (no projection step) and is excluded from
# it by design; gg's explicit step size does not guarantee single-atom error
# reduction; wrga only promises monotonicity on hull targets.  An
# approximate run ("a" + id) has its id's checks less the grid checks
# neg_line and bj, which its perturbed functionals void; its other
# inequalities are checked in slack form.
_ALL = frozenset({"greedy_selection", "error_reduction", "biorthogonality",
                  "monotone", "neg_line", "bj"})
APPLICABLE_CHECKS = {
    "wcga": _ALL,
    "wgafr": _ALL,
    "rwrga": _ALL,
    "rrxga": frozenset({"error_reduction", "biorthogonality", "monotone",
                        "neg_line", "bj"}),
    "wrga": frozenset({"greedy_selection", "monotone", "neg_line"}),
    "wdga": frozenset({"greedy_selection", "error_reduction", "monotone",
                       "neg_line"}),
    "gg": frozenset({"greedy_selection", "biorthogonality", "neg_line", "bj"}),
}

_SKIP_REASONS = {
    ("wdga", "biorthogonality"): "skipped by design: no projection step",
    ("rrxga", "greedy_selection"): "no weakness selection in the norm-scan variant",
}


@dataclass
class CheckResult:
    name: str
    applicable: bool
    passed: bool
    worst_margin: float
    margins: list = field(default_factory=list)
    reason: str = ""


@dataclass
class AuditReport:
    algorithm: str
    checks: list
    verdict: str  # PASS | FAIL

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        return json.dumps({"algorithm": self.algorithm, "verdict": self.verdict,
                           "checks": [asdict(c) for c in self.checks]},
                          indent=1, sort_keys=True)


def _worst_margin(margins: list) -> float:
    """The smallest of ``margins``, 0.0 when there is none.  A NaN margin
    makes it NaN wherever the NaN sits, so that its check fails; Python's
    ``min`` keeps a NaN only when it comes first."""
    if any(map(math.isnan, margins)):
        return math.nan
    return min(margins, default=0.0)


def audit_conditions(report: RunReport) -> AuditReport:
    """Per-iteration verification of the defining greedy-step properties."""
    if any(r.m != i + 1 for i, r in enumerate(report.records)):
        raise ValueError("incomplete report: records must be contiguous from m=1")
    algorithm, approximate = run_id(report.algorithm)
    tol_gs, tol_er, tol_bo = DEFAULT_COND_TOLS
    applicable = APPLICABLE_CHECKS[algorithm]
    if approximate:
        applicable -= {"neg_line", "bj"}
    recs = report.records
    checks = []

    def add(name: str, margins: list, tol: float, skip: str = ""):
        if skip or name not in applicable:
            reason = skip or _SKIP_REASONS.get((algorithm, name),
                                               "not promised by this algorithm")
            checks.append(CheckResult(name=name, applicable=False, passed=True,
                                      worst_margin=float("nan"), reason=reason))
            return
        worst = _worst_margin(margins)
        checks.append(CheckResult(name=name, applicable=True,
                                  passed=worst >= -tol,
                                  worst_margin=worst, margins=margins))

    add("greedy_selection", [r.gs_lhs - r.gs_rhs for r in recs], tol_gs)
    add("error_reduction",
        [(1.0 + r.eta_m) * r.er_reference - r.residual_norm for r in recs],
        tol_er)
    add("biorthogonality", [r.eps_m - r.bo_abs for r in recs], tol_bo)

    prev = [report.initial_residual] + [r.residual_norm for r in recs[:-1]]
    mono = "monotone" in applicable and (algorithm != "wrga"
                                         or report.target_meta.get("in_hull"))
    add("monotone",
        [(1.0 + r.eta_m) * pr - r.residual_norm for r, pr in zip(recs, prev)],
        tol_er, "" if mono else "monotonicity not promised for this run")

    add("neg_line", [r.neg_line_margin for r in recs], _NEG_LINE_TOL)
    add("bj", [r.bj_margin for r in recs], tol_er)

    verdict = "PASS" if all(c.passed for c in checks) else "FAIL"
    return AuditReport(algorithm=report.algorithm, checks=checks, verdict=verdict)


def _reduction_rhs_factor(q: float, gamma: float, coef_a: float, c0: float,
                          r_prev: float) -> float:
    """inf over lam >= 0 of 1 + c0 - coef_a * lam + 2 gamma (lam / r_prev)^q.

    The objective is convex in lam; for coef_a > 0 its stationary point
    lam* = (coef_a r_prev^q / (2 gamma q))^(1/(q-1)) satisfies
    2 gamma (lam*/r_prev)^q = coef_a lam* / q, so the infimum is
    1 + c0 - coef_a lam* (1 - 1/q).  ``selftest`` checks it against the
    nested grid scans of ``dense_line_min``."""
    if coef_a <= 0.0:
        return 1.0 + c0
    lam_star = (coef_a * r_prev ** q / (2.0 * gamma * q)) ** (1.0 / (q - 1.0))
    return 1.0 + c0 - coef_a * lam_star * (1.0 - 1.0 / q)


def error_reduction_margins(report: RunReport) -> list:
    """Per-iteration slack of the error-reduction inequality.

    Returns [rhs_m - ||f_m||] for every m; nonnegative margins (up to the
    optimizer tolerance) certify the inequality.  Reads the target's
    (eps, A(eps)) certificate from ``report.target_meta``; raises
    ``ValueError`` when it is missing or A(eps) < eps.
    Approximate runs are checked in the slack form with the achieved
    functional errors and measured biorthogonality defects.
    """
    meta = report.target_meta
    if not meta.get("certificate"):
        raise ValueError("missing certificate: error reduction check "
                         "needs the target's (eps, A(eps)) metadata")
    a_eps, eps = meta["a_eps"], meta["eps"]
    if a_eps < eps:
        raise ValueError("certificate requires A(eps) >= eps")
    q = report.space_meta["q"]
    gamma = report.space_meta["gamma"]
    approx = report.errors is not None
    margins = []
    prev_r = report.initial_residual
    prev_bo = 0.0
    prev_delta = report.delta0_achieved if approx else 0.0
    for r in report.records:
        if prev_r <= 0.0:
            margins.append(0.0)
            continue
        if approx:
            coef_a = (r.t_m / a_eps) * (1.0 - prev_delta
                                        - (prev_bo + eps) / prev_r)
            c0 = prev_delta
            scale = 1.0 + r.eta_m
        else:
            coef_a = (r.t_m / a_eps) * (1.0 - eps / prev_r)
            c0 = 0.0
            scale = 1.0
        factor = _reduction_rhs_factor(q, gamma, coef_a, c0, prev_r)
        rhs = prev_r * scale * factor
        margins.append(rhs - r.residual_norm)
        prev_r = r.residual_norm
        prev_bo = r.bo_abs
        prev_delta = r.delta_achieved
    return margins


@dataclass(frozen=True)
class BoundSpec:
    """Parameters of one rate bound: which estimate, the power-type
    constants (q, gamma) of rho(u) <= gamma u^q, and the target's (eps,
    A(eps)) certificate.  The exponent p' = q/(q-1) is derived from q."""

    bound_id: str
    q: float
    gamma: float
    t: Optional[float] = None     # cor21 only (constant weakness)
    a_eps: float = 1.0
    eps: float = 0.0

    def __post_init__(self):
        if self.bound_id not in BOUND_IDS:
            raise ValueError(f"unknown bound id {self.bound_id!r}")
        if self.bound_id == "cor21" and self.t is None:
            raise ValueError("cor21 needs the constant weakness t")

    @property
    def p_conj(self) -> float:
        return self.q / (self.q - 1.0)

    @staticmethod
    def from_report(bound_id: str, report: RunReport) -> "BoundSpec":
        sm = report.space_meta
        tm = report.target_meta
        t = report.weakness["t0"] if report.weakness["kind"] == "constant" else None
        return BoundSpec(bound_id=bound_id, q=sm["q"], gamma=sm["gamma"], t=t,
                         a_eps=tm.get("a_eps", 1.0), eps=tm.get("eps", 0.0))


def _bound_form(spec: BoundSpec) -> tuple:
    """(coefficient, floor, shift, by_m) of a bound: x is m when ``by_m``,
    else the partial sum; a floor of None means no floor."""
    q, g, pc, bid = spec.q, spec.gamma, spec.p_conj, spec.bound_id
    if bid == "cor21":
        return 16.0 * g ** (1.0 / q) * spec.t ** (-1.0 / pc), None, 0.0, True
    c = (4.0 * q * (2.0 * g) ** q * (2.0 / (q - 1.0)) ** (1.0 / pc)
         if bid in ("thm72", "cor72", "prop72") else 4.0 * (2.0 * g) ** (1.0 / q))
    if bid in ("cor52", "cor72", "prop72"):  # the hull bounds have no floor
        return c, None, 1.0, False
    floor = (4.0 if bid == "thm72" else 2.0) * spec.eps
    return c * (spec.a_eps + spec.eps), floor, 1.0, bid == "thm91"


def _curve(spec: BoundSpec, ms: list, tsums: list) -> list:
    """The bound at each (m, partial sum) pair of the two columns."""
    lo = min(ms, default=1)
    if lo < 0:
        raise ValueError("iteration index must be nonnegative")
    if lo < 1 and spec.bound_id == "cor21":
        raise ValueError("the constant-weakness bound applies from m = 1")
    coef, floor, shift, by_m = _bound_form(spec)
    e = -1.0 / spec.p_conj
    vals = [coef * (shift + x) ** e for x in (ms if by_m else tsums)]
    # max(floor, v) keeps floor unless v > floor: a NaN v gives floor too
    return vals if floor is None else [v if v > floor else floor for v in vals]


def rate_bound(spec: BoundSpec, m: int, tsum_p: float) -> float:
    """Right-hand side of the selected estimate at iteration m.

    ``tsum_p`` is the partial sum of t_k^p_conj up to m (ignored by the
    bounds that depend on m alone).
    """
    return _curve(spec, [m], [tsum_p])[0]


@dataclass
class RateCheck:
    bound_id: str
    applicable: bool
    passed: bool
    worst_margin: float
    max_tightness: float
    margins: list = field(default_factory=list)
    tightness: list = field(default_factory=list)
    reason: str = ""


def bound_curve(spec: BoundSpec, report: RunReport) -> np.ndarray:
    return np.array(_curve(spec, [r.m for r in report.records],
                           report.partial_tp_sums().tolist()))


def verify_rates(report: RunReport, bound_ids: list) -> list:
    """Check residual_norm(m) <= bound(m) for each requested estimate, up
    to ``_RATE_SLACK``.

    Bounds that need a hull certificate (cor21/cor52/cor72/prop72) or a
    constant weakness sequence (cor21) are skipped with a reason when the
    report does not qualify.  Tightness is residual/bound per iteration.
    """
    results = []
    meta = report.target_meta
    ms = [r.m for r in report.records]
    resid = report.residual_norms()
    tsums = report.partial_tp_sums().tolist()
    for bid in bound_ids:
        if bid in ("cor21", "cor52", "cor72", "prop72"):
            skip = "" if meta.get("in_hull") else "requires a hull certificate"
        else:
            skip = "" if meta.get("certificate") else \
                "requires (eps, A(eps)) metadata"
        if not skip and bid == "cor21" and report.weakness["kind"] != "constant":
            skip = "requires a constant weakness sequence"
        if skip:
            results.append(RateCheck(bound_id=bid, applicable=False,
                                     passed=True, worst_margin=float("nan"),
                                     max_tightness=float("nan"), reason=skip))
            continue
        bounds = np.array(_curve(BoundSpec.from_report(bid, report), ms, tsums))
        margins = (bounds - resid).tolist()
        tight = resid / np.maximum(bounds, 1e-300)
        worst = _worst_margin(margins)
        # numpy's max, unlike Python's, is NaN wherever a NaN sits
        top = float(tight.max()) if tight.size else 0.0
        results.append(RateCheck(bound_id=bid, applicable=True,
                                 passed=worst >= -_RATE_SLACK,
                                 worst_margin=worst, max_tightness=top,
                                 margins=margins, tightness=tight.tolist()))
    return results
