"""Independent-oracle checks, shared by the CLI selftest and the test suite.

Every derived quantity in the package is compared here against a second
route that does not share code with the implementation: exhaustive scans,
dense grids, closed forms, normal equations, reference implementations of
the classical Hilbert-space algorithms, and a sampled modulus of smoothness
for the constants of the power-type bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import WeaknessSchedule, _two_dir_solve, run_greedy
from .diagnostics import BoundSpec, _reduction_rhs_factor, rate_bound
from .dictionary import TargetSpec, build_dictionary, greedy_select, make_target
from .perturbation import (derived_eps_bound, perturbed_functional,
                           relaxed_minimize)
from .solvers import chebyshev_project, dense_line_min, min_along_ray
from .space import (Element, LpSpace, dict_dual_norm, dual_norm, lp_space,
                    norm, norming_functional, pnorm, pnorm_rows)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(ok), detail=detail)


def omp_oracle_residuals(D_matrix: np.ndarray, f: np.ndarray, m_max: int) -> list:
    """Orthogonal-greedy reference on l2: argmax correlation + least squares."""
    idx: list = []
    r = f.copy()
    out = []
    for _ in range(m_max):
        i = int(np.argmax(np.abs(D_matrix @ r)))
        idx.append(i)
        A = D_matrix[idx].T
        coef, *_ = np.linalg.lstsq(A, f, rcond=None)
        r = f - A @ coef
        out.append(float(np.linalg.norm(r)))
    return out


def _modulus_sample(space: LpSpace, n_samples: int, seed: int):
    """Unit-norm pair sample (X, Y) used to lower-estimate the modulus.

    Random pairs are augmented with deterministic near-extremal candidates:
    y = x (which witnesses rho(u) >= u - 1) and axis pairs (extremal in the
    Hilbert case).  Uniform random sampling alone only lower-bounds the sup,
    and can miss rho(2) >= 1.
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

    Deterministic given the seed.  A sampled sup never exceeds the true
    modulus, so it is the oracle for the (q, gamma) constants of
    ``lp_space``: an estimate above gamma * u^q would refute them.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    X, Y = _modulus_sample(space, n_samples, seed)
    vals = (pnorm_rows(space.p, X + u * Y) + pnorm_rows(space.p, X - u * Y)) / 2.0 - 1.0
    return float(max(np.max(vals), 0.0))


def matching_pursuit_residuals(f: np.ndarray, m_max: int) -> list:
    """Plain coordinate pursuit on the canonical basis (Hilbert case)."""
    r = f.copy()
    out = []
    for _ in range(m_max):
        i = int(np.argmax(np.abs(r)))
        r = r.copy()
        r[i] = 0.0
        out.append(float(np.linalg.norm(r)))
    return out


def numeric_reduction_factor(q: float, gamma: float, coef_a: float, c0: float,
                             r_prev: float) -> float:
    """inf over lam >= 0 of 1 + c0 - coef_a lam + 2 gamma (lam / r_prev)^q by
    the nested grid scans of ``dense_line_min`` over [0, 2 max(r_prev,
    lam*)], with lam* the closed-form minimiser, down to brackets of 1e-12."""
    def obj(t):
        return 1.0 + c0 - coef_a * t + 2.0 * gamma * (t / r_prev) ** q

    lam_star = (coef_a * r_prev ** q / (2.0 * gamma * q)) ** (1.0 / (q - 1.0))
    return dense_line_min(obj, 0.0, max(2.0 * r_prev, 2.0 * lam_star),
                          tol=1e-12)[1]


def run_all() -> list:
    checks: list = []
    rng = np.random.default_rng(20240817)

    # --- norms and functionals against direct formula evaluation ---
    s2 = lp_space(2.0, 2)
    s4 = lp_space(4.0, 2)
    x = Element(coords=np.array([3.0, 4.0]), space=s2)
    checks.append(_check("norm euclidean 3-4-5", abs(norm(s2, x) - 5.0) < 1e-12))
    y = Element(coords=np.array([1.0, 1.0]), space=s4)
    checks.append(_check("norm p4 direct formula",
                         abs(norm(s4, y) - 2.0 ** 0.25) < 1e-12))
    F = norming_functional(s2, x)
    checks.append(_check("peak functional hilbert",
                         np.allclose(F, [0.6, 0.8])
                         and abs(F @ x.coords - 5.0) < 1e-10))
    F4 = norming_functional(s4, y)
    checks.append(_check("peak functional p4 axis value",
                         abs(F4 @ np.array([1.0, 0.0]) - 2.0 ** -0.75) < 1e-10))

    # --- dictionary dual norm vs exhaustive signed scan ---
    sp = lp_space(3.0, 8)
    D = build_dictionary(sp, "random_gauss", 50, seed=11)
    worst = 0.0
    for trial in range(5):
        f = Element(coords=rng.standard_normal(8), space=sp)
        Ff = norming_functional(sp, f)
        brute = max(max(float(np.dot(Ff, g)), float(np.dot(Ff, -g)))
                    for g in D.matrix)
        worst = max(worst, abs(dict_dual_norm(Ff, D) - brute))
    checks.append(_check("dict dual norm vs exhaustive scan", worst < 1e-12,
                         f"worst diff {worst:.2e}"))

    # --- modulus sample vs the Hilbert closed form ---
    sH = lp_space(2.0, 6)
    ok = True
    for u in (0.25, 0.5, 1.0):
        est = empirical_modulus(sH, u, 256, 3)
        exact = np.sqrt(1.0 + u * u) - 1.0
        ok = ok and (-1e-12 <= exact - est) and est >= 0.0
    checks.append(_check("empirical modulus below hilbert closed form", ok))

    # --- line and two-direction solves vs closed forms ---
    arg, val = dense_line_min(lambda t: (t - 1.0 / 3.0) ** 2 + 2.0, 0.0, 4.0)
    checks.append(_check("dense line min quadratic vertex",
                         abs(arg - 1.0 / 3.0) < 1e-6 and abs(val - 2.0) < 1e-10))
    # ||(1 - a, -a)||_4 is least at a = 1/2 by symmetry, where it is 2^(-3/4)
    e1, ones = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    a = min_along_ray(4.0, e1, ones)
    checks.append(_check("ray minimiser p4 symmetric closed form",
                         abs(a - 0.5) < 1e-12
                         and abs(pnorm(4.0, e1 - a * ones) - 2.0 ** -0.75) < 1e-12
                         and min_along_ray(4.0, -e1, ones, nonneg=True) == 0.0))

    # f - ((1 - w) G + lam phi) keeps f's third coordinate for every (w,
    # lam), so the optimum zeroes the other two unless that needs lam < 0,
    # when lam = 0 and w zeroes the first
    spt = lp_space(3.0, 3)
    G, phi = np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0])
    (w, lam), v, done = _two_dir_solve(spt, np.array([3.0, 1.0, 0.5]), G, phi)
    ok = (done and abs(w + 1.0) < 1e-9 and abs(lam - 1.0) < 1e-9
          and abs(v - 0.5) < 1e-12)
    (w, lam), v, done = _two_dir_solve(spt, np.array([3.0, -1.0, 0.5]), G, phi)
    ok = (ok and done and abs(w + 2.0) < 1e-9 and lam == 0.0
          and abs(v - 1.125 ** (1.0 / 3.0)) < 1e-12)
    checks.append(_check("two-direction solve vs closed forms", ok))

    # --- projection vs normal equations (l2) and a dense grid (l4) ---
    spn = lp_space(2.0, 12)
    Dn = build_dictionary(spn, "random_gauss", 24, seed=2)
    f = rng.standard_normal(12)
    basis = Dn.matrix[[0, 3, 7, 9, 15]]
    proj = chebyshev_project(spn, f, basis)
    A = basis.T
    # solved as the normal equations, not by least squares: the projection
    # starts from a least-squares solve (through the thin QR of the basis),
    # so at p = 2 a least-squares reference would share its route
    coef = np.linalg.solve(A.T @ A, A.T @ f)
    r_ref = float(np.linalg.norm(f - A @ coef))
    r_got = pnorm(2.0, proj.residual)
    checks.append(_check("projection vs normal equations",
                         abs(r_got - r_ref) < 1e-8,
                         f"diff {abs(r_got - r_ref):.2e}"))

    sp4 = lp_space(4.0, 2)
    phi = np.array([1.0, 1.0]) / 2.0 ** 0.25
    f4 = np.array([1.0, 0.0])
    proj4 = chebyshev_project(sp4, f4, phi[None, :])
    lams = np.linspace(-2.0, 2.0, 2_000_001)
    vals = np.sum(np.abs(f4[None, :] - lams[:, None] * phi[None, :]) ** 4,
                  axis=1) ** 0.25
    lam_grid = float(lams[np.argmin(vals)])
    checks.append(_check("projection p4 vs dense grid",
                         abs(float(proj4.coeffs[0]) - lam_grid) < 1e-6,
                         f"diff {abs(float(proj4.coeffs[0]) - lam_grid):.2e}"))

    # --- full-run equivalences in the Hilbert case ---
    spw = lp_space(2.0, 16)
    Dw = build_dictionary(spw, "random_gauss", 64, seed=7)
    tw = make_target(Dw, TargetSpec(mode="a1_sparse", k=5, seed=9))
    rep = run_greedy("wcga", tw.f, Dw, WeaknessSchedule(), max_m=12)
    oracle = omp_oracle_residuals(Dw.matrix, tw.f.coords, len(rep.records))
    diffs = [abs(r.residual_norm - o) / max(o, 1e-10)
             for r, o in zip(rep.records, oracle) if o > 1e-10]
    checks.append(_check("wcga trajectory vs orthogonal-greedy oracle",
                         max(diffs) < 1e-8 if diffs else True,
                         f"worst rel diff {max(diffs):.2e}" if diffs else ""))

    spc = lp_space(2.0, 8)
    Dc = build_dictionary(spc, "canonical", 8, seed=0)
    tc = make_target(Dc, TargetSpec(mode="a1_sparse", k=4, seed=3))
    rep = run_greedy("wdga", tc.f, Dc, WeaknessSchedule(), max_m=4)
    mp = matching_pursuit_residuals(tc.f.coords, len(rep.records))
    diffs = [abs(r.residual_norm - o) for r, o in zip(rep.records, mp)]
    checks.append(_check("wdga on the canonical basis vs coordinate pursuit",
                         max(diffs) < 1e-8, f"worst diff {max(diffs):.2e}"))

    # --- slack bound formula vs a numeric minimization oracle ---
    spq = lp_space(2.0, 4)
    got = derived_eps_bound(spq, 0.005, 0.005, 1.0)
    checks.append(_check("slack bound spot value", abs(got - 0.2) < 1e-12))
    worst = 0.0
    for _ in range(10):
        p = float(rng.uniform(1.3, 4.0))
        spq = lp_space(p, 4)
        d, e, gn = rng.uniform(0, 0.2), rng.uniform(0, 0.2), rng.uniform(0.1, 3.0)
        got = derived_eps_bound(spq, d, e, gn)
        lams = np.geomspace(1e-8, 1e4, 400_000)
        num = float(np.min((d + e + 2.0 * spq.gamma * (lams * gn) ** spq.q) / lams))
        worst = max(worst, abs(got - num) / max(num, 1e-12))
    checks.append(_check("slack bound vs numeric minimization", worst < 1e-6,
                         f"worst rel diff {worst:.2e}"))

    # --- rate-bound constants re-derived independently ---
    b = BoundSpec(bound_id="cor52", q=2.0, gamma=0.5)
    checks.append(_check("rate constant hull bound",
                         abs(rate_bound(b, 3, 3.0) - 2.0) < 1e-12))
    b = BoundSpec(bound_id="cor21", q=2.0, gamma=0.5, t=0.5)
    checks.append(_check("rate constant constant-weakness bound",
                         abs(rate_bound(b, 1, 1.0) - 16.0) < 1e-12))
    b = BoundSpec(bound_id="cor72", q=2.0, gamma=0.5)
    checks.append(_check("rate constant approximate-class bound",
                         abs(rate_bound(b, 1, 1.0) - 8.0 * np.sqrt(2.0) *
                             2.0 ** -0.5) < 1e-12))
    b = BoundSpec(bound_id="thm91", q=2.0, gamma=0.5)
    checks.append(_check("rate bound norm-scan at start",
                         abs(rate_bound(b, 0, 0.0) - 4.0) < 1e-12))

    # --- selection threshold property on random draws ---
    spg = lp_space(2.5, 6)
    Dg = build_dictionary(spg, "random_gauss", 40, seed=13)
    ok = True
    for _ in range(1000):
        f = Element(coords=rng.standard_normal(6), space=spg)
        Ff = norming_functional(spg, f)
        t = float(rng.uniform(0, 1))
        rule = "exact_argmax" if rng.integers(0, 2) else "threshold_first"
        _, val = greedy_select(Ff, Dg, t, rule)
        ok = ok and val >= t * dict_dual_norm(Ff, Dg) - 1e-12
    checks.append(_check("greedy selection clears its threshold", ok))

    # --- perturbation invariants on random draws ---
    ok = True
    for i in range(200):
        f = rng.standard_normal(6)
        delta = float(rng.uniform(0, 1))
        Fp, achieved = perturbed_functional(spg, f, delta, seed=i)
        ok = (ok and dual_norm(spg.p, Fp) <= 1.0 + 1e-12
              and achieved <= delta + 1e-12
              and Fp @ f >= (1.0 - delta) * pnorm(spg.p, f) - 1e-10)
    checks.append(_check("perturbed functional admissibility", ok))

    ok = True
    for i in range(200):
        c = rng.uniform(-2, 2, size=3)

        def residual(x):  # ||residual(x)||_2^2 = |x - c|^2 + 1
            return np.append(x - c, 1.0)

        eta = float(rng.uniform(0, 0.5))
        _, v = relaxed_minimize(2.0, residual, eta, (c.copy(), 1.0),
                                seed=i)
        ok = ok and (1.0 <= v <= (1.0 + eta) * 1.0 + 1e-12)
    checks.append(_check("relaxed minimization stays inside its budget", ok))

    # --- error-reduction factor: closed form vs nested grid scans ---
    # an evaluated objective can undercut the exact infimum by its rounding,
    # so "closed form <= numeric" allows a few ulps of the O(1) values
    worst, below = 0.0, True
    for _ in range(200):
        spr = lp_space(float(rng.uniform(1.1, 6.0)), 4)
        a, c0 = rng.uniform(0.01, 1.0), rng.uniform(0.0, 0.2)
        r = 10.0 ** rng.uniform(-3.0, 0.0)
        got = _reduction_rhs_factor(spr.q, spr.gamma, a, c0, r)
        num = numeric_reduction_factor(spr.q, spr.gamma, a, c0, r)
        below = below and got <= num + 1e-15
        worst = max(worst, abs(got - num) / abs(num))
    checks.append(_check("error-reduction factor vs numeric minimization",
                         below and worst < 1e-9, f"worst rel diff {worst:.2e}"))

    return checks
