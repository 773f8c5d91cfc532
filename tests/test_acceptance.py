"""Acceptance gate: every shipped claim, one criterion per test, at the
stated tolerance.  Each test prints a single pass line; shared experiment
grids are built once per module and reused across criteria."""

import time

import numpy as np
import pytest

from lpgreedy import (ErrorSchedule, SequenceSpec, TargetSpec,
                      WeaknessSchedule, audit_conditions, build_dictionary,
                      error_reduction_margins, lp_space, make_target,
                      run_greedy, verify_rates)
from lpgreedy.diagnostics import DEFAULT_COND_TOLS
from lpgreedy.harness import main
from lpgreedy.selftest import empirical_modulus, omp_oracle_residuals

P_GRID = (1.5, 2.0, 3.0, 4.0)
TRIO = ("wcga", "wgafr", "rwrga")
APPROX_TRIO = ("awcga", "awgafr", "arwrga")
T1 = WeaknessSchedule()
T_HALF = WeaknessSchedule(kind="constant", t0=0.5)
COND_TOLS = (1e-12, 1e-6, 1e-6)


def _ok(n, name, detail=""):
    print(f"[acceptance] criterion {n:02d} {name}: PASS {detail}")


@pytest.fixture(scope="module")
def c1_runs():
    t0 = time.monotonic()
    s = lp_space(2.0, 32)
    D = build_dictionary(s, "canonical", 32)
    runs = {}
    for k in (1, 4, 8):
        for seed in range(20):
            t = make_target(D, TargetSpec(mode="a1_sparse", k=k, seed=seed))
            runs[(k, seed)] = run_greedy("wcga", t.f, D, T1, max_m=32, target=t)
    return runs, time.monotonic() - t0


@pytest.fixture(scope="module")
def c2_runs():
    t0 = time.monotonic()
    runs = {}
    for p in P_GRID:
        s = lp_space(p, 64)
        for seed in range(20):
            D = build_dictionary(s, "random_gauss", 256, seed=100 + seed)
            t = make_target(D, TargetSpec(mode="a1_sparse", k=16,
                                          seed=200 + seed))
            for algo in TRIO:
                runs[(p, algo, seed)] = run_greedy(algo, t.f, D, T1,
                                                   max_m=100, target=t)
    return runs, time.monotonic() - t0


@pytest.fixture(scope="module")
def c3_runs():
    runs = {}
    for p in P_GRID:
        s = lp_space(p, 64)
        for seed in range(20):
            D = build_dictionary(s, "random_gauss", 256, seed=100 + seed)
            t = make_target(D, TargetSpec(mode="a1_sparse", k=16,
                                          seed=200 + seed))
            for algo in TRIO:
                runs[(p, algo, seed)] = run_greedy(
                    algo, t.f, D, T_HALF, max_m=100,
                    rule="threshold_first", target=t)
    return runs


def test_criterion_01_exact_recovery(c1_runs):
    runs, elapsed = c1_runs
    for (k, seed), rep in runs.items():
        assert len(rep.records) == k, f"k={k} seed={seed}: {len(rep.records)} steps"
        assert rep.records[-1].residual_norm <= 1e-8
        if k > 1:
            assert rep.records[-2].residual_norm > 1e-8
    assert elapsed < 5.0, f"exact-recovery grid took {elapsed:.1f}s"
    _ok(1, "exact recovery in k steps", f"60 runs in {elapsed:.2f}s")


def test_criterion_02_hull_rate_bound(c2_runs):
    runs, elapsed = c2_runs
    worst = np.inf
    for key, rep in runs.items():
        res = verify_rates(rep, ["cor52"])[0]
        assert res.applicable
        assert res.passed, f"{key}: worst margin {res.worst_margin:.2e}"
        worst = min(worst, res.worst_margin)
    assert elapsed < 300.0, f"criterion-2 grid took {elapsed:.1f}s"
    _ok(2, "hull rate bound, unit weakness",
        f"{len(runs)} runs, worst margin {worst:+.2e}, {elapsed:.0f}s")


def test_criterion_03_constant_weakness_bound(c3_runs):
    worst = np.inf
    for key, rep in c3_runs.items():
        res = verify_rates(rep, ["cor21"])[0]
        assert res.applicable
        assert res.passed, f"{key}: worst margin {res.worst_margin:.2e}"
        worst = min(worst, res.worst_margin)
    _ok(3, "constant-weakness bound, threshold-first selection",
        f"{len(c3_runs)} runs, worst margin {worst:+.2e}")


def test_criterion_04_condition_audit(c1_runs, c2_runs, c3_runs):
    reports = list(c1_runs[0].values()) + list(c2_runs[0].values()) \
        + list(c3_runs.values())
    assert DEFAULT_COND_TOLS == COND_TOLS
    for rep in reports:
        audit = audit_conditions(rep)
        assert audit.passed, audit.to_json()
        for name in ("greedy_selection", "error_reduction", "biorthogonality",
                     "neg_line", "bj"):
            c = audit.check(name)
            assert c.applicable and c.passed, f"{rep.algorithm} {name}"
    _ok(4, "per-iteration conditions and orthogonality grids",
        f"{len(reports)} reports audited")


def test_criterion_05_hilbert_oracle_equivalence():
    s = lp_space(2.0, 32)
    checked = 0
    for seed in range(10):
        D = build_dictionary(s, "random_gauss", 128, seed=300 + seed)
        t = make_target(D, TargetSpec(mode="a1_dense", seed=400 + seed))
        rep = run_greedy("wcga", t.f, D, T1, max_m=30, target=t)
        oracle = omp_oracle_residuals(D.matrix, t.f.coords, len(rep.records))
        for r, o in zip(rep.records, oracle):
            if o > 1e-10:
                assert r.residual_norm == pytest.approx(o, rel=1e-8)
                checked += 1
    _ok(5, "projection trajectory equals the least-squares oracle",
        f"{checked} iterations compared")


def test_criterion_06_error_reduction_inequality(c2_runs):
    worst = np.inf
    for key, rep in c2_runs[0].items():
        margins = error_reduction_margins(rep)
        m = min(margins)
        assert m >= -1e-6, f"{key}: margin {m:.2e}"
        worst = min(worst, m)
    _ok(6, "error-reduction inequality with numeric right side",
        f"worst margin {worst:+.2e}")


def test_criterion_07_approximate_robustness():
    s = lp_space(2.0, 8)
    D = build_dictionary(s, "random_gauss", 64, seed=5)
    worst_m = 0
    for algo in APPROX_TRIO:
        for seed in range(10):
            errs = ErrorSchedule(delta=SequenceSpec(kind="pow", c=0.1, a=1.1),
                                 eta=SequenceSpec(kind="pow", c=0.1, a=1.1),
                                 seed=seed)
            t = make_target(D, TargetSpec(mode="a1_sparse", k=4,
                                          seed=100 + seed))
            rep = run_greedy(algo[1:], t.f, D, T1, errors=errs, max_m=500,
                             stop_tol=9e-4, target=t)
            assert min(r.residual_norm for r in rep.records) < 1e-3, \
                f"{algo} seed={seed} never reached 1e-3"
            assert len(rep.records) <= 500
            for r in rep.records:
                assert r.bo_abs <= r.eps_m + 1e-6, \
                    f"{algo} seed={seed} m={r.m}"
            worst_m = max(worst_m, len(rep.records))
    _ok(7, "decaying adversarial errors still converge",
        f"30 runs, slowest arrival at m={worst_m}")


def test_criterion_08_auto_threshold_bound():
    errs = ErrorSchedule(delta=SequenceSpec(kind="prop72auto"),
                         eta=SequenceSpec(kind="prop72auto"), seed=9)
    worst = np.inf
    for p in P_GRID:
        s = lp_space(p, 32)
        pc = s.p_conj
        cap = 64.0 ** (-pc) * s.gamma ** (1.0 - pc)
        for algo in APPROX_TRIO:
            for seed in range(5):
                D = build_dictionary(s, "random_gauss", 128, seed=500 + seed)
                t = make_target(D, TargetSpec(mode="a1_sparse", k=8,
                                              seed=600 + seed))
                rep = run_greedy(algo[1:], t.f, D, T1, errors=errs,
                                 max_m=100, target=t)
                for r in rep.records:
                    assert r.delta_m <= cap * r.residual_norm ** pc * \
                        r.t_m ** pc + 1e-15
                res = verify_rates(rep, ["prop72"])[0]
                assert res.applicable and res.passed, \
                    f"p={p} {algo} seed={seed}: {res.worst_margin:.2e}"
                worst = min(worst, res.worst_margin)
    _ok(8, "online error thresholds keep the approximate-class bound",
        f"60 runs, worst margin {worst:+.2e}")


def test_criterion_09_norm_scan_rate_bound():
    worst = np.inf
    for p in P_GRID:
        s = lp_space(p, 64)
        for seed in range(20):
            D = build_dictionary(s, "random_gauss", 256, seed=100 + seed)
            t = make_target(D, TargetSpec(mode="a1_sparse", k=16,
                                          seed=200 + seed))
            rep = run_greedy("rrxga", t.f, D, T1, max_m=100, target=t)
            res = verify_rates(rep, ["thm91"])[0]
            assert res.applicable
            assert res.passed, f"p={p} seed={seed}: {res.worst_margin:.2e}"
            worst = min(worst, res.worst_margin)
    _ok(9, "norm-scan variant satisfies the hull rate bound",
        f"80 runs, worst margin {worst:+.2e}")


def test_criterion_10_noisy_target_bound():
    worst = np.inf
    n_runs = 0
    for p in (2.0, 3.0):
        s = lp_space(p, 32)
        for eps in (0.01, 0.05):
            for seed in range(5):
                D = build_dictionary(s, "random_gauss", 128, seed=700 + seed)
                t = make_target(D, TargetSpec(mode="general_plus_noise", k=8,
                                              eps=eps, seed=800 + seed))
                for algo in TRIO:
                    rep = run_greedy(algo, t.f, D, T1, max_m=100, target=t)
                    res = verify_rates(rep, ["thm52"])[0]
                    assert res.applicable
                    assert res.passed, (f"p={p} eps={eps} {algo} seed={seed}: "
                                        f"{res.worst_margin:.2e}")
                    worst = min(worst, res.worst_margin)
                    n_runs += 1
    _ok(10, "noisy-target bound with recorded (eps, A)",
        f"{n_runs} runs, worst margin {worst:+.2e}")


def test_criterion_11_modulus_bound():
    # the sampled modulus never exceeds the true one, so it refutes any
    # (q, gamma) of lp_space that fails to bound the modulus
    ps = sorted(P_GRID + (1.05, 1.2, 8.0, 32.0, 800.0))
    worst = np.inf
    for p in ps:
        s = lp_space(p, 16)
        for k in range(1, 201):
            u = 0.01 * k
            slack = s.gamma * u ** s.q - empirical_modulus(s, u, 512, 23)
            worst = min(worst, slack)
            assert slack >= -1e-9
    _ok(11, "modulus bound over the admissible p range",
        f"{200 * len(ps)} grid points, p {ps[0]:g} to {ps[-1]:g}, "
        f"least slack {worst:.2e}")


def test_criterion_12_byte_identical_reruns(tmp_path):
    args = ["run", "--algo", "rwrga", "--space", "lp:p=3,n=16",
            "--dict", "random_gauss,N=64,seed=11", "--target", "a1,k=5,seed=13",
            "--weakness", "const:1.0", "--iters", "40"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.stat().st_size > 0
    _ok(12, "identical configs produce identical bytes",
        f"{a.stat().st_size} bytes compared")
