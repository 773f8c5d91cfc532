"""The shared oracle suite must pass in full; the CLI selftest subcommand
exposes the same checks."""

from lpgreedy.selftest import run_all

# a dropped or renamed check fails here instead of passing unseen
CHECK_NAMES = {
    "norm euclidean 3-4-5",
    "norm p4 direct formula",
    "peak functional hilbert",
    "peak functional p4 axis value",
    "dict dual norm vs exhaustive scan",
    "empirical modulus below hilbert closed form",
    "dense line min quadratic vertex",
    "ray minimiser p4 symmetric closed form",
    "two-direction solve vs closed forms",
    "projection vs normal equations",
    "projection p4 vs dense grid",
    "wcga trajectory vs orthogonal-greedy oracle",
    "wdga on the canonical basis vs coordinate pursuit",
    "slack bound spot value",
    "slack bound vs numeric minimization",
    "rate constant hull bound",
    "rate constant constant-weakness bound",
    "rate constant approximate-class bound",
    "rate bound norm-scan at start",
    "greedy selection clears its threshold",
    "perturbed functional admissibility",
    "relaxed minimization stays inside its budget",
    "error-reduction factor vs numeric minimization",
}


def test_all_oracle_checks_pass():
    results = run_all()
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failures, "oracle mismatches:\n" + "\n".join(failures)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert set(names) == CHECK_NAMES
