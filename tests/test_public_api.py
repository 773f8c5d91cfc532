"""The package's public names and signatures: each name resolves, none
appears twice, and removed names and parameters stay removed."""

import importlib
import inspect

import pytest

import lpgreedy


def test_every_exported_name_resolves():
    missing = [name for name in lpgreedy.__all__
               if not hasattr(lpgreedy, name)]
    assert not missing


def test_no_exported_name_appears_twice():
    assert len(lpgreedy.__all__) == len(set(lpgreedy.__all__))


@pytest.mark.parametrize("name,module", [
    # a functional is a plain (n,) array; F(g) is F @ g
    ("DualFunctional", "space"), ("apply_functional", "space"),
    ("PerturbedFunctional", "perturbation"),
    # no run, audit or bound reads the scale-equation root; every bound
    # writes gamma u^q, and the sampled modulus is an oracle of
    # lpgreedy.selftest
    ("xi_root", "space"), ("smoothness_bound", "space"),
    ("empirical_modulus", "space"), ("_modulus_sample", "space"),
    # make_target is the one target generator
    ("sample_a1_target", "dictionary"), ("perturb_target", "dictionary")])
def test_removed_name_is_gone(name, module):
    assert name not in lpgreedy.__all__
    assert not hasattr(lpgreedy, name)
    assert not hasattr(importlib.import_module("lpgreedy." + module), name)


def test_solver_config_is_gone():
    # each solver setting is a keyword of the function that reads it or a
    # constant of lpgreedy.solvers
    assert "SolverConfig" not in lpgreedy.__all__
    assert not hasattr(lpgreedy, "SolverConfig")
    assert not hasattr(lpgreedy.solvers, "SolverConfig")


@pytest.mark.parametrize("function,removed", [
    ("algorithms.run_greedy", "cfg"), ("perturbation.run_awbga", "cfg"),
    ("diagnostics.verify_rates", "slack"), ("solvers.dense_line_min", "n_grid"),
    ("dictionary.TargetSpec", "a_eps"), ("solvers.chebyshev_project", "cfg"),
    ("solvers.dense_line_min", "cfg"), ("solvers.line_search", "cfg"),
    ("solvers.bracket_minimum", "cfg"), ("solvers.minimize_2d", "cfg"),
    ("diagnostics.audit_conditions", "tol_set"),
    ("diagnostics.error_reduction_margins", "a_eps"),
    ("diagnostics.error_reduction_margins", "eps"),
    # inputs hold only what they cannot derive: in_hull follows the
    # target mode, and q, gamma and p' follow p (p' follows q)
    ("dictionary.Target", "f_clean"), ("dictionary.Target", "in_hull"),
    ("diagnostics.BoundSpec", "p_conj"), ("space.LpSpace", "q"),
    ("space.LpSpace", "gamma"), ("space.LpSpace", "p_conj")])
def test_removed_parameter_is_gone(function, removed):
    mod, name = function.split(".")
    obj = getattr(importlib.import_module("lpgreedy." + mod), name)
    assert removed not in inspect.signature(obj).parameters


def test_experiment_config_is_gone():
    # run and sweep call run_greedy, which checks each run option itself
    harness = importlib.import_module("lpgreedy.harness")
    assert not hasattr(harness, "ExperimentConfig")
    assert not hasattr(harness, "execute")
    assert "ExperimentConfig" not in lpgreedy.__all__


@pytest.mark.parametrize("driver", [lpgreedy.run_greedy, lpgreedy.run_awbga])
def test_driver_options_are_keyword_only(driver):
    # a stale positional solver config or error schedule raises instead of
    # binding to an option; run_greedy's options start at its errors
    params = list(inspect.signature(driver).parameters.values())
    first = [p.name for p in params].index(
        "errors" if driver is lpgreedy.run_greedy else "max_m")
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[first:])
