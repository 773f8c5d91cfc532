"""The package's public names: each resolves, and none appears twice."""

import importlib

import pytest

import lpgreedy


def test_every_exported_name_resolves():
    missing = [name for name in lpgreedy.__all__
               if not hasattr(lpgreedy, name)]
    assert not missing


def test_no_exported_name_appears_twice():
    assert len(lpgreedy.__all__) == len(set(lpgreedy.__all__))


@pytest.mark.parametrize("name,module", [
    ("DualFunctional", "space"), ("apply_functional", "space"),
    ("PerturbedFunctional", "perturbation")])
def test_functional_wrappers_are_gone(name, module):
    # a functional is a plain (n,) array; F(g) is F @ g
    assert name not in lpgreedy.__all__
    assert not hasattr(lpgreedy, name)
    assert not hasattr(importlib.import_module("lpgreedy." + module), name)

