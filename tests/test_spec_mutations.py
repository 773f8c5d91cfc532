"""Seeded mutations of the CLI's example specs.

Every mutated spec either parses or raises ``ValueError``, which ``main``
turns into exit code 2.  ``mutations`` is also the corpus for comparing two
versions of the parsers: the same seed draws the same specs.
"""

import random

import pytest

from lpgreedy import harness

EXAMPLES = {
    "parse_space": ("lp:p=2.5,n=16", "p=3,n=4", "lp:p=1.5,n=32"),
    "parse_dict_spec": ("dict:random_gauss,N=256,seed=7",
                        "canonical,N=8,seed=0", "canonical,seed=2",
                        "trig_grid,N=24"),
    "parse_target_spec": ("target:a1,k=16,seed=3", "a1dense,seed=2",
                          "target:noisy,k=4,eps=0.05,seed=1", "a1,k=3"),
    "parse_weakness": ("const:0.5", "pow:1.0,0.5", "list:1,0.5,0.25"),
    "parse_errors": (
        "err:delta=pow:0.1,1.1,eta=const:0.05,eps=derived,seed=5",
        "delta=prop72auto,eta=prop72auto,eps=list:0.5,0.1",
        "err:delta=const:0,eta=list:0.1,0.05",
        "err:delta=prop72auto,eta=prop72auto"),
}

# single characters and whole tokens that specs are made of
PIECES = (list("0123456789.,:=-+e ") + ["x", "nan", "inf", "1e999", "N=", "k=",
          "p=", "n=", "eps=", "seed=", "delta=", "eta=", "const:", "pow:",
          "list:", "prop72auto", "derived", "lp:", "dict:", "target:", "err:",
          "a1", "a1dense", "noisy"])


def _mutate(spec: str, rng: random.Random) -> str:
    """One edit of ``spec``: a character or piece inserted, deleted or
    replaced, or a comma-separated field dropped, doubled or swapped."""
    op = rng.randrange(6)
    i = rng.randrange(len(spec) + 1)
    if op == 0:
        return spec[:i] + rng.choice(PIECES) + spec[i:]
    if op == 1:
        return spec[:i] + spec[i + 1:]
    if op == 2:
        return spec[:i] + rng.choice(PIECES) + spec[i + 1:]
    fields = spec.split(",")
    j = rng.randrange(len(fields))
    if op == 3:
        del fields[j]
    elif op == 4:
        fields.insert(j, fields[j])
    else:
        k = rng.randrange(len(fields))
        fields[j], fields[k] = fields[k], fields[j]
    return ",".join(fields)


def mutations(name: str, count: int, seed: int) -> list:
    """``count`` specs for the parser ``name``: each an example spec after
    one to three edits, drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    out = []
    for _ in range(count):
        spec = rng.choice(EXAMPLES[name])
        for _ in range(rng.randint(1, 3)):
            spec = _mutate(spec, rng)
        out.append(spec)
    return out


@pytest.mark.parametrize("name", list(EXAMPLES))
def test_mutated_specs_parse_or_are_usage_errors(name):
    parse = getattr(harness, name)
    accepted = 0
    for spec in mutations(name, 2000, seed=0):
        try:
            parse(spec)
            accepted += 1
        except ValueError:
            pass
    # the corpus reaches both sides of each parser
    assert 0 < accepted < 2000


@pytest.mark.parametrize("spec,form", [
    ("delta=prop72auto,eta=prop72auto:", "prop72auto"),
    # a ':' typed for ',' would hide the eps field behind prop72auto
    ("delta=prop72auto,eta=prop72auto:eps=list:0.5,0.1", "prop72auto"),
    ("delta=const:0,eta=const:0,eps=derived:1", "derived")])
def test_kinds_without_values_take_none(spec, form):
    with pytest.raises(ValueError, match=f"does not match the form {form}$"):
        harness.parse_errors(spec)
