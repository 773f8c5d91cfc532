"""Finite symmetric dictionaries, weak greedy selection, target generation.

A dictionary stores one representative per symmetric pair {g, -g}; selection
always scans both signs, encoded as a signed 1-based index (+i picks g_i,
-i picks -g_i).  Its atoms are the rows of one ``(N, n)`` array,
``Dictionary.matrix``: every scan, ``make_target`` (the one target
generator) and the signed-index lookup read it, and the projection takes a
set of atoms in the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .space import Element, LpSpace, check_functional, pnorm, pnorm_rows

DICTIONARY_KINDS = ("canonical", "random_gauss", "trig_grid", "coherent")


@dataclass
class Dictionary:
    """Ordered set of unit-norm atoms spanning the whole space.

    ``matrix`` is the ``(N, n)`` array of the atoms, one per row, N >= 1; a
    row whose lp norm is more than 1e-12 from 1 is rejected.  Treat instances
    as immutable after construction.
    """

    space: LpSpace
    matrix: np.ndarray = field(repr=False)
    kind_tag: str
    seed: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != self.space.n:
            raise ValueError(f"dictionary matrix must have shape (N, "
                             f"{self.space.n}), got {self.matrix.shape}")
        if self.matrix.shape[0] == 0:  # every scan takes a max over the atoms
            raise ValueError("empty dictionary: it needs at least one atom")
        if not np.isfinite(self.matrix).all():
            raise ValueError("dictionary atoms must be finite")
        # the scan's bracket, the error-reduction reference and the rate
        # bounds all take ||g|| = 1
        norms = pnorm_rows(self.space.p, self.matrix)
        off = np.flatnonzero(np.abs(norms - 1.0) > 1e-12)
        if off.size:
            raise ValueError(f"dictionary atoms must have unit lp norm: row "
                             f"{off[0]} has norm {norms[off[0]]:.17g}")

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def atom(self, signed_index: int) -> np.ndarray:
        """Atom for a signed 1-based index; the sign selects g or -g."""
        if signed_index == 0 or abs(signed_index) > len(self):
            raise IndexError(f"signed index {signed_index} out of range")
        v = self.matrix[abs(signed_index) - 1]
        return v if signed_index > 0 else -v

    def spec_string(self) -> str:
        return f"dict:{self.kind_tag},N={len(self)},seed={self.seed}"


@dataclass(frozen=True)
class TargetSpec:
    """How to generate a target: inside the hull, or near it with noise."""

    mode: str  # a1_sparse | a1_dense | general_plus_noise
    k: int = 1
    eps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("a1_sparse", "a1_dense", "general_plus_noise"):
            raise ValueError(f"unknown target mode {self.mode!r}")
        if not (self.eps >= 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps}")
        if self.mode != "general_plus_noise" and self.eps > 0.0:
            raise ValueError(f"{self.mode} target eps must be 0, got {self.eps}")
        if self.mode == "general_plus_noise" and self.eps > 1.0:
            raise ValueError(f"noisy target eps must be at most 1, got {self.eps}"
                             ": its A(eps) is 1, and the audit needs A(eps) >= eps")
        if self.seed < 0:
            raise ValueError(f"target seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class Target:
    """Generated target with its certificate ((signed_index, weight), ...)."""

    f: Element
    spec: TargetSpec
    certificate: Optional[tuple] = None

    @property
    def in_hull(self) -> bool:
        """Whether f lies in the hull A_1(D): false for a noisy target,
        also at eps 0."""
        return self.spec.mode != "general_plus_noise"

    @property
    def a_eps(self) -> float:
        """A(eps) of the certificate: 1, since every target lies within eps
        of the convex hull A_1(D) of the symmetrized dictionary."""
        return 1.0


def build_dictionary(space: LpSpace, kind: str, size: int, seed: int = 0) -> Dictionary:
    """Deterministically build a unit-norm, full-rank dictionary.

    Kinds: "canonical" (standard basis, cycled if size > n), "random_gauss"
    (normalized Gaussian draws), "trig_grid" (sampled cosine profiles),
    "coherent" (a chain of highly correlated atoms).
    """
    n = space.n
    if kind not in DICTIONARY_KINDS:
        raise ValueError(f"unknown dictionary kind {kind!r}")
    if size < n:
        raise ValueError(f"dictionary does not span: size {size} < dimension {n}")
    rng = np.random.default_rng(seed)

    if kind == "canonical":
        rows = np.eye(n)[np.arange(size) % n]
    elif kind == "random_gauss":
        rows = rng.standard_normal((size, n))
    elif kind == "trig_grid":
        i = np.arange(n)
        rows = np.array([np.cos(np.pi * j * (i + 0.5) / n) if j > 0 else np.ones(n)
                         for j in range(size)])
    else:  # coherent
        mix, noise_amp = 0.95, np.sqrt(1.0 - 0.95 ** 2)
        g = rng.standard_normal(n)
        g /= np.linalg.norm(g)
        rows = [g]
        for _ in range(size - 1):
            w = rng.standard_normal(n)
            w /= np.linalg.norm(w)
            g = mix * rows[-1] + noise_amp * w
            g /= np.linalg.norm(g)
            rows.append(g)
        rows = np.array(rows)

    rows = rows / pnorm_rows(space.p, rows)[:, None]
    if np.linalg.matrix_rank(rows) < n:
        raise ValueError("dictionary does not span the space")
    return Dictionary(space=space, matrix=rows, kind_tag=kind, seed=seed)


def greedy_select(F: np.ndarray, D: Dictionary, t: float,
                  rule: str = "exact_argmax", scores: np.ndarray = None) -> tuple:
    """Pick a signed atom with F(phi) >= t * max_g F(g).

    ``F`` is the functional as an ``(n,)`` array.  "exact_argmax" returns
    the maximizer (smallest index on ties, positive sign preferred);
    "threshold_first" returns the first atom in scan order clearing the
    threshold, which is what actually exercises t < 1.  ``scores``, when
    given, is ``D.matrix @ F``, already computed by the caller (as for
    ``dict_dual_norm``).
    """
    check_functional(F, D.space.n)
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    vals = D.matrix @ F if scores is None else scores
    if rule == "exact_argmax":
        i = int(np.argmax(np.abs(vals)))
        sign = 1 if vals[i] >= 0 else -1
        return sign * (i + 1), float(abs(vals[i]))
    if rule == "threshold_first":
        thr = t * float(np.max(np.abs(vals)))
        ok = (vals >= thr) | (-vals >= thr)
        i = int(np.argmax(ok))  # first True; the argmax atom always qualifies
        sign = 1 if vals[i] >= thr else -1
        return sign * (i + 1), float(sign * vals[i])
    raise ValueError(f"unknown selection rule {rule!r}")


def make_target(D: Dictionary, spec: TargetSpec) -> Target:
    """Generate the target an experiment runs on, certificate included.

    A strict convex combination of k signed atoms (all N for a1_dense),
    drawn from ``spec.seed``: weights uniform in [0.1, 1], normalized, so
    every atom in the certificate carries mass bounded away from zero.  A
    noisy target adds a random unit-norm direction times a magnitude
    uniform in [0, eps], both drawn from seed + 1, so it lies within eps of
    its certificate's combination.
    """
    size = len(D)
    k = size if spec.mode == "a1_dense" else spec.k
    if not (1 <= k <= size):
        raise ValueError(f"sparsity k={k} out of range for dictionary of size {size}")
    rng = np.random.default_rng(spec.seed)
    idx = rng.choice(size, size=k, replace=False)
    signs = rng.integers(0, 2, size=k) * 2 - 1
    w = rng.uniform(0.1, 1.0, size=k)
    w = w / w.sum()
    coords = (w[:, None] * signs[:, None] * D.matrix[idx]).sum(axis=0)
    cert = tuple((int(s * (i + 1)), float(wi)) for i, s, wi in zip(idx, signs, w))
    if spec.mode == "general_plus_noise" and spec.eps > 0:
        rng = np.random.default_rng(spec.seed + 1)
        d = rng.standard_normal(D.space.n)
        coords = coords + rng.uniform(0.0, spec.eps) * (d / pnorm(D.space.p, d))
    return Target(f=Element(coords=coords, space=D.space), spec=spec,
                  certificate=cert)
