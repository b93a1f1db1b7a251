"""Finite-outcome observables: construction, validation, fuzzing, statistics."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gpt_core import Theory, is_effect

CLIP_HARD = 1e-6


def discrete_metric(k: int) -> np.ndarray:
    return 1.0 - np.eye(k)


def cyclic_metric(k: int) -> np.ndarray:
    """Integer distance on a k-cycle."""
    d = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            d[a, b] = min(abs(a - b), k - abs(a - b))
    return d


def _check_metric(d: np.ndarray) -> None:
    k = d.shape[0]
    if d.shape != (k, k) or np.any(np.abs(d - d.T) > 1e-12):
        raise ValueError("metric must be a symmetric square matrix")
    if np.any(np.abs(np.diag(d)) > 1e-12) :
        raise ValueError("metric diagonal must be zero")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if d[a, c] > d[a, b] + d[b, c] + 1e-12:
                    raise ValueError("metric violates the triangle inequality")


@dataclass
class Observable:
    """Ordered effects summing to the unit effect, with an optional outcome
    metric (discrete metric by default where needed)."""

    theory: Theory
    effects: list
    metric: np.ndarray | None = None
    atol: float = 1e-10  # widen for effects recovered from numerical solvers

    def __post_init__(self):
        self.effects = [np.asarray(e, float) for e in self.effects]
        total = np.sum(self.effects, axis=0)
        if np.max(np.abs(total - self.theory.unit_effect)) > self.atol:
            raise ValueError("effects do not sum to the unit effect")
        for e in self.effects:
            if not is_effect(self.theory, e, tol=max(1e-8, self.atol)):
                raise ValueError("invalid effect in observable")
        if self.metric is not None:
            self.metric = np.asarray(self.metric, float)
            if self.metric.shape[0] != len(self.effects):
                raise ValueError("metric size mismatch")
            _check_metric(self.metric)

    def __len__(self):
        return len(self.effects)

    def get_metric(self) -> np.ndarray:
        if self.metric is not None:
            return self.metric
        return discrete_metric(len(self.effects))


@dataclass
class JointObservable:
    """Effects on a product outcome grid (a, b)."""

    theory: Theory
    grid: list  # list of rows, each a list of effect vectors
    atol: float = 1e-8

    def __post_init__(self):
        self.grid = [[np.asarray(e, float) for e in row] for row in self.grid]
        total = np.sum([e for row in self.grid for e in row], axis=0)
        if np.max(np.abs(total - self.theory.unit_effect)) > self.atol:
            raise ValueError("joint grid does not sum to the unit effect")

    def shape(self):
        return (len(self.grid), len(self.grid[0]))

    def cell(self, a: int, b: int) -> np.ndarray:
        return self.grid[a][b]


def marginals(j: JointObservable, atol: float = 1e-8) -> tuple[Observable, Observable]:
    na, nb = j.shape()
    first = [np.sum([j.grid[a][b] for b in range(nb)], axis=0) for a in range(na)]
    second = [np.sum([j.grid[a][b] for a in range(na)], axis=0) for b in range(nb)]
    return (
        Observable(j.theory, first, atol=atol),
        Observable(j.theory, second, atol=atol),
    )


def measure(f: Observable, w) -> np.ndarray:
    """Outcome distribution of ``f`` on state ``w``.

    Entries are clipped within +-1e-9 and renormalized; violations beyond
    1e-6 raise instead of being papered over.
    """
    w = np.asarray(w, float)
    if w.shape != (f.theory.dim,):
        raise ValueError("state dimension mismatch")
    p = np.array([f.theory.pair(e, w) for e in f.effects])
    if np.any(p < -CLIP_HARD) or np.any(p > 1.0 + CLIP_HARD):
        raise ValueError(f"probabilities out of range: {p}")
    p = np.clip(p, 0.0, 1.0)
    s = p.sum()
    if abs(s - 1.0) > CLIP_HARD:
        raise ValueError("probabilities do not sum to 1")
    return p / s


def fuzz(f: Observable, lam: float) -> Observable:
    """lam * f + (1 - lam) * {u/2, u/2} for a binary observable."""
    if len(f.effects) != 2:
        raise ValueError("fuzz is defined for binary observables")
    if not (0.0 <= lam <= 1.0):
        raise ValueError("mixing weight must lie in [0, 1]")
    u = f.theory.unit_effect
    effs = [lam * e + 0.5 * (1.0 - lam) * u for e in f.effects]
    return Observable(f.theory, effs, metric=f.metric)


def ideal_observables(t: Theory) -> list[Observable]:
    """All binary ideal observables {e, u - e} built from sums of extreme
    effects, deduplicated up to relabeling.

    Sums of up to two extreme effects are tried and validated; valid
    non-singleton sums only occur for simplices (binary coarse-grainings).
    For Simplex(d) the full d-outcome delta observable is included, and for
    Polygon(3) the three-outcome {e0, e1, e2}.  The trivial observable {u}
    is excluded.  For the disc the extreme effects w/2 at its
    ``cone_states`` w are used.
    """
    u = t.unit_effect
    out: list[Observable] = []
    seen: set = set()

    def key(e):
        a = tuple(np.round(e, 10))
        b = tuple(np.round(u - e, 10))
        return min(a, b)  # canonical up to swapping the two outcomes

    def push_binary(e):
        e = np.asarray(e, float)
        comp = u - e
        if np.max(np.abs(comp)) < 1e-12 or np.max(np.abs(e)) < 1e-12:
            return  # trivial {u}
        if not (is_effect(t, e) and is_effect(t, comp)):
            return
        k = key(e)
        if k in seen:
            return
        seen.add(k)
        out.append(Observable(t, [e, comp]))

    if t.kind == "Disc":
        for w in t.cone_states():
            push_binary(0.5 * w)
        return out

    ext = t.extreme_effects()
    k = ext.shape[0]
    for i in range(k):
        push_binary(ext[i])
    for i, j in itertools.combinations(range(k), 2):
        push_binary(ext[i] + ext[j])

    if t.kind == "Simplex":
        out.append(Observable(t, [ext[i] for i in range(k)]))
    if t.kind == "Polygon" and t.n == 3:
        out.append(Observable(t, [ext[i] for i in range(3)]))
    return out
