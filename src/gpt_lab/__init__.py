"""Toolkit for finite-dimensional generalized probabilistic theories:
joint measurability, measurement uncertainty measures, and entropy of
mixing for simplices, regular polygon theories, and the disc."""

__version__ = "0.1.0"

from .gpt_core import (
    Theory,
    StateVec,
    make_simplex,
    make_polygon,
    make_disc,
    polygon_radius,
    is_state,
    is_effect,
    eigenstate_of,
)
from .observables import (
    Observable,
    JointObservable,
    marginals,
    measure,
    fuzz,
    ideal_observables,
    discrete_metric,
    cyclic_metric,
)
from .numerics import (
    LinearProgram,
    LpNumericalError,
    LpResult,
    solve_lp,
    bisect,
    shannon_entropy,
)

__all__ = [
    "__version__",
    "Theory",
    "StateVec",
    "make_simplex",
    "make_polygon",
    "make_disc",
    "polygon_radius",
    "is_state",
    "is_effect",
    "eigenstate_of",
    "Observable",
    "JointObservable",
    "marginals",
    "measure",
    "fuzz",
    "ideal_observables",
    "discrete_metric",
    "cyclic_metric",
    "LinearProgram",
    "LpResult",
    "LpNumericalError",
    "solve_lp",
    "bisect",
    "shannon_entropy",
]
