"""Deformation quantization of locally noncommutative flat space-times:
jet arithmetic, vertical Poisson structures, vertical star products, and
deformed (coherent) states, truncated at finite order in the deformation
parameter."""

from .formal import FormalSeries, is_formally_positive
from .jets import Jet, jet_constant, jet_variable
from .poisson import (
    VerticalMultivector,
    build_ball_compact_theta,
    build_commuting_compact_theta,
    constant_theta,
    jacobi_defect,
)
from .smoothfn import SmoothMap, eval_jet, evaluate
from .starprod import (
    StarProduct,
    associativity_defect,
    general_vertical,
    moyal_constant,
    moyal_fiberwise,
    pair_picture_star,
)
from .states import CoherentState, QuadraticObservable, bare_delta, lorentz_square

__all__ = [
    "CoherentState",
    "FormalSeries",
    "Jet",
    "QuadraticObservable",
    "SmoothMap",
    "StarProduct",
    "VerticalMultivector",
    "associativity_defect",
    "bare_delta",
    "build_ball_compact_theta",
    "build_commuting_compact_theta",
    "constant_theta",
    "eval_jet",
    "evaluate",
    "general_vertical",
    "is_formally_positive",
    "jacobi_defect",
    "jet_constant",
    "jet_variable",
    "lorentz_square",
    "moyal_constant",
    "moyal_fiberwise",
    "pair_picture_star",
]

__version__ = "0.1.0"
