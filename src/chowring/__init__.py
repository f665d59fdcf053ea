"""Exact Schubert calculus for Chow rings of projective homogeneous
varieties, from Cartan-matrix data up to the correspondence algebra, with
a verification pipeline for the two 15-dimensional F4 varieties."""

from .correspondence import (Correspondence, compose, diagonal, intersect,
                             mod_reduce, realize, transpose)
from .f4pipeline import get_f4_varieties, run_f4_verification
from .poly import RationalPolynomial, format_polynomial, parse_polynomial
from .rootsystem import (CartanMatrix, InfiniteRootSystemError, InputError, RootSystem,
                         build_root_system, root_system)
from .schubert import ChowElement, ChowRing, SchubertClass, get_chow_ring
from .weyl import WeylElement, WeylGroup, get_weyl_group

__version__ = "0.1.0"

__all__ = [
    "CartanMatrix", "RootSystem", "InputError", "InfiniteRootSystemError",
    "build_root_system", "root_system",
    "WeylElement", "WeylGroup", "get_weyl_group",
    "RationalPolynomial", "format_polynomial", "parse_polynomial",
    "SchubertClass", "ChowElement", "ChowRing", "get_chow_ring",
    "Correspondence", "compose", "transpose", "diagonal", "intersect",
    "mod_reduce", "realize",
    "get_f4_varieties", "run_f4_verification",
    "__version__",
]
