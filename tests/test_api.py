"""The package surface: every public name resolves, the Weyl-element
algebra and polynomial operators that the tests keep as oracles
(weyl_oracle.py, poly_oracle.py, localization_oracle.py) have no second
copy in the package, the caches, indexes and second paths that no
command read stay deleted, and the sparse arithmetic has one copy."""

import ast
import importlib
import pkgutil
from pathlib import Path

import chowring
from chowring import poly, schubert, weyl
from chowring.rootsystem import RootSystem, root_system

# Program code reaches none of these; the tests hold the oracle copies of
# the moved ones, and the others are gone.
MOVED_FUNCTIONS = {
    "multiply", "act_root", "reflection", "mult_simple_left", "inverse",
    "weyl_act", "divided_difference", "divided_difference_word",
    "positive_root_product", "_raw_reflect", "_raw_root_product",
    "embed_diagram", "simple_reflection", "LabeledBasis",
    "rank", "to_json", "load_root_system", "UsageError", "mult_simple_right",
    "RootIndex", "root_index"}
# Module state that is gone: the reduced-word memo (words are read off
# w^{-1} rho).
MOVED_MODULE_STATE = ((weyl, "_WORDS"),)
MOVED_METHODS = (
    (schubert._LocalizationEngine, "integrals"),
    (schubert._GiambelliEngine, "root_moves"),
    (weyl.WeylGroup, "element_at"),
    (weyl.WeylGroup, "identity"),
    (weyl.WeylGroup, "index_of"),
    (RootSystem, "root_coroot_pairing"),
    (RootSystem, "_check_reflection_convention"),
    (RootSystem, "root_to_weight"),
    (RootSystem, "reflect_root"),
    (schubert.ChowRing, "chevalley_mult"),
    (schubert.ChowRing, "giambelli_multiply"),
    (schubert.ChowRing, "_extend"),
    (poly._Calculus, "lin_pow"))
# Attributes that instances no longer carry: the Giambelli product memo,
# the per-J longest lengths and the expanded-lift memo, the W element index,
# unread names, and the localization engine's Atiyah-Bott weights (the
# oracle computes its own Euler classes).
MOVED_ATTRIBUTES = (
    (schubert._GiambelliEngine, ("_products", "_longest_lengths", "_delta_d")),
    (schubert._LocalizationEngine, ("euler", "lcms", "scales", "by_length")),
    (weyl.WeylGroup, ("_index", "_orbit", "rank")),
    (RootSystem, ("labels",)))


def _modules():
    return [importlib.import_module(f"chowring.{info.name}")
            for info in pkgutil.iter_modules(chowring.__path__)] + [chowring]


def test_every_public_name_resolves():
    assert len(set(chowring.__all__)) == len(chowring.__all__)
    assert [name for name in chowring.__all__ if not hasattr(chowring, name)] == []


def test_moved_names_are_not_defined_in_the_package():
    found = [f"{module.__name__}.{name}" for module in _modules()
             for name in sorted(MOVED_FUNCTIONS) if hasattr(module, name)]
    found += [f"{cls.__name__}.{name}" for cls, name in MOVED_METHODS
              if hasattr(cls, name)]
    found += [f"{module.__name__}.{name}" for module, name in MOVED_MODULE_STATE
              if hasattr(module, name)]
    system = root_system("A1")
    group = weyl.WeylGroup(system)
    instances = {RootSystem: system, weyl.WeylGroup: group,
                 schubert._GiambelliEngine: schubert._GiambelliEngine(group),
                 schubert._LocalizationEngine: schubert.ChowRing(system).localization}
    found += [f"{cls.__name__}().{name}" for cls, names in MOVED_ATTRIBUTES
              for name in names if hasattr(instances[cls], name)]
    assert found == []


def test_poly_does_not_import_weyl():
    imports = [node for node in ast.walk(ast.parse(Path(poly.__file__).read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {alias.name for node in imports for alias in node.names}
    names |= {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    assert not {"weyl", "chowring.weyl"} & names


def test_polynomials_share_the_combination_arithmetic():
    """One copy of the sparse arithmetic: polynomials, Chow elements and
    correspondences inherit it from ``poly._Combination``."""
    assert schubert._Combination is poly._Combination
    assert issubclass(poly.RationalPolynomial, poly._Combination)
    own = {"__add__", "__sub__", "__neg__", "__eq__", "__hash__", "is_zero", "_check"}
    assert own & vars(poly.RationalPolynomial).keys() == set()
