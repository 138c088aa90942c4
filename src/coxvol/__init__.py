"""Admissibility, classification, realization and volume of labeled
right-angled-or-sharper hyperbolic polyhedra.

The combinatorial modules load here; the four that use numpy load on the
first use of one of their names (PEP 562), so ``import coxvol`` and the
admissibility and Large/Small stages never import numpy.
"""

import importlib

from .andreev import ALLOW_IDEAL, STRICT_COMPACT, AndreevReport, check
from .circuits import Circuit, circuits_up_to, enumerate_circuits, separating_triangles
from .corpus import CORPUS, load
from .haken import HakenVerdict, classify
from .poly_model import (AbstractPolyhedron, LabeledPolyhedron, ParseError,
                         ValidationReport, automorphisms, parse_polyhedron,
                         serialize_polyhedron, validate)

# the names of the numeric modules, by module
_LAZY = {
    "census": ("CensusRow", "PyramidTableDiff", "ThreeThreesReport", "cube_three_threes",
               "enumerate_labelings", "pyramid_census"),
    "lobachevsky": ("ideal_tetrahedron_volume", "lob"),
    "realization": ("Realization", "RealizationError", "dof_audit", "edge_lengths", "realize"),
    "volume": ("DeformationPath", "VolumeResult", "orthoscheme_volume", "schlafli_volume"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "ALLOW_IDEAL", "STRICT_COMPACT", "AndreevReport", "check",
    "CensusRow", "PyramidTableDiff", "ThreeThreesReport", "cube_three_threes",
    "enumerate_labelings", "pyramid_census",
    "Circuit", "circuits_up_to", "enumerate_circuits", "separating_triangles",
    "CORPUS", "load",
    "HakenVerdict", "classify",
    "ideal_tetrahedron_volume", "lob",
    "AbstractPolyhedron", "LabeledPolyhedron", "ParseError", "ValidationReport",
    "automorphisms", "parse_polyhedron", "serialize_polyhedron", "validate",
    "Realization", "RealizationError", "dof_audit", "edge_lengths", "realize",
    "DeformationPath", "VolumeResult", "orthoscheme_volume", "schlafli_volume",
]


def __getattr__(name):
    if name in _LAZY:  # the module itself, an attribute once it is imported
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_MODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function, as an import would
    return value
