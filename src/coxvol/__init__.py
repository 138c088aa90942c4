"""Admissibility, classification, realization and volume of labeled
right-angled-or-sharper hyperbolic polyhedra."""

from .andreev import ALLOW_IDEAL, STRICT_COMPACT, AndreevReport, check
from .census import (CensusRow, PyramidTableDiff, ThreeThreesReport,
                     cube_three_threes, enumerate_labelings, pyramid_census)
from .circuits import Circuit, circuits_up_to, enumerate_circuits, separating_triangles
from .corpus import CORPUS, load
from .haken import HakenVerdict, classify
from .lobachevsky import ideal_tetrahedron_volume, lob
from .poly_model import (AbstractPolyhedron, LabeledPolyhedron, ParseError,
                         ValidationReport, automorphisms, parse_polyhedron,
                         serialize_polyhedron, validate)
from .realization import Realization, RealizationError, dof_audit, edge_lengths, realize
from .volume import DeformationPath, VolumeResult, default_path, schlafli_volume

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
    "DeformationPath", "VolumeResult", "default_path", "schlafli_volume",
]
