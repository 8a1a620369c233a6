"""Structure and verification toolkit for geometric Brascamp-Lieb data."""

from .datum import GeometricBLDatum, RankOneDatum, ValidationReport, validate_datum
from .subspace import Subspace

__version__ = "0.1.0"

__all__ = [
    "GeometricBLDatum",
    "RankOneDatum",
    "Subspace",
    "ValidationReport",
    "validate_datum",
    "__version__",
]
