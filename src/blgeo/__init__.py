"""Structure and verification toolkit for geometric Brascamp-Lieb data."""

__version__ = "0.1.0"

__all__ = [
    "GeometricBLDatum",
    "RankOneDatum",
    "Subspace",
    "ValidationReport",
    "validate_datum",
    "__version__",
]


def __getattr__(name: str):
    # imported on first use: `python -m blgeo` imports this package first,
    # and a command that needs no datum (bt, covers-induce) loads no numpy
    if name == "Subspace":
        from .subspace import Subspace

        return Subspace
    if name in ("GeometricBLDatum", "RankOneDatum", "ValidationReport", "validate_datum"):
        from . import datum

        return getattr(datum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
