"""Exception hierarchy shared by all blgeo modules.

InputError covers everything a caller can fix (bad JSON, invalid data,
exceeded caps); the CLI maps it to exit code 1.  InternalError marks
conditions that valid inputs can never produce (a verified inequality
violation, a critical decomposition that does not close even with its
components whole); the CLI maps it to exit code 2.  A fact the
decomposition decided is not read again, so an owner weight sum off 1
or a restriction's defect above the threshold is reported, not raised.

This module is the JSON boundary, both ways.  On input, read checks a
JSON value against the shape its kind declares, as_int reads an integer
field, and as_array reads an array of the extents its domain sets.
Value conditions (finite, positive, orthonormal, sized to the domain)
stay in the constructors, which Python callers reach without JSON.  On
output, plain turns a report into JSON values: a report dataclass gives
its fields, an input kind its own to_json, and a number JSON cannot hold
(NaN, or a side that overflows a double) is an InputError naming its
field path, as read names a bad input.

It imports no numpy, so a command that needs no array (bt,
covers-induce) never loads it; as_array imports it when first called.
The two thresholds every report prints live here for the same reason;
subspace.py, which re-exports them, says what each one cuts.
"""

from __future__ import annotations

import dataclasses
import math
import sys

RANK_TOL = 1e-9
RESIDUAL_TOL = 1e-9


class BlgeoError(Exception):
    """Base class for all blgeo errors."""


class InputError(BlgeoError):
    """Invalid user input: bad values, malformed files, precondition failures."""


class CapError(InputError):
    """A documented size cap was exceeded (k, n, subset enumeration, ...)."""

    def __init__(self, cap_name, limit, actual):
        self.cap_name = cap_name
        self.limit = limit
        self.actual = actual
        super().__init__(f"cap '{cap_name}' exceeded: {actual} > {limit}")


class InternalError(BlgeoError):
    """A condition that should be impossible on valid inputs was detected."""


def as_int(value, name: str) -> int:
    """An integral number as int; InputError naming the field for anything
    else (1.5, "3", true, NaN), never a silent truncation."""
    try:
        if not isinstance(value, (bool, str)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{name} must be an integer, got {value!r}")


def as_array(value, shape: tuple, name: str) -> np.ndarray:
    """value as a float array of the given shape, None standing for any
    extent; an InputError naming the field for a ragged list or other
    extents, which numpy would report naming none."""
    import numpy as np

    try:
        out = np.asarray(value, dtype=float)
    except ValueError:  # a ragged list
        out = None
    if out is not None and out.shape == (0,) and len(shape) > 1:  # [] holds no rows
        out = out.reshape((0,) + tuple(want or 0 for want in shape[1:]))
    if out is None or out.ndim != len(shape) or any(
            want is not None and want != got for want, got in zip(shape, out.shape)):
        extents = ", ".join("any" if want is None else str(want) for want in shape)
        raise InputError(f"{name} must be an array of shape ({extents})")
    return out


def field_of(name: str, key: str) -> str:
    """The name of field key of the value called name: "datum" gives
    "datum entries", and "datum entries[1]" gives "datum entries[1].c"."""
    return f"{name}{'.' if ' ' in name else ' '}{key}"


def read(obj, shape, name: str):
    """obj as the JSON shape declares, every number a float; an InputError
    naming the field path (as in "datum entries[1].c") for anything else.

    A shape is float (a number; not a bool, nor an integer a double does
    not hold exactly), str, (float, str) (a weight: a number or an
    exact-rational string), [shape] (a list of that shape), or a dict of
    key to shape, "?" ending an optional key; {} is any object.
    """
    if isinstance(shape, dict):
        if type(obj) is not dict:
            raise InputError(f"{name} must be an object")
        out = dict(obj)
        for key, sub in shape.items():
            field = key.rstrip("?")
            if field in obj:
                out[field] = read(obj[field], sub, field_of(name, field))
            elif field == key:
                raise InputError(f"{name} needs the key {field!r}")
        return out
    if isinstance(shape, list):
        if type(obj) is not list:
            raise InputError(f"{name} must be a list")
        return [read(x, shape[0], f"{name}[{i}]") for i, x in enumerate(obj)]
    kinds = shape if isinstance(shape, tuple) else (shape,)
    if str in kinds and type(obj) is str:
        return obj
    if float in kinds and (type(obj) is float or type(obj) is int
                           and abs(obj) <= sys.float_info.max and float(obj) == obj):
        return float(obj)
    what = {float: "a double-precision number", str: "a string"}
    raise InputError(f"{name} must be {' or '.join(what[k] for k in kinds)}")


def plain(obj, name: str):
    """obj as JSON values: a report dataclass as the dict of its fields,
    an input kind (Subspace, datum, density, ...) as its to_json, tuples
    and lists element by element, sets as sorted lists, arrays whole.
    A non-finite number is an InputError naming its field path, as in
    "report conv_certificate[0].vertices"."""
    if hasattr(obj, "to_json"):
        return plain(obj.to_json(), name)
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: plain(value, field_of(name, key)) for key, value in obj.items()}
    if isinstance(obj, (set, frozenset)):
        obj = sorted(obj)
    if isinstance(obj, (tuple, list)):
        return [plain(x, f"{name}[{i}]") for i, x in enumerate(obj)]
    np = sys.modules.get("numpy")  # until numpy is loaded, no array exists
    if np is not None and isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            raise InputError(f"{name} is not finite: JSON cannot hold it")
        return obj.tolist()
    if np is not None and isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        raise InputError(f"{name} is {obj}: JSON cannot hold it")
    return obj
