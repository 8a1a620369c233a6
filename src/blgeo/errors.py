"""Exception hierarchy shared by all blgeo modules.

InputError covers everything a caller can fix (bad JSON, invalid data,
exceeded caps); the CLI maps it to exit code 1.  InternalError marks
conditions that valid inputs can never produce (a verified inequality
violation, a singular KKT system, inconsistent criticality verdicts);
the CLI maps it to exit code 2.

as_int is the one reading of an integer field at the input boundary.
"""


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
