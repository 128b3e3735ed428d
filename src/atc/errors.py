"""Exception hierarchy shared across the package, and its input checks."""

import operator
import sys

import numpy as np


class AtcError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AtcError):
    """Operands have incompatible shapes."""


class ValidationError(AtcError):
    """Input data violates a documented invariant."""


class InsufficientDataError(ValidationError):
    """A class has fewer rows than the episode requires."""


class ConfigError(ValidationError):
    """A configuration value is out of its allowed range."""


class ContractError(AtcError):
    """An API contract was violated (e.g. a backward pass over a forward pass
    run without record=True)."""


class EvaluationError(AtcError):
    """A checked function produced a non-finite value."""


class CodecError(AtcError):
    """A binary file failed to parse. Carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class UsageError(AtcError):
    """Bad command-line usage."""


_KINDS = {float: "a number", int: "an integer", bool: "true or false"}
_RULES = {">=": operator.ge, ">": operator.gt, "==": operator.eq}


def check_types(section: dict, types: dict, name: str) -> None:
    """Each key of `types` must be in `section` (an error calls it the
    checkpoint's `name` section) with a value of its type: bool, int, float
    (finite; neither of the last two a bool) or one of a tuple's strings, and
    within its rule if given as `(type, rule)`, e.g. `(float, ">= 0")`."""
    missing = [k for k in types if k not in section]
    if missing:
        raise ConfigError(f"checkpoint {name} lacks "
                          f"{', '.join(map(repr, missing))}")
    for key, kind in types.items():
        value, rule = section[key], ""
        if isinstance(kind, tuple) and kind[0] in _KINDS:
            kind, rule = kind
        op, _, bound = rule.partition(" ")
        # rule becomes the rule the value breaks, or ""
        if isinstance(kind, tuple):
            rule = "" if value in kind else f"one of {', '.join(kind)}"
        elif (isinstance(value, bool) != (kind is bool) or not isinstance(
                value, (int, float) if kind is float else kind)):
            rule = _KINDS[kind]
        elif kind is float and not abs(value) <= sys.float_info.max:
            rule = "finite"
        elif not op or _RULES[op](value, float(bound)):
            rule = ""
        if rule:
            raise ConfigError(f"{key} must be {rule}, got {value!r}")


def check_index(a, n: int, name: str, rows: int | None = None) -> np.ndarray:
    """`a` as an array: 1-D (else ShapeError), of `rows` entries if given,
    of integers in [0, n) (else ValidationError; not bool, float or < 0)."""
    a = np.asarray(a)
    if a.shape != (want := (a.size if rows is None else rows,)):
        raise ShapeError(f"{name} shape {a.shape} is not {want}")
    if a.dtype.kind not in "iu" or a.size and not 0 <= a.min() <= a.max() < n:
        raise ValidationError(f"{name} must be integers in [0, {n})")
    return a


def check_queries(queries, dim: int) -> np.ndarray:
    """`queries` as a float64 matrix, which must have `dim` columns."""
    F = np.asarray(queries, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != dim:
        raise ShapeError(f"queries shape {F.shape} incompatible with dim {dim}")
    return F
