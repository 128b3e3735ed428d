"""Exception hierarchy shared across the package."""


class AtcError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AtcError):
    """Operands have incompatible shapes."""


class ValidationError(AtcError):
    """Input data violates a documented invariant."""


class InsufficientDataError(ValidationError):
    """A class has fewer rows than the episode requires."""


class ConfigError(AtcError):
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
