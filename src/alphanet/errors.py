"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1,
file/format problems exit 2, numeric failures exit 3.
"""


class AlphanetError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AlphanetError):
    """Invalid configuration value, flag, or inconsistent run setup."""


class ShapeError(AlphanetError):
    """Operands with incompatible dimensions; message names both shapes."""


class FormatError(AlphanetError):
    """Malformed tensor file. Names the file and carries the byte offset of
    the failure."""

    def __init__(self, path, message: str, offset: int):
        super().__init__(f"{path}: {message} (at byte offset {offset})")
        self.offset = offset


class IntegrityError(AlphanetError):
    """Stored artifacts disagree with each other (manifest vs tensors)."""


class DataError(AlphanetError):
    """Dataset violates a precondition (e.g. a class with no train samples)."""


class NumericError(AlphanetError):
    """Non-finite value produced where a finite one is required."""


class DegenerateAlphaError(NumericError):
    """Alpha normalization attempted on an (effectively) all-zero vector."""


class TrainingError(AlphanetError):
    """Training diverged or aborted; message reports epoch/batch."""
