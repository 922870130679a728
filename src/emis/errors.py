"""Exception hierarchy shared across the library.

Grouped by how the CLI maps them to exit codes: configuration problems
exit 2, data problems exit 3, failed checks exit 4.
"""


class EmisError(Exception):
    """Base class for all library errors."""


# -- configuration -----------------------------------------------------------

class ConfigError(EmisError):
    """Invalid configuration value or unusable option combination."""


class SpecInvalid(ConfigError):
    """Synthetic-data spec violates its own invariants."""


# -- shapes and numerics -----------------------------------------------------

class ShapeMismatch(EmisError):
    """Operands have incompatible dimensions."""


class NearZeroNorm(EmisError):
    """A vector that must be normalized has norm <= 1e-12 or NaN.

    ``row`` is the row of the first such norm when a block of norms was
    guarded.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class NonFiniteGradient(EmisError):
    """A gradient or checked value is NaN or infinite."""


class EmptyInput(EmisError):
    """A reduction over an empty collection."""


# -- data --------------------------------------------------------------------

class DataError(EmisError):
    """Base class for file and id resolution problems."""


class BadMagic(DataError):
    """File header has the wrong magic, version or an impossible size field."""


class TruncatedFile(DataError):
    """File or sidecar is shorter than its header promises."""


class DuplicateId(DataError):
    """The same id appears twice in one bank."""


class UnknownId(DataError):
    """An id does not resolve against the corresponding bank."""


class BadSplit(DataError):
    """A triplet record carries a split label outside {train, val, test}."""


class EmptySplit(DataError):
    """A required split contains no records."""


class MissingSubset(DataError):
    """Subset recall requested but a query has no candidate subset."""


class MissingCell(DataError):
    """An aggregate convention needs a metric cell that is absent."""


class NonFiniteData(DataError):
    """A file holds NaN or infinite values where finite ones are required."""


# -- checks ------------------------------------------------------------------

class CheckFailure(EmisError):
    """A verification command found a violation (exit code 4)."""
