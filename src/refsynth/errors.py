"""Exception types shared across the toolchain.

The CLI maps these onto process exit codes: configuration problems exit 2,
bad input data exits 3, and legitimately empty results exit 4.
"""


class RefsynthError(Exception):
    """Base class for all toolchain errors."""


class ConfigError(RefsynthError):
    """Invalid or inconsistent configuration."""


class DataError(RefsynthError):
    """Input data violates a documented contract."""


class MalformedDocument(DataError):
    """Input document could not be parsed at all."""


class SchemaViolation(DataError):
    """Parsed document does not satisfy the documented schema."""


class DanglingEdge(DataError):
    """A relation references an object id that does not exist in its image."""


class SlotMismatch(DataError):
    """A template references a slot the reasoning tree cannot fill."""


class KeyMismatch(DataError):
    """Two keyed collections that must align have different key sets."""


class NoCandidates(DataError):
    """Region selection was asked to choose from an empty candidate pool."""


class DimensionMismatch(DataError):
    """Vectors that must share a dimensionality do not."""


class NoPeers(DataError):
    """Negative sampling found no same-category peer to draw from."""


class EmptyResult(RefsynthError):
    """An operation legitimately produced nothing to work with."""


class EmptyCorpus(EmptyResult):
    """The corpus holds no usable content for the requested operation."""


class EmptyInput(EmptyResult):
    """An aggregate operation received an empty collection."""
