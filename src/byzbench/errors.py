"""Exception types shared across the package."""


class ByzBenchError(Exception):
    """Base class for all byzbench errors."""


class EmptySelection(ByzBenchError):
    """An operation received an empty (or zero-weight) selection of clients or samples."""


class DimensionMismatch(ByzBenchError):
    """Vector lengths or counts disagree."""


class InvalidRatio(ByzBenchError):
    """A Byzantine weight ratio is out of range or unreachable."""


class InsufficientClients(ByzBenchError):
    """Too few clients for the requested operation (e.g. Krum needs M >= f + 3)."""


class InvalidReference(ByzBenchError):
    """A reference gradient is unusable (e.g. zero vector for trust scoring)."""


class MissingReference(ByzBenchError):
    """A reference gradient was required but not supplied."""


class InvalidSelectionSize(ByzBenchError):
    """Per-pass keep count N is outside [1, M]."""


class InfeasiblePartition(ByzBenchError):
    """The requested client partition cannot be satisfied."""


class FormatError(ByzBenchError):
    """An input file is malformed: an IDX dataset file or a summary JSON."""


class InvalidField(ValueError):
    """A spec field holds an invalid value; carries the field's name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class ConfigError(ByzBenchError):
    """A config document is invalid; carries the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class IoError(ByzBenchError):
    """An output file could not be written; carries the path."""

    def __init__(self, path: str, message: str):
        self.path = str(path)
        super().__init__(f"{path}: {message}")


class DivergenceDetected(ByzBenchError):
    """A client upload or the model parameters became non-finite."""
