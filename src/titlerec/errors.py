"""Exception types shared across the pipeline.

Every error the package raises on purpose derives from ``TitlerecError`` so
the CLI can map any module failure to a nonzero exit with one parsable line.
"""


class TitlerecError(Exception):
    """Base class for all pipeline errors."""


# --- CSV ingestion / corpus preparation ---

class MissingColumnError(TitlerecError):
    pass


class MalformedRowError(TitlerecError):
    pass


class DuplicateArticleIdError(TitlerecError):
    pass


class UnparsableDateError(TitlerecError):
    pass


class UnknownColumnError(TitlerecError):
    pass


# --- tokenizer ---

class EmptyCorpusError(TitlerecError):
    pass


# --- encoder ---

class InvalidConfigError(TitlerecError):
    pass


class ShapeMismatchError(TitlerecError):
    pass


class PositionOutOfRangeError(TitlerecError):
    pass


class NoRecordedForwardError(TitlerecError):
    pass


class UnreadPositionError(TitlerecError):
    """A loss asked for a hidden state its forward pass did not compute."""


# --- training objectives ---

class NothingToMaskError(TitlerecError):
    pass


class InventoryTooSmallError(TitlerecError):
    pass


class EmptyPlanError(TitlerecError):
    pass


class UnknownArticleError(TitlerecError):
    pass


class EmptyBatchError(TitlerecError):
    pass


class NonFiniteComponentError(TitlerecError):
    pass


# --- embedding index ---

class DegenerateEmbeddingError(TitlerecError):
    pass


class KTooLargeError(TitlerecError):
    pass


class InsufficientCandidatesError(TitlerecError):
    pass


# --- evaluation ---

class EmptyTruthError(TitlerecError):
    pass


class DuplicatePredictionError(TitlerecError):
    pass


class NoScorableCustomersError(TitlerecError):
    pass


class DuplicateCustomerError(TitlerecError):
    pass


class InvalidRowError(TitlerecError):
    pass


class FormatViolationError(TitlerecError):
    pass


class UnknownCustomerError(TitlerecError):
    pass


# --- persisted artifacts / CLI ---

class ArtifactFormatError(TitlerecError):
    """A persisted artifact (vocab, checkpoint, index, TSV) failed to parse."""


class CheckpointMismatchError(ArtifactFormatError):
    """Checkpoint was produced under a different encoder configuration."""


class MissingArtifactError(TitlerecError):
    pass


class InputFileError(TitlerecError):
    pass


class WorkdirLockedError(TitlerecError):
    pass
