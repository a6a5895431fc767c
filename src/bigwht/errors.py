"""Exception hierarchy.

Two branches matter to callers: ``ValidationError`` (bad arguments,
violated invariants, malformed metadata; CLI exit code 3) and
``StorageError`` (anything that went wrong touching the disk; CLI
exit code 2).
"""


class BigWHTError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3


class ValidationError(BigWHTError):
    exit_code = 3


class StorageError(BigWHTError):
    exit_code = 2


class BadArguments(ValidationError):
    """Arguments violate an operation's preconditions."""


class OracleTooLarge(ValidationError):
    """Brute-force transform requested above the configured size limit."""


class OverflowBoundError(ValidationError):
    """Int64 magnitude bound M * 2**n < 2**63 does not hold."""


class InexactDivision(ValidationError):
    """Int64 inverse transform hit a coefficient not divisible by 2**n."""


class InvalidWorkerCount(ValidationError):
    """Worker count is not a power of two or is out of the valid range."""


class OutOfBounds(ValidationError):
    """Block specification exceeds the dataset bounds."""


class SizeMismatch(ValidationError):
    """Payload file size disagrees with the sidecar metadata."""


class BadMetadata(ValidationError):
    """Sidecar file missing, unparsable, or semantically invalid."""


class BadBlockSize(ValidationError):
    """I/O block size violates the planner constraints."""


class BadSpec(ValidationError):
    """Noisy-signal specification is internally inconsistent."""


class BadDims(ValidationError):
    """Linear map dimensions are invalid."""


class DimMismatch(ValidationError):
    """Signal dimension does not match the linear map."""


class EmptyReport(ValidationError):
    """Calibration was handed a report with no usable measurements."""


class PathExists(StorageError):
    """Refusing to overwrite an existing dataset."""


class DiskFull(StorageError):
    """Not enough free space for the requested allocation."""


class IoFailure(StorageError):
    """An I/O operation failed; the message carries the byte offset."""

