"""Exception hierarchy for the Cereal reproduction.

All library errors derive from :class:`CerealError` so callers can catch one
base type. Subsystems raise the most specific subtype that applies.
"""


class CerealError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(CerealError):
    """An invalid or inconsistent configuration value was supplied."""


class HeapError(CerealError):
    """Raised for invalid operations on the simulated JVM heap."""


class FormatError(CerealError):
    """Raised when a serialized stream is malformed or cannot be decoded."""


class RegistrationError(CerealError):
    """A class/type was used with a serializer that requires registration."""


class TruncatedStreamError(FormatError):
    """The stream ended before a read could be satisfied.

    Carries the cursor ``offset`` where the read started, the number of
    bytes it ``needed``, and how many were actually ``available`` — the
    context an operator needs to tell a clipped transfer from a hostile
    truncation.
    """

    def __init__(self, offset: int, needed: int, available: int):
        self.offset = offset
        self.needed = needed
        self.available = available
        super().__init__(
            f"stream underflow: need {needed} bytes at offset {offset}, "
            f"have {available}"
        )


class MalformedVarintError(FormatError):
    """A varint was overlong, decoded outside the u64 value space, or
    decoded outside the range of the field it carries (an INT beyond
    int32)."""


class UnknownClassError(FormatError, RegistrationError):
    """A stream named a class ID the reader's registry does not hold.

    Subclasses both :class:`FormatError` (the bytes cannot be decoded) and
    :class:`RegistrationError` (the fix is registering the type), so both
    historical catch sites keep working. This is the register-before-decode
    security boundary: only pre-registered classes may ever be instantiated
    from a stream.
    """

    def __init__(self, class_id, detail: str = "", offset=None):
        self.class_id = class_id
        self.offset = offset
        message = f"unknown class ID {class_id}"
        if detail:
            message += f" ({detail})"
        if offset is not None:
            message += f" at stream offset {offset}"
        super().__init__(message)


class ResourceLimitError(FormatError):
    """A decode exceeded its :class:`DecodeLimits` budget.

    Raised *before* the offending allocation happens, so a hostile stream
    can name a 2^60-element array without the decoder ever reserving it.
    """

    def __init__(self, limit_name: str, requested, allowed):
        self.limit_name = limit_name
        self.requested = requested
        self.allowed = allowed
        super().__init__(
            f"decode budget exceeded: {limit_name} of {requested} "
            f"over limit {allowed}"
        )


class SchemaMismatchError(FormatError):
    """Writer and reader schemas for a class cannot be reconciled."""


class TransientError(CerealError):
    """A recoverable runtime fault: retrying (or re-executing) may succeed.

    Raised by the resilience layer when bounded retries are exhausted; the
    subtypes below identify what failed so callers can pick a recovery
    strategy (re-fetch, lineage re-execution, software fallback).
    """


class CorruptionError(TransientError, FormatError):
    """A checksummed stream frame failed verification.

    Subclasses both :class:`TransientError` (a re-fetch gets a clean copy)
    and :class:`FormatError` (the bytes are undecodable as received).
    """


class ExecutorLostError(TransientError):
    """An executor died mid-stage and its outputs are gone."""


class SimulationError(CerealError):
    """Raised when the cycle-level simulation reaches an invalid state."""


class CapacityError(SimulationError):
    """A fixed-capacity hardware structure (CAM/SRAM/queue) overflowed."""
