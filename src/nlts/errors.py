"""Exception hierarchy. Everything raised on purpose by this package derives from NltsError."""


class NltsError(Exception):
    """Base class for all errors raised by nlts."""


class AggregationError(NltsError):
    """Sample paths are ragged, empty, or contain non-finite values."""


class DegenerateSeriesError(NltsError):
    """Series unusable for the requested operation, e.g. constant history with noise enabled."""


class NonFiniteError(NltsError):
    """NaN or infinity where a finite value is required."""


class DigitOverflowError(NltsError):
    """Encoded value cannot be represented: too many digits, or a sign with no sign token."""


class ParseError(NltsError):
    """No forecast steps could be recovered from model output.

    Carries the ParseReport for the failed attempt in .report when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BackendError(NltsError):
    """Base class for errors while talking to a generation backend."""


class TransportError(BackendError):
    """Network failure, exhausted retries, or a cassette miss in replay mode."""


class RateLimitError(BackendError):
    """Rate limited and out of retry budget."""


class ProtocolError(BackendError):
    """Response arrived but does not match the wire contract."""


class AuthError(BackendError):
    """Credentials rejected. Never retried."""


class InsufficientSamplesError(NltsError):
    """Fewer than half the requested sample paths parsed to full horizon."""


class CholeskyError(NltsError):
    """Kernel matrix not factorizable even after jitter escalation."""


class ConfigError(NltsError):
    """An input the caller supplied does not fit: a setting out of its range,
    settings that contradict each other, a series too short for its split,
    arrays of mismatched shapes, or an input file that cannot be read or
    parsed or does not match its schema."""
