"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: config/usage errors exit 2,
data errors exit 3, numeric failures exit 4.
"""


class ConfigError(ValueError):
    """Invalid configuration value or violated config invariant."""


class DimensionError(ValueError):
    """Tensor shapes incompatible with the requested operation."""


class ContractError(RuntimeError):
    """An internal precondition was violated by the caller."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


class CacheIntegrityError(RuntimeError):
    """Attention tried to read a KV slot that is not filled.

    This is a hard failure by design: silent reads of stale or empty
    cache slots would corrupt generation without any visible symptom.
    """


class DataError(ValueError):
    """Unreadable or malformed external data (corpus, checkpoint)."""


class ChecksumError(DataError):
    """Checkpoint payload does not match its recorded checksum."""
