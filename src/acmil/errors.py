"""Exception types shared across the package.

Every error raised by public entry points derives from AcmilError so the
command-line layer can map failures to one-line causes with a stable prefix.
"""


class AcmilError(Exception):
    """Base class for all package errors."""

    kind = "error"


class ConfigError(AcmilError):
    """Invalid or inconsistent configuration (dims, ratios, missing splits)."""

    kind = "config"


class DataFormatError(AcmilError):
    """Malformed or inconsistent dataset / checkpoint file."""

    kind = "data-format"


class GenerationError(AcmilError):
    """Synthetic data generation could not satisfy its constraints."""

    kind = "generation"


class NumericsError(AcmilError):
    """Non-finite value produced where a finite one is required."""

    kind = "numerics"


class RunError(AcmilError):
    """Every run of an ablation sweep failed."""

    kind = "run"
