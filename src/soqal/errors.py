"""Exception types shared across the package."""


class SoqalError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SoqalError):
    """Invalid configuration or a component used before it was set up."""


class DataLoadError(SoqalError):
    """A dataset file could not be parsed; the message names the position."""
