"""Exception types shared across the package."""


class SoqalError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SoqalError):
    """Invalid configuration or input file, or a component used before it
    was set up; the message names the key, or the file and position."""
