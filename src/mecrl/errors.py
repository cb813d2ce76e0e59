"""The error a configuration raises for an out-of-range value."""


class ConfigError(ValueError):
    """A configuration invariant is violated."""
