"""Exception types shared across the library.

The CLI maps ``ConfigError``/``DomainError`` (bad inputs) to exit code 1 and
``IntegrationError`` (numerical failure) to exit code 2.
"""


class ConfigError(ValueError):
    """A parameter record or config file failed validation."""


class DomainError(ValueError):
    """An operation was called with arguments outside its domain."""


class IntegrationError(RuntimeError):
    """A quadrature did not reach its target tolerance."""


class OscillatoryIntegrationError(IntegrationError):
    """The inversion's u grid failed on a converged radial profile; callers
    may fall back to the beta fit, which reads that profile's real moments."""
