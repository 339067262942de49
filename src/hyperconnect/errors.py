"""Exception hierarchy.

Everything raised on purpose derives from HyperconnectError so callers can
catch library failures without swallowing programming errors.
"""


class HyperconnectError(Exception):
    """Base class for all library errors."""


class FieldError(HyperconnectError):
    """Scalar or series used with the wrong coefficient field."""


class DomainError(HyperconnectError):
    """Parameter outside the domain a formula is stated for."""


class PoleError(DomainError):
    """A denominator parameter hit an exact pole before the series terminated."""


class SingularConfigurationError(DomainError):
    """Coefficient formula is singular at these parameters (no limit is taken)."""


class ConvergenceError(HyperconnectError):
    """A non-terminating sum could not certify convergence."""


class UnsupportedExpansionError(HyperconnectError):
    """Requested an executable expansion for a metadata-only family or mode."""


class MethodNotApplicableError(HyperconnectError):
    """Power collection cannot isolate the varied parameter."""


class SingularSampleError(HyperconnectError):
    """Sample abscissae made the triangular solve singular."""


class UnknownIdentityError(HyperconnectError, KeyError):
    """Identity, relation, or family id not present in the registry."""
