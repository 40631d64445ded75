"""Exception types shared across the package."""


class CofRelayError(Exception):
    """Base class for all package errors."""


class DimensionError(CofRelayError):
    """Operands have incompatible shapes."""


class SolverFailureError(CofRelayError):
    """A numerical routine failed to converge within its iteration cap."""


class InfeasibleError(CofRelayError):
    """The requested design point admits no feasible solution."""


class UnboundedError(CofRelayError):
    """The optimization problem is unbounded below."""


class DegenerateChannelError(CofRelayError):
    """An effective channel gain is zero, so the design equations blow up."""


class NestingError(CofRelayError):
    """Lattice chain does not satisfy the required subset relation."""


class ConfigError(CofRelayError):
    """Malformed scenario configuration."""
