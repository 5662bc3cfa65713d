"""Exception types shared across the package."""


class ClusterqError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionError(ClusterqError):
    """Operands have incompatible dimensionality."""


class KernelSyntaxError(ClusterqError):
    """Kernel text does not conform to the expression grammar."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class KernelNameError(ClusterqError):
    """Kernel text references an undeclared accessor or parameter."""


class ValidationError(ClusterqError):
    """A task, buffer, device or mapper definition breaks a structural rule."""


class EvalError(ClusterqError):
    """Kernel evaluation failed, e.g. integer division by zero."""


class UninitializedReadError(ClusterqError):
    """A task reads buffer cells that no initializer or prior task wrote."""


class ScenarioError(ClusterqError):
    """A scenario document cannot be parsed or validated."""
