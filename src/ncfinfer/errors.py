"""Exception types shared across the package."""


class ToolError(Exception):
    """Base class for all errors raised by this package; its ``context``
    dict goes into the CLI's JSON error object."""

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


class InconsistentDataError(ToolError):
    """Two transition pairs share an input but disagree on the output, which
    usually means the wiring gives a node the wrong regulators."""


class ParseError(ToolError):
    """An input file does not conform to its documented format."""


class CapacityError(ToolError):
    """A request exceeds a documented size bound (arity or state-space cap)."""


class ConfigurationError(ToolError):
    """A run was requested with settings that cannot produce a result."""


class InvariantViolation(ToolError):
    """An internal consistency guarantee failed, e.g. a trajectory whose
    states do not share one phase-space component."""
