"""Exception types shared across the simulator."""


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SimulatorError):
    """Scenario configuration is structurally invalid."""


class SimulationError(SimulatorError):
    """An internal invariant was violated during a run (aborts the run)."""


class SchedulingInPastError(SimulatorError):
    """An occurrence was scheduled before the current virtual time."""


class UnknownFunctionError(SimulatorError):
    """A function name does not exist in the catalog."""


class UnknownObjectError(SimulatorError):
    """A data object id does not exist in the catalog."""


class UnknownNodeError(SimulatorError):
    """A node id does not exist in the cluster."""


class TraceFormatError(SimulatorError):
    """A trace file record could not be parsed or validated."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
