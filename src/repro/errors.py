"""Exception hierarchy for the AdapCC reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class. Subsystems raise the most specific subclass that
describes the failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation engine."""


class TopologyError(ReproError):
    """Invalid or inconsistent hardware/logical topology."""


class ProfilingError(ReproError):
    """Profiling could not produce usable link estimates."""


class SynthesisError(ReproError):
    """The synthesizer could not produce a feasible strategy."""


class StrategyFormatError(SynthesisError):
    """A serialized strategy document could not be parsed."""


class VerificationError(ReproError):
    """A static analysis pass found invariant violations.

    The ``violations`` attribute carries them as a list of
    :class:`repro.analysis.findings.Finding`; the message renders the
    first few as ``[code] subject: message``.
    """

    def __init__(self, message: str = "", violations: object = None):
        super().__init__(message)
        self.violations = list(violations or [])


class StrategyVerificationError(VerificationError, SynthesisError):
    """A synthesized strategy failed static verification.

    Also a :class:`SynthesisError` so existing callers that treat a bad
    strategy as a synthesis failure keep working unchanged.
    """


class CommunicatorError(ReproError):
    """Errors in the runtime communicator (contexts, buffers, executors)."""


class BufferError_(CommunicatorError):
    """Buffer misuse: overflow, double registration, or missing IPC handle."""


class CoordinationError(ReproError):
    """Relay-control coordination failures."""


class TrainingError(ReproError):
    """Errors raised by the training substrate."""


class ChaosError(ReproError):
    """Malformed fault plans or impossible injection requests."""


class RecoveryError(ReproError):
    """Control-plane recovery failures: lease misuse, journal corruption,
    or an impossible election (no live worker left to take over)."""


class TelemetryError(ReproError):
    """Telemetry misuse: bad metric definitions, span lifecycle errors,
    or malformed trace files."""


class ObserveError(ReproError):
    """Observe-watchdog misuse: invalid detector parameters, a watchdog
    attached without an enabled telemetry stream, or malformed verdict
    logs."""


class FleetError(ReproError):
    """Fleet-replay misuse: malformed workload traces (overlapping rank
    sets, unsorted op schedules, unknown collective kinds), ranks outside
    the cluster, or a replay that deadlocks on the shared fabric."""
