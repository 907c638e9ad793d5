"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses mark which
subsystem rejected the input; they deliberately stay thin — the message
carries the detail.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class DimensionError(ReproError, ValueError):
    """An array, truth table, or vector has an incompatible shape."""


class PartitionError(ReproError, ValueError):
    """An input partition is malformed (overlap, gap, or bad indices)."""


class DecompositionError(ReproError, ValueError):
    """A decomposition setting is inconsistent with its Boolean matrix."""


class SolverError(ReproError, RuntimeError):
    """An optimization solver failed or was configured inconsistently."""


class InfeasibleError(SolverError):
    """An ILP/LP instance has no feasible point."""


class ConfigurationError(ReproError, ValueError):
    """A configuration dataclass holds an invalid combination of values."""


class UnknownBackendError(ConfigurationError):
    """A kernel-backend name is not one of the registered backends.

    Raised by :func:`repro.ising.kernels.base.resolve_backend` and
    :func:`repro.core.config.semantic_backend_name`.  Carries the
    offending name and the valid choices.
    """

    def __init__(self, requested: str, known: "tuple[str, ...]") -> None:
        super().__init__(
            f"unknown SB backend {requested!r}; valid backends: "
            f"{', '.join(known)}"
        )
        self.requested = requested
        self.known = tuple(known)


class OperationCancelled(ReproError, RuntimeError):
    """A cooperative cancellation hook asked a running operation to stop.

    Raised by long-running entry points (e.g.
    :meth:`repro.core.framework.IsingDecomposer.decompose`) when the
    caller-supplied ``should_cancel`` callback returns true; the service
    layer maps it to a job timeout/cancellation rather than a crash.
    """


class ServiceError(ReproError, RuntimeError):
    """The decomposition service rejected a request or job transition."""


class JobStoreCorruptError(ServiceError):
    """The job store's SQLite file failed its startup integrity check.

    Raised by :class:`repro.service.jobstore.JobStore` when
    ``PRAGMA quick_check`` reports damage (or the file is not a SQLite
    database at all), so corruption surfaces as one typed error at open
    time instead of an arbitrary ``sqlite3`` exception mid-claim.
    """


class ShardUnavailableError(ServiceError):
    """One shard of a sharded job store is degraded (circuit open).

    Raised by :class:`repro.service.shards.ShardedJobStore` when an
    operation is *scoped* to a shard whose circuit breaker is open —
    a submit or dedup lookup whose artifact key hashes onto the
    degraded shard, or a transition on a job homed there.  Operations
    that can be served by the surviving shards (claims, pagination,
    counts, the fleet registry) do not raise; they skip the degraded
    shard instead.  Carries the shard index and the suggested
    ``Retry-After`` delay, which the gateway maps onto a scoped 503
    ``store_unavailable`` response.
    """

    def __init__(
        self,
        message: str,
        shard: int = 0,
        retry_after: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.retry_after = retry_after


class GatewayError(ReproError, RuntimeError):
    """An HTTP gateway request failed (client side or server side).

    Carries the HTTP status code (0 when the failure happened before a
    response existed, e.g. connection refused), the machine-readable
    error ``code`` slug from the canonical gateway envelope
    (``{"error": {"code", "message", "retry_after"?}}``; ``None`` for
    legacy bodies or connection-level failures), and, when the server
    suggested one, the ``Retry-After`` delay in seconds.
    """

    def __init__(
        self,
        message: str,
        status: int = 0,
        retry_after: "float | None" = None,
        code: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after
        self.code = code


class JobNotFound(ServiceError, KeyError):
    """A job id does not exist in the service's job store."""

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes its argument; keep the plain
        # "no such job: <id>" message readable at the CLI boundary.
        return "no such job: " + "".join(str(arg) for arg in self.args)
