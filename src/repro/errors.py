"""Exception hierarchy for the PRISMA reproduction.

Every error raised by the library derives from :class:`PrismaError`, so
client code can catch one type at the facade boundary.  Subsystems raise
the most specific subclass that applies.
"""

from __future__ import annotations


class PrismaError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Front-end errors (SQL / PRISMAlog).
# ---------------------------------------------------------------------------


class ParseError(PrismaError):
    """A query text could not be tokenized or parsed.

    Parameters
    ----------
    message:
        Human-readable description of the problem.
    line, column:
        1-based source position of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class BindError(PrismaError):
    """A parsed query references unknown tables, columns, or mis-typed values."""


class PrismalogError(PrismaError):
    """A PRISMAlog program is malformed (unsafe rule, unbound variable, ...)."""


# ---------------------------------------------------------------------------
# Catalog / data-dictionary errors.
# ---------------------------------------------------------------------------


class CatalogError(PrismaError):
    """Schema-level problem: duplicate table, unknown fragment, etc."""


class AllocationError(PrismaError):
    """The data allocation manager could not place a fragment or replica."""


# ---------------------------------------------------------------------------
# Transaction-processing errors.
# ---------------------------------------------------------------------------


class TransactionError(PrismaError):
    """Base class for transaction-processing failures."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back (explicitly or by the system)."""


class DeadlockError(TransactionAborted):
    """The transaction was chosen as a deadlock victim and rolled back."""


class InvalidTransactionState(TransactionError):
    """An operation was attempted on a finished or unknown transaction."""


# ---------------------------------------------------------------------------
# Storage and execution errors.
# ---------------------------------------------------------------------------


class StorageError(PrismaError):
    """Low-level storage failure (bad schema, duplicate key, ...)."""


class OutOfMemoryError(StorageError):
    """A processing element's 16 MByte local memory budget was exceeded."""


class ExecutionError(PrismaError):
    """A physical plan failed while executing."""


class PlanError(PrismaError):
    """A logical plan is malformed or could not be optimized/parallelized."""


class ExpressionError(PrismaError):
    """A scalar expression could not be compiled, typed, or evaluated."""


# ---------------------------------------------------------------------------
# Machine-simulation errors.
# ---------------------------------------------------------------------------


class MachineError(PrismaError):
    """The multi-computer simulator was configured or driven incorrectly."""


class TopologyError(MachineError):
    """An interconnect topology violates its structural constraints."""


class ProcessCrashed(MachineError):
    """A message or CPU charge targeted a process killed by a fault.

    Distinct from orderly termination: a crashed process lost its
    volatile state and the sender must treat the peer as failed (2PC
    converts this into an abort or an unreached participant, never
    silence).
    """


class LinkDownError(MachineError):
    """No route exists between two elements under the current faults.

    Raised by :meth:`~repro.machine.machine.Machine.transfer_time` when
    failed links/elements disconnect the source from the destination.
    """


class InjectedCrash(Exception):  # noqa: N818 -- event, not an "...Error" condition
    """A :class:`~repro.core.faults.FaultInjector` crash point fired.

    Deliberately *not* a :class:`PrismaError`: an injected coordinator
    halt must unwind through every engine-level error handler (which
    would otherwise convert it into a tidy abort) and reach the test
    harness, leaving the system exactly as the crash left it —
    in-doubt participants, held locks and all.
    """

    def __init__(self, point: str, txn_id: int | None = None):
        detail = f" (txn {txn_id})" if txn_id is not None else ""
        super().__init__(f"injected crash at {point}{detail}")
        self.point = point
        self.txn_id = txn_id


class RecoveryError(PrismaError):
    """Log corruption or an impossible state during restart recovery."""


class RebalanceError(PrismaError):
    """An online split/merge/migration could not run (wrong scheme,
    unsplittable fragment, no live source copy, unknown fragment)."""


# ---------------------------------------------------------------------------
# Serving-layer errors.
# ---------------------------------------------------------------------------


class InterfaceError(PrismaError):
    """The DBAPI surface was misused (closed connection/cursor, no result)."""
