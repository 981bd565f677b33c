"""One-Fragment Managers (paper Section 2.5).

"The DBMS software is organized as a fully distributed database system
in which the components are, so-called, One-Fragment Managers (OFM).
These OFMs are customized database systems that manage a single
relation fragment.  They contain all functions encountered in a
full-blown DBMS; such as local query optimizer, transaction management,
markings and cursor maintenance, and (various) storage structures.
[...] Several OFM types are envisioned, each equipped with the right
amount of tools.  For example, OFMs needed for query processing only,
do not require extensive crash recovery facilities.  Moreover, each OFM
is equipped with an expression compiler to generate routines
dynamically."

An :class:`OneFragmentManager` is a POOL-X process hosting one fragment:
its table + indexes live against the element's 16 MByte memory account,
its predicates run through the per-OFM expression-compiler cache, local
subplans execute through :class:`~repro.algebra.local_exec.LocalExecutor`
(charging simulated CPU to the element), and — in the ``FULL`` profile —
every update is WAL-logged so the fragment survives crashes.

Markings and cursors are not modelled: a statement ships its predicate
here and :meth:`OneFragmentManager.filtered_scan` returns the matching
rows in one call, so no statement holds a position in the fragment.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import ExecutionError, InvalidTransactionState
from repro.exec.evaluation import Evaluator
from repro.exec.expressions import (
    ColumnRef,
    Comparison,
    Literal,
    Param,
    and_,
    conjuncts,
    substitute_params,
)
from repro.exec.operators import Row, WorkMeter
from repro.algebra.local_exec import LocalExecutor
from repro.algebra.plan import PlanNode
from repro.pool.process import PoolProcess
from repro.storage.indexes import OrderedIndex
from repro.storage.schema import Schema
from repro.storage.table import Table
from repro.ofm.wal import (
    AbortRecord,
    CommitRecord,
    DeleteRecord,
    InsertRecord,
    PrepareRecord,
    UpdateRecord,
    WriteAheadLog,
)


class OFMProfile(enum.Enum):
    """OFM types (Section 2.5): full-service vs query-only."""

    #: Durable fragment manager: WAL, 2PC participant, recoverable.
    FULL = "full"
    #: Transient manager for intermediate results: no logging, cheap.
    QUERY = "query"


@dataclass
class FragmentRecovery:
    """What one fragment's replay found (kept as ``ofm.last_recovery``)."""

    rows: int = 0
    cost: float = 0.0
    #: Transactions the local WAL shows durably committed.
    locally_committed: tuple[int, ...] = ()
    #: Prepared-but-undecided transactions that had to be resolved
    #: against the coordinator's commit log.
    in_doubt: tuple[int, ...] = ()
    #: Their resolutions, in the same order ("commit"/"abort").
    in_doubt_outcomes: tuple[str, ...] = ()


class OneFragmentManager(PoolProcess):
    """A customized database system for exactly one relation fragment."""

    def __init__(
        self,
        runtime,
        name: str,
        node_id: int,
        schema: Schema,
        profile: OFMProfile = OFMProfile.FULL,
        compiled_expressions: bool = True,
        disk_resident: bool = False,
    ):
        super().__init__(runtime, name, node_id)
        self.schema = schema
        self.profile = profile
        #: E3 baseline: a conventional disk-resident engine — every scan
        #: reads the fragment from disk, every update touches a page.
        #: PRISMA proper keeps this False (main memory as primary store).
        self.disk_resident = disk_resident
        self.table = Table(name, schema, memory=self.memory)
        self.evaluator = Evaluator(compiled=compiled_expressions)
        self.wal: WriteAheadLog | None = None
        if profile is OFMProfile.FULL:
            self.wal = WriteAheadLog(runtime.machine, node_id, name)
        #: Per-transaction undo chains (volatile; WAL is the durable copy).
        self._undo: dict[int, list] = {}
        self._prepared: set[int] = set()
        #: Transactions this OFM has durably committed (volatile mirror
        #: of the WAL's forced CommitRecords; rebuilt by recover()).
        #: In-doubt resolution consults it: a participant's own commit
        #: record is authoritative, e.g. on the 1PC fast path.
        self._committed: set[int] = set()
        #: Filled by recover(): what the last replay found.
        self.last_recovery: FragmentRecovery | None = None

    # -- helpers ------------------------------------------------------------------

    @property
    def machine(self):
        return self.runtime.machine

    def _charge_meter(self, meter: WorkMeter) -> None:
        seconds = self.machine.cpu_time(
            tuples=int(meter.tuples),
            hashes=int(meter.hashes),
            compares=int(meter.compares),
        )
        self.charge(seconds, tuples=int(meter.tuples))

    def _charge_disk_scan(self) -> None:
        """Disk-resident baseline: a scan reads the whole fragment."""
        if self.disk_resident and len(self.table):
            self.charge(
                self.machine.disk_time(
                    self.node_id, self.table.data_bytes, sequential=True
                )
            )

    def _charge_disk_touch(self, n_rows: int) -> None:
        """Disk-resident baseline: updates dirty one page per row."""
        if self.disk_resident and n_rows:
            page = self.machine.config.disk_page_bytes
            self.charge(
                self.machine.disk_time(self.node_id, n_rows * page, sequential=False)
            )

    # -- bulk loading -----------------------------------------------------------------

    def bulk_load(self, rows: Sequence[Row]) -> int:
        """Load rows outside any transaction (initial population).

        Durable OFMs snapshot the fragment afterwards, so the load
        survives crashes without replaying per-row log records.
        """
        count = 0
        for row in rows:
            self.table.insert(row)
            count += 1
        meter = WorkMeter(tuples=count)
        self._charge_meter(meter)
        if self.wal is not None:
            self.charge(self.wal.checkpoint(list(self.table.scan())))
        return count

    # -- transactional updates -----------------------------------------------------------

    def _log(self, record) -> None:
        if self.wal is not None:
            self.wal.append(record)

    def txn_insert(self, txn_id: int, row: Row) -> int:
        rid = self.table.insert(row)
        stored = self.table.get(rid)
        self._log(InsertRecord(txn_id, rid, stored))
        self._undo.setdefault(txn_id, []).append(("insert", rid, stored))
        self._charge_disk_touch(1)
        self._charge_meter(WorkMeter(tuples=1))
        return rid

    def _victims(self, predicate_expr, params: Sequence = ()) -> list[tuple[int, Row]]:
        """The ``(rid, row)`` pairs a DML predicate (``?`` from *params*) matches, in scan order.

        A unique index matching an equality conjunct yields the one
        possible victim without walking the fragment (and without
        compiling a predicate per key); any other index could return
        several rows in an order that is not the scan's, which the WAL
        and the undo chain would then record, so those cases scan.
        The simulated charge is the scan's either way.
        """
        found = (
            None if predicate_expr is None
            else self._index_candidates(predicate_expr, params, unique_only=True)
        )
        if found is None:
            pairs = list(self.table.scan())
        else:
            rids, remaining = found
            pairs = [(rid, self.table.get(rid)) for rid in rids]
            predicate_expr = and_(*remaining) if remaining else None
        if predicate_expr is None:
            return pairs
        if params:
            predicate_expr = substitute_params(predicate_expr, params)
        predicate, _ = self.evaluator.predicate(predicate_expr)
        return [(rid, row) for rid, row in pairs if predicate(row)]  # prismalint: disable=PL101 -- charged in txn_update_where / txn_delete_where (the scan's cost)

    def txn_delete_where(self, txn_id: int, predicate_expr, params: Sequence = ()) -> int:
        victims = self._victims(predicate_expr, params)
        for rid, row in victims:
            self.table.delete(rid)
            self._log(DeleteRecord(txn_id, rid, row))
            self._undo.setdefault(txn_id, []).append(("delete", rid, row))
        self._charge_disk_scan()
        self._charge_disk_touch(len(victims))
        self._charge_meter(WorkMeter(tuples=len(self.table) + len(victims)))
        return len(victims)

    def txn_update_where(
        self,
        txn_id: int,
        predicate_expr,
        compute_new_row: Callable[[Row], Row],
        params: Sequence = (),
    ) -> list[tuple[Row, Row]]:
        """Update matching rows; returns (old, new) pairs.

        New rows are computed by the caller-supplied function (built
        from compiled assignment expressions); rows whose fragment home
        changes under the table's fragmentation are the caller's problem
        — it receives the pairs and re-routes.
        """
        changed: list[tuple[Row, Row]] = []
        for rid, row in self._victims(predicate_expr, params):
            try:
                new_row = compute_new_row(row)
            except (TypeError, ZeroDivisionError) as exc:
                raise ExecutionError(f"UPDATE expression failed: {exc}") from None
            old = self.table.update(rid, new_row)
            new_row = self.table.get(rid)
            self._log(UpdateRecord(txn_id, rid, old, new_row))
            self._undo.setdefault(txn_id, []).append(("update", rid, old, new_row))
            changed.append((old, new_row))
        self._charge_disk_scan()
        self._charge_disk_touch(len(changed))
        self._charge_meter(WorkMeter(tuples=len(self.table) + len(changed)))
        return changed

    # -- two-phase-commit participant ------------------------------------------------------

    def prepare(self, txn_id: int) -> bool:
        """Phase one: make the transaction's effects durable; vote."""
        if txn_id in self._prepared:
            return True
        self._log(PrepareRecord(txn_id))
        if self.wal is not None:
            self.charge(self.wal.force())
        self._prepared.add(txn_id)
        return True

    def commit(self, txn_id: int) -> None:
        self._log(CommitRecord(txn_id))
        if self.wal is not None:
            self.charge(self.wal.force())
        self._undo.pop(txn_id, None)
        self._prepared.discard(txn_id)
        self._committed.add(txn_id)

    def abort(self, txn_id: int) -> None:
        """Undo the transaction's local effects, newest first.

        A transaction without local state here is a no-op — crucially,
        one this OFM already *committed* must not get an AbortRecord
        appended after its CommitRecord (a halted-coordinator cleanup
        could otherwise flip a durably committed 1PC transaction to
        aborted at the next replay)."""
        if txn_id not in self._undo and txn_id not in self._prepared:
            return
        chain = self._undo.pop(txn_id, [])
        for entry in reversed(chain):
            action = entry[0]
            if action == "insert":
                _, rid, _row = entry
                if self.table.has_rid(rid):
                    self.table.delete(rid)
            elif action == "delete":
                _, rid, row = entry
                self.table.insert_with_rid(rid, row)
            else:  # update
                _, rid, old, _new = entry
                self.table.update(rid, old)
        self._log(AbortRecord(txn_id))
        if self.wal is not None:
            self.charge(self.wal.force())
        self._prepared.discard(txn_id)
        self._charge_meter(WorkMeter(tuples=len(chain)))

    def has_transaction_state(self, txn_id: int) -> bool:
        return txn_id in self._undo or txn_id in self._prepared

    def has_committed(self, txn_id: int) -> bool:
        """Did this OFM durably commit *txn_id*?  Authoritative for 1PC."""
        return txn_id in self._committed

    def in_doubt_transactions(self) -> list[int]:
        """Prepared transactions with no local decision yet (sorted)."""
        return sorted(self._prepared)

    # -- query processing --------------------------------------------------------------------

    def run_subplan(
        self,
        plan: PlanNode,
        extra_tables: dict[str, Sequence[Row]] | None = None,
        shared: dict[str, Sequence[Row]] | None = None,
    ) -> list[Row]:
        """Execute a local subplan.

        Base-table scans resolve to this OFM's fragment (whatever name
        the plan uses); *extra_tables* carries relations shipped here by
        the distributed executor.
        """
        fragment_rows = None

        def resolve(name: str) -> Sequence[Row]:
            nonlocal fragment_rows
            if extra_tables and name in extra_tables:
                return extra_tables[name]
            if fragment_rows is None:
                fragment_rows = list(self.table.rows())
            return fragment_rows

        meter = WorkMeter()
        executor = LocalExecutor(
            tables=resolve, shared=shared, evaluator=self.evaluator, meter=meter
        )
        rows = executor.run(plan)
        if fragment_rows is not None:
            self._charge_disk_scan()
        self._charge_meter(meter)
        return rows

    def scan_rows(self) -> list[Row]:
        self._charge_disk_scan()
        self._charge_meter(WorkMeter(tuples=len(self.table)))
        return list(self.table.rows())

    def _index_candidates(
        self, predicate_expr, params: Sequence = (), unique_only: bool = False
    ) -> tuple[list[int], list] | None:
        """Row ids an index yields for one conjunct, and the conjuncts left.

        Looks for an equality conjunct with a matching hash/ordered
        index, or a range conjunct with a matching ordered index
        (*unique_only*: an equality conjunct on a unique index, nothing
        else); the compared value is a literal or a ``?`` read from
        *params*.  ``None`` when no index applies.
        """
        remaining = list(conjuncts(predicate_expr))
        for i, conjunct in enumerate(remaining):
            if not (
                isinstance(conjunct, Comparison)
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, Literal | Param)
            ):
                continue
            right = conjunct.right
            value = params[right.index] if isinstance(right, Param) else right.value
            if value is None:
                continue
            key_positions = (conjunct.left.index,)
            matching = [
                index
                for index in self.table.indexes.values()
                if index.key_positions == key_positions
                and (index.unique or not unique_only)
            ]
            if not matching:
                continue
            if conjunct.op == "=":
                candidates = matching[0].lookup((value,))
            elif conjunct.op in ("<", "<=", ">", ">=") and not unique_only:
                ordered = next(
                    (ix for ix in matching if isinstance(ix, OrderedIndex)), None
                )
                if ordered is None:
                    continue
                if conjunct.op in (">", ">="):
                    candidates = ordered.range(
                        low=(value,), include_low=conjunct.op == ">="
                    )
                else:
                    candidates = ordered.range(
                        high=(value,), include_high=conjunct.op == "<="
                    )
            else:
                continue
            del remaining[i]
            return candidates, remaining
        return None

    def _select(self, predicate_expr, rows: list[Row], meter: WorkMeter) -> list[Row]:
        """*rows* through the predicate's kernel, its work on *meter*."""
        return self.evaluator.pipeline(((("select", predicate_expr),),)).run(
            rows, (meter,)
        )[0]

    def filtered_scan(self, predicate_expr, params: Sequence = ()) -> tuple[list[Row], bool]:
        """Selection over the fragment, through an index when one fits
        (:meth:`_index_candidates`); the remaining conjuncts, their
        ``?`` filled in from *params*, filter the candidates.  Returns
        ``(rows, used_index)``.  Falls back to a full scan (charging the
        full fragment) when no index applies.
        """
        found = self._index_candidates(predicate_expr, params)
        if found is None:
            # No usable index: ordinary scan + filter, the whole
            # fragment through one compiled pass.
            self._charge_disk_scan()
            meter = WorkMeter()
            predicate_expr = substitute_params(predicate_expr, params) if params else predicate_expr
            rows = self._select(predicate_expr, list(self.table.rows()), meter)
            self._charge_meter(meter)
            return rows, False
        candidates, remaining = found
        rows = [self.table.get(rid) for rid in candidates if self.table.has_rid(rid)]
        meter = WorkMeter(hashes=1)
        if remaining:
            remaining = and_(*remaining)
            remaining = substitute_params(remaining, params) if params else remaining
            rows = self._select(remaining, rows, meter)
        else:
            meter.tuples += len(rows)
        if self.disk_resident:
            # Index-to-page lookups are random accesses on disk.
            self._charge_disk_touch(len(rows))
        self._charge_meter(meter)
        return rows, True

    # -- index management ------------------------------------------------------------------------

    def create_index(
        self, name: str, columns: Sequence[str], unique: bool, method: str
    ) -> None:
        if method == "hash":
            self.table.create_hash_index(name, columns, unique)
        else:
            self.table.create_ordered_index(name, columns, unique)
        self._charge_meter(WorkMeter(hashes=len(self.table)))

    # -- crash / recovery --------------------------------------------------------------------------

    def checkpoint(self) -> float:
        """Snapshot the fragment to stable storage; returns sim cost."""
        if self.wal is None:
            return 0.0
        cost = self.wal.checkpoint(list(self.table.scan()))
        self.charge(cost)
        return cost

    def _lose_volatile_state(self) -> None:
        """The rows, the undo chains, the 2PC state and the unforced log
        records: everything a crash takes and recovery rebuilds."""
        self.table.truncate()
        self._undo.clear()
        self._prepared.clear()
        self._committed.clear()
        if self.wal is not None:
            self.wal.lose_unforced()

    def crash(self) -> None:
        """Lose all volatile state (the table stays allocated until the
        recovery pass rebuilds it — memory accounting survives crashes
        only in the sense that restart reuses the same element)."""
        self._lose_volatile_state()

    def halt(self) -> None:
        """This OFM's element failed: volatile state is gone for good.

        Unlike :meth:`crash` (whole-machine failure, where restart
        replays into the *same* process object) the process itself is
        dead — restart spawns a successor under the same name.  Release
        the memory reservation so the successor can re-account it;
        durable WAL chunks and snapshots survive on the disk elements.
        """
        self._lose_volatile_state()
        self.table.release_memory()

    def recover(self, outcome_of: Callable[[int], str]) -> tuple[int, float]:
        """Rebuild the fragment from snapshot + WAL.

        *outcome_of(txn_id)* returns ``'commit'`` / ``'abort'`` — the
        coordinator's durable decision (presumed abort for unknowns).
        Returns (rows restored, simulated recovery cost).
        """
        if self.wal is None:
            raise InvalidTransactionState(
                f"query-profile OFM {self.name!r} has no recovery facilities"
            )
        self._lose_volatile_state()
        snapshot, cost = self.wal.read_snapshot()
        for rid, row in snapshot:
            self.table.insert_with_rid(rid, row)
        records, read_cost = self.wal.read_records()
        cost += read_cost
        # Pass 1: determine local outcomes from the log itself.  A
        # forced CommitRecord is final: a stray AbortRecord written
        # later (e.g. a cleanup sweep after the coordinator halted
        # mid-1PC) must never flip a durably committed transaction.
        locally_decided: dict[int, str] = {}
        prepared: set[int] = set()
        for record in records:
            if isinstance(record, CommitRecord):
                locally_decided[record.txn_id] = "commit"
            elif isinstance(record, AbortRecord):
                locally_decided.setdefault(record.txn_id, "abort")
            elif isinstance(record, PrepareRecord):
                prepared.add(record.txn_id)
        in_doubt = sorted(
            txn_id for txn_id in prepared if txn_id not in locally_decided
        )
        resolutions = {txn_id: str(outcome_of(txn_id)) for txn_id in in_doubt}

        def decide(txn_id: int) -> str:
            if txn_id in locally_decided:
                return locally_decided[txn_id]
            if txn_id in resolutions:
                # In doubt: the coordinator's durable decision rules.
                return resolutions[txn_id]
            return "abort"  # never prepared: presumed abort

        # Pass 2: redo the effects of committed transactions in order.
        for record in records:
            if decide(record.txn_id) != "commit":
                continue
            if isinstance(record, InsertRecord):
                if not self.table.has_rid(record.rid):
                    self.table.insert_with_rid(record.rid, record.row)
            elif isinstance(record, DeleteRecord):
                if self.table.has_rid(record.rid):
                    self.table.delete(record.rid)
            elif isinstance(record, UpdateRecord):
                if self.table.has_rid(record.rid):
                    self.table.update(record.rid, record.new_row)
                else:
                    self.table.insert_with_rid(record.rid, record.new_row)
        self._committed = {
            txn_id
            for txn_id, outcome in locally_decided.items()
            if outcome == "commit"
        }
        self._committed.update(
            txn_id for txn_id, outcome in resolutions.items() if outcome == "commit"
        )
        self.last_recovery = FragmentRecovery(
            rows=len(self.table),
            cost=cost,
            locally_committed=tuple(
                sorted(
                    txn_id
                    for txn_id, outcome in locally_decided.items()
                    if outcome == "commit"
                )
            ),
            in_doubt=tuple(in_doubt),
            in_doubt_outcomes=tuple(resolutions[txn_id] for txn_id in in_doubt),
        )
        self.charge(cost)
        self._charge_meter(WorkMeter(tuples=len(records) + len(snapshot)))
        return len(self.table), cost

    def destroy(self) -> None:
        """Release memory and durable state (DROP TABLE / query teardown)."""
        self.table.release_memory()
        if self.wal is not None:
            self.wal.wipe()
        self.runtime.terminate(self)
