"""Crash and restart: the GDH's recovery component (Sections 2.2, 3.2).

Three failure shapes are handled:

* **machine-wide crash** (:meth:`RecoveryManager.crash`) wipes all
  volatile state: every fragment table, every in-flight transaction,
  all lock state.  :meth:`RecoveryManager.restart` rebuilds from stable
  storage — data dictionary, then every durable fragment in parallel.
* **single-element crash** (:meth:`RecoveryManager.crash_element`) — one
  PE goes down, killing only the OFM copies placed there; transactions
  that lost a participant are decided at the survivors (a coordinator
  halted after every vote was durable leaves one that commits; any
  other aborts), reads fail over to replica copies, and
  :meth:`RecoveryManager.restart_element` later brings the element back
  and replays just the lost fragments (catching up from a live sibling
  copy when one exists, since its WAL missed writes committed during
  the outage).
* **coordinator halt** — an injected crash point stopped 2PC mid-flight;
  :meth:`RecoveryManager.resolve_in_doubt` drives the surviving system
  to the outcome the durable records decide.

The coordinator's commit log is a cache (DESIGN.md §9, "What a commit
forces"): every entry is written without a wait, and the three places
that decide in-doubt transactions — :meth:`RecoveryManager._replay`,
``resolve_in_doubt`` and ``crash_element`` — rebuild a missing one from
the participants' forced records by one rule.  A 1PC transaction
committed iff its participant holds a durable CommitRecord; a prepared
one iff every participant its ``PrepareRecord`` names holds a durable
``PrepareRecord`` for it and no durable ``AbortRecord``.  A rebuilt
commit is written to the commit log before anything can truncate a
vote (``log_repairs``); with no entry and no such record, presumed
abort.

Cost accounting: the commit-log scan is charged onto the restart
critical path (`duration_s` = scan + votes read + slowest fragment),
because no fragment can resolve its in-doubt transactions before the
scan returns, nor one without an entry before its participants' votes
are read.
OFM replays themselves run in parallel (one per element), so they
contribute their maximum, while ``total_work_s`` sums everything.

Both report types carry a :meth:`fingerprint` — a SHA-256 over their
canonical contents — so the CI determinism gate can diff two same-seed
runs bit-for-bit.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.errors import CatalogError, MachineError, RecoveryError
from repro.obs.tracer import active
from repro.core.catalog import FragmentInfo, PlacedCopy
from repro.core.gdh import GDH_NODE, GlobalDataHandler
from repro.core.transactions import Transaction, TxnState
from repro.ofm.manager import OneFragmentManager
from repro.ofm.wal import AbortRecord, CommitRecord, PrepareRecord, WriteAheadLog


def _fingerprint(*fields_: object) -> str:
    return hashlib.sha256(repr(fields_).encode("utf-8")).hexdigest()


def sync_copy_from(
    gdh: GlobalDataHandler,
    source: OneFragmentManager,
    dest: OneFragmentManager,
    rows: list[tuple[int, tuple]] | None = None,
) -> tuple[bool, float]:
    """Make *dest* hold exactly *rows*, ``(row id, row)`` pairs shipped
    from *source* (by default all of *source*'s rows).

    The one way rows move between fragment copies: replica catch-up (a
    recovering copy whose WAL missed the outage), online migration (a
    new copy filled before the catalog flip), and a split or merge (a
    copy given the rows of the buckets it now owns; a parent copy that
    is its own *source* ships nothing).  Ship the rows across the
    network, rebuild the destination table, and checkpoint it through
    :meth:`OneFragmentManager.checkpoint`, so stale WAL chunks under the
    destination's name cannot win the next replay.  A copy of all of
    *source* also numbers its next rows as *source* does, so both give
    the next insert the same row id.  A no-op — (False, 0.0) — when
    *dest* already holds *rows*.

    Returns (did copy, simulated cost on *dest*).
    """
    if rows is None:
        rows = sorted(source.table.scan())
        dest.table.follow_rids(source.table)
    if dict(dest.table.scan()) == dict(rows):
        return False, 0.0
    before = dest.ready_at
    if source is not dest:
        row_bytes = source.table.schema.row_bytes
        gdh.runtime.send(source, dest, max(64, sum(row_bytes(row) for _rid, row in rows)))
    dest.table.truncate()
    for rid, row in rows:
        dest.table.insert_with_rid(rid, row)
    dest.charge(gdh.machine.cpu_time(tuples=len(rows)), tuples=len(rows))
    dest.checkpoint()
    return True, dest.ready_at - before


class _Votes:
    """What the participants' durable WALs say, for one resolution pass.

    Each participant's log is read at most once, from the disk its
    copy's home writes to (so a copy that died with its element still
    answers); the GDH process asks, and is charged for the reads.  A
    log no route reaches counts no vote: the decision taken without it
    is logged, and the log entry rules every later resolution.
    """

    def __init__(self, gdh: GlobalDataHandler):
        self.gdh = gdh
        #: Simulated time the reads took.
        self.cost = 0.0
        self._logs: dict[str, tuple[dict[int, PrepareRecord], set[int]]] = {}

    def _log(self, name: str) -> tuple[dict[int, PrepareRecord], set[int]]:
        """*name*'s durable votes (each PrepareRecord no AbortRecord
        follows, by transaction) and its durable commits."""
        if name not in self._logs:
            gdh = self.gdh
            try:
                wal = WriteAheadLog(gdh.machine, gdh.catalog.locate_copy(name)[2], name)
                records, cost = wal.read_records(gdh.gdh_process.node_id)
            except (CatalogError, MachineError):
                # Retired (its stable storage went with it), or its
                # disk's element is down.
                records = []
            else:
                gdh.gdh_process.charge(cost)
                self.cost += cost
            votes = {r.txn_id: r for r in records if isinstance(r, PrepareRecord)}
            for record in records:
                if isinstance(record, AbortRecord):
                    votes.pop(record.txn_id, None)
            committed = {r.txn_id for r in records if isinstance(r, CommitRecord)}
            self._logs[name] = votes, committed
        return self._logs[name]

    def commits(self, prepare: PrepareRecord, voter: str = "") -> bool:
        """The rule: every participant *prepare* names holds a durable
        vote for its transaction (*voter*, whose log *prepare* was just
        read from, needs no second read)."""
        return all(
            name == voter or prepare.txn_id in self._log(name)[0]
            for name in prepare.participants
        )

    def decide(self, txn_id: int, names: Iterable[str]) -> bool:
        """Whether the WALs of *names*, the transaction's participants,
        committed *txn_id*: one holds a durable CommitRecord (the 1PC
        decision), or one holds a vote that :meth:`commits`."""
        logs = [self._log(name) for name in names]
        if any(txn_id in committed for _votes, committed in logs):
            return True
        prepare = next((votes[txn_id] for votes, _ in logs if txn_id in votes), None)
        return prepare is not None and self.commits(prepare)


@dataclass
class CrashReport:
    """What a simulated crash destroyed."""

    at_time: float
    #: "machine" (everything) or "element" (one PE).
    kind: str = "machine"
    #: The failed element, for kind="element".
    node_id: int | None = None
    #: kind="machine": the transactions in flight at the crash (sorted).
    #: Restart decides each from the logs, and commits one whose votes
    #: were all durable.
    in_flight: list[int] = field(default_factory=list)
    #: kind="element": the transactions that lost a participant and
    #: were aborted on the spot.
    aborted_transactions: list[int] = field(default_factory=list)
    fragments_lost: int = 0
    #: Names of processes killed by an element crash (sorted).
    processes_killed: list[str] = field(default_factory=list)

    def stats(self) -> dict[str, float]:
        return {
            "at_time": self.at_time,
            "in_flight": len(self.in_flight),
            "aborted_transactions": len(self.aborted_transactions),
            "fragments_lost": self.fragments_lost,
            "processes_killed": len(self.processes_killed),
        }

    def fingerprint(self) -> str:
        return _fingerprint(
            self.kind,
            self.node_id,
            self.at_time,
            self.in_flight,
            sorted(self.aborted_transactions),
            self.fragments_lost,
            sorted(self.processes_killed),
        )


@dataclass
class RecoveryReport:
    """What restart rebuilt, and what it cost."""

    fragments_recovered: int = 0
    rows_restored: int = 0
    #: Restart critical path: commit-log scan + slowest single-fragment
    #: replay (fragment recoveries run in parallel, the scan does not).
    duration_s: float = 0.0
    #: Sum of all recovery costs (total work, scan included).
    total_work_s: float = 0.0
    committed_outcomes: int = 0
    in_doubt_resolved: int = 0
    #: Simulated cost of scanning the coordinator's commit log.
    commit_log_scan_s: float = 0.0
    #: Commit-log entries rebuilt from the participants' forced
    #: records: a 1PC participant's CommitRecord, or 2PC votes that
    #: all hold (a coordinator halted before its lazy entry).
    log_repairs: int = 0
    #: Fragments whose replayed state was caught up from a live sibling
    #: copy (their WAL missed writes committed during the outage).
    replica_catchups: int = 0

    def stats(self) -> dict[str, float]:
        return {
            "fragments_recovered": self.fragments_recovered,
            "rows_restored": self.rows_restored,
            "duration_s": self.duration_s,
            "total_work_s": self.total_work_s,
            "committed_outcomes": self.committed_outcomes,
            "in_doubt_resolved": self.in_doubt_resolved,
            "commit_log_scan_s": self.commit_log_scan_s,
            "log_repairs": self.log_repairs,
            "replica_catchups": self.replica_catchups,
        }

    def fingerprint(self) -> str:
        return _fingerprint(
            self.fragments_recovered,
            self.rows_restored,
            self.duration_s,
            self.total_work_s,
            self.committed_outcomes,
            self.in_doubt_resolved,
            self.commit_log_scan_s,
            self.log_repairs,
            self.replica_catchups,
        )


@dataclass
class InDoubtResolution:
    """Outcome of resolving halted-coordinator transactions in place."""

    resolved: int = 0
    committed: int = 0
    aborted: int = 0
    log_repairs: int = 0

    def stats(self) -> dict[str, float]:
        return {
            "resolved": self.resolved,
            "committed": self.committed,
            "aborted": self.aborted,
            "log_repairs": self.log_repairs,
        }

    def fingerprint(self) -> str:
        return _fingerprint(
            self.resolved, self.committed, self.aborted, self.log_repairs
        )


class RecoveryManager:
    """Drives crash simulation and restart for a whole database."""

    def __init__(self, gdh: GlobalDataHandler):
        self.gdh = gdh
        self._tracer = active(gdh.runtime.tracer)
        gdh.faults.bind(self)

    # -- failures -------------------------------------------------------------

    def crash(self) -> CrashReport:
        """Lose all volatile state, as a machine-wide failure would."""
        gdh = self.gdh
        at = max(
            (process.ready_at for process in gdh.runtime.live_processes()),
            default=0.0,
        )
        report = CrashReport(at_time=at, kind="machine")
        # In-flight transactions simply vanish (their locks with them);
        # restart decides each from the logs, not from volatile chains.
        # Mark them ABORTED so a session still pointing at one fails its
        # next commit/rollback with TransactionAborted instead of running
        # the two-phase protocol on an untracked transaction.  (No
        # counter bump: these are crash casualties, not protocol aborts.)
        report.in_flight = sorted(gdh.txns.active)
        for txn in gdh.txns.active.values():
            txn.state = TxnState.ABORTED
        gdh.txns.active.clear()
        from repro.core.locks import LockManager

        gdh.locks = LockManager()
        gdh.txns.locks = gdh.locks
        for ofm in gdh.fragment_ofms.values():
            ofm.crash()
            report.fragments_lost += 1
        return report

    def crash_element(self, node_id: int) -> CrashReport:
        """One PE fails: the machine takes it down, its processes die
        (logged as a ``crash_element`` injection), the survivors carry on.

        Transactions that lost a participant are decided and finished at
        their live participants (their locks release, so waiting work
        proceeds): committed when the durable records say so — a
        coordinator halted after every vote was forced — and aborted
        otherwise.  Fragment copies on the element leave the registry,
        so reads fail over to replicas and writes to a copyless fragment
        error out rather than silently diverging.
        """
        gdh = self.gdh
        if node_id == GDH_NODE:
            raise RecoveryError(
                "cannot crash the supervisor element"
                f" {GDH_NODE}: the GDH and its commit log live there"
                " (model GDH failure as a machine-wide crash instead)"
            )
        report = CrashReport(
            at_time=gdh.runtime.horizon(), kind="element", node_id=node_id
        )
        runtime = gdh.runtime
        runtime.machine.fail_node(node_id)
        report.processes_killed = runtime.crash_node(node_id)
        gdh.faults.record("crash_element", str(node_id), *report.processes_killed)
        report.fragments_lost = len(gdh.allocator.reap())
        # Finish every transaction that lost a participant: phase one
        # can no longer succeed for it, and holding its locks would
        # stall the surviving elements forever.
        votes = _Votes(gdh)
        for txn_id in sorted(gdh.txns.active):
            txn = gdh.txns.active[txn_id]
            if all(ofm.alive for ofm in txn.participants.values()):
                continue
            entry, cost = gdh.commit_log.lookup(txn_id)
            gdh.gdh_process.charge(cost)
            if not self._settle(txn, entry, votes, report.at_time):
                report.aborted_transactions.append(txn_id)
        return report

    def _settle(
        self, txn: Transaction, entry: str | None, votes: _Votes, at: float
    ) -> bool:
        """Decide *txn* — by its commit-log *entry*, or without one by
        the participants' durable records — and finish it at its live
        participants; returns whether it committed.

        A decision without an entry is written to the commit log first,
        before any participant can checkpoint its vote away."""
        gdh = self.gdh
        if entry is None:
            names = [ofm.name for ofm in txn.participants.values()]
            entry = "commit" if votes.decide(txn.txn_id, names) else "abort"
            gdh.gdh_process.charge(gdh.commit_log.record(txn.txn_id, entry))
        committed = entry == "commit"
        for ofm in txn.participants.values():
            if ofm.alive and ofm.has_transaction_state(txn.txn_id):
                if committed:
                    ofm.commit(txn.txn_id)
                else:
                    ofm.abort(txn.txn_id)
        gdh.txns.finish(txn, TxnState.COMMITTED if committed else TxnState.ABORTED, at)
        return committed

    # -- restart --------------------------------------------------------------

    def restart(self) -> RecoveryReport:
        """Rebuild committed state from stable storage (whole machine)."""
        gdh = self.gdh

        # 1. Data dictionary comes back from disk.
        try:
            recovered_catalog = gdh.load_catalog_from_disk()
        except KeyError:
            raise RecoveryError(
                "no durable data dictionary found; was the database ever"
                " checkpointed or DDL-ed?"
            ) from None
        expected = set(gdh.catalog.table_names())
        recovered = set(recovered_catalog.table_names())
        if expected != recovered:
            raise RecoveryError(
                f"data dictionary mismatch: volatile {sorted(expected)},"
                f" durable {sorted(recovered)}"
            )
        # Adopt the durable copy (authoritative after a crash) in place:
        # the executor/binder share the Catalog object by reference.
        gdh.catalog.adopt(recovered_catalog)

        # Copies lost to an element crash are respawned from the
        # recovered placement before replaying.
        report = self._replay(gdh.catalog.placed_copies(), catch_up=False)

        # 3. Statistics refresh for the optimizer.
        for name in gdh.catalog.table_names():
            gdh.refresh_table_stats(name)
        return report

    def restart_element(self, node_id: int) -> RecoveryReport:
        """A failed element comes back, empty: the copies placed on it
        respawn and replay (:meth:`restart_fragments`).  An element that
        is up has nothing to restart: RecoveryError, and nothing changes
        (its copies' open transactions keep their state)."""
        gdh = self.gdh
        if gdh.runtime.machine.node_is_up(node_id):
            raise RecoveryError(
                f"element {node_id} is up; only a crashed element restarts"
            )
        gdh.runtime.machine.restore_node(node_id)
        gdh.faults.record("restore_element", str(node_id))
        return self.restart_fragments(
            [
                name
                for _info, _fragment, node, name in gdh.catalog.placed_copies()
                if node == node_id
            ]
        )

    def restart_fragments(self, names: Sequence[str]) -> RecoveryReport:
        """Per-fragment restart after an element came back.

        *names* are fragment-copy OFM names (as the catalog records
        them).  The surviving system kept running, so the volatile
        dictionary is authoritative and only the named copies replay —
        then catch up from a live sibling copy where one exists, since
        the dead copy's WAL missed everything committed during the
        outage.  A live copy has nothing to restart (replaying it would
        drop its open transactions' rows): RecoveryError.
        """
        gdh = self.gdh
        live = [
            name for name in names
            if name in gdh.fragment_ofms and gdh.fragment_ofms[name].alive
        ]
        if live:
            raise RecoveryError(f"copies {live} are live; only a lost copy restarts")
        placed = [gdh.catalog.locate_copy(name) for name in names]
        report = self._replay(placed, catch_up=True)
        for table_name in sorted({info.name for info, *_copy in placed}):
            gdh.refresh_table_stats(table_name)
        return report

    def _replay(self, placed: Iterable[PlacedCopy], catch_up: bool) -> RecoveryReport:
        """Replay the *placed* fragment copies against the commit log,
        each in the process serving it — a successor spawned under the
        same name (same ``wal/<name>/...`` keys) where the element took
        the process down.
        """
        gdh = self.gdh
        report = RecoveryReport()
        gdh.allocator.reap()
        copies = [
            (
                fragment,
                gdh.fragment_ofms.get(name)
                or gdh.allocator.spawn_copy(info, name, node, gdh.gdh_process.ready_at),
            )
            for info, fragment, node, name in placed
        ]
        copies.sort(key=lambda copy: copy[1].name)

        scan_started = gdh.gdh_process.ready_at
        outcomes, scan_cost = gdh.commit_log.scan()
        gdh.gdh_process.charge(scan_cost)
        if self._tracer is not None:
            self._tracer.span(
                scan_started,
                gdh.gdh_process.ready_at,
                "recovery.log_scan",
                "commit_log",
                node=gdh.gdh_process.node_id,
                actor=gdh.gdh_process.name,
                outcomes=len(outcomes),
            )
        report.commit_log_scan_s = scan_cost
        report.committed_outcomes = sum(
            1 for outcome in outcomes.values() if outcome == "commit"
        )

        votes = _Votes(gdh)

        def outcome_of(prepare: PrepareRecord, voter: str) -> str:
            txn_id = prepare.txn_id
            if txn_id not in outcomes:
                # Rebuilt from the votes, and logged before the catch-up
                # below can checkpoint one away.
                committed = votes.commits(prepare, voter)
                outcomes[txn_id] = "commit" if committed else "abort"
                gdh.gdh_process.charge(gdh.commit_log.record(txn_id, outcomes[txn_id]))
                if outcomes[txn_id] == "commit":
                    report.log_repairs += 1
                    report.committed_outcomes += 1
            return outcomes[txn_id]

        longest = 0.0
        for fragment, ofm in copies:
            name = ofm.name
            replay_started = ofm.ready_at
            rows, cost = ofm.recover(lambda prepare: outcome_of(prepare, name))
            if self._tracer is not None:
                self._tracer.span(
                    replay_started,
                    replay_started + cost,
                    "recovery.wal_replay",
                    name,
                    node=ofm.node_id,
                    actor=ofm.name,
                    rows=rows,
                )
            recovery = ofm.last_recovery
            assert recovery is not None
            report.in_doubt_resolved += len(recovery.in_doubt)
            # Participant-authoritative repair: a transaction the WAL
            # shows durably committed but the log does not (a 1PC crash
            # before the coordinator's lazy entry) is re-recorded, so
            # later scans — and the sibling copies replayed after this
            # one — see it committed.
            for txn_id in recovery.locally_committed:
                if outcomes.get(txn_id) != "commit":
                    gdh.gdh_process.charge(gdh.commit_log.record(txn_id, "commit"))
                    outcomes[txn_id] = "commit"
                    report.log_repairs += 1
                    report.committed_outcomes += 1
            if catch_up:
                catchup_started = ofm.ready_at
                caught_up, catchup_cost = self._catch_up(fragment, ofm, votes)
                if caught_up:
                    report.replica_catchups += 1
                    cost += catchup_cost
                    rows = len(ofm.table)
                    if self._tracer is not None:
                        self._tracer.span(
                            catchup_started,
                            ofm.ready_at,
                            "recovery.catch_up",
                            name,
                            node=ofm.node_id,
                            actor=ofm.name,
                            rows=rows,
                        )
            report.fragments_recovered += 1
            report.rows_restored += rows
            report.total_work_s += cost
            longest = max(longest, cost)

        # The scan, and any votes read, precede every (parallel)
        # fragment replay.
        report.duration_s = scan_cost + votes.cost + longest
        report.total_work_s += scan_cost + votes.cost
        return report

    def _catch_up(
        self, fragment: FragmentInfo, ofm: OneFragmentManager, votes: _Votes
    ) -> tuple[bool, float]:
        """Copy state over from a live sibling if the WAL replay is stale.

        The copy must hold committed rows only, and the recovering copy
        has no undo chain for anyone's: every open transaction with
        state on the sibling is decided and finished first (aborted,
        unless its durable votes committed it), as :meth:`crash_element`
        does for one that lost a participant.

        Returns (did catch up, simulated cost on the recovering OFM).
        """
        gdh = self.gdh
        siblings = [copy for copy in gdh.allocator.copies(fragment) if copy is not ofm]
        if not siblings:
            return False, 0.0
        source = siblings[0]
        for txn_id in sorted(gdh.txns.active):
            if source.has_transaction_state(txn_id):
                entry, cost = gdh.commit_log.lookup(txn_id)
                gdh.gdh_process.charge(cost)
                self._settle(gdh.txns.active[txn_id], entry, votes, gdh.runtime.horizon())
        return sync_copy_from(gdh, source, ofm)

    # -- in-doubt resolution ---------------------------------------------------

    def resolve_in_doubt(self) -> InDoubtResolution:
        """Resolve transactions orphaned by a halted coordinator.

        The machine did not crash — participants are alive, locks are
        held.  Every active transaction is driven to its correct end:
        commit if the durable commit log says so or, without an entry,
        if the participants' WALs do — a 1PC participant's forced
        commit record, or every named participant's vote (the log is
        repaired from them) — presumed abort otherwise.
        """
        gdh = self.gdh
        result = InDoubtResolution()
        outcomes, scan_cost = gdh.commit_log.scan()
        gdh.gdh_process.charge(scan_cost)
        votes = _Votes(gdh)
        at = gdh.runtime.horizon()
        for txn_id in sorted(gdh.txns.active):
            entry = outcomes.get(txn_id)
            committed = self._settle(gdh.txns.active[txn_id], entry, votes, at)
            result.resolved += 1
            if committed:
                result.committed += 1
                result.log_repairs += entry is None
            else:
                result.aborted += 1
        return result
