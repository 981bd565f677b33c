"""Distributed query execution over One-Fragment Managers.

Implements the parallelism story of Sections 2.2 and 2.4: a logical
plan is decomposed into per-fragment subplans that run in parallel on
the OFMs hosting the fragments; intermediate results live in transient
query-profile OFMs spawned for the occasion ("OFMs for intermediate
results"); data moves between processing elements as hash
repartitioning, broadcasts, or gathers, every byte charged to the
10 Mbit/s links.

Response time falls out of the process timelines: each OFM's clock
advances with its local work, transfers arrive after link delays, and
the coordinating query process finishes when the last input lands —
the critical path, not the sum.  The same holds inside each step that
moves rows (a gather, a broadcast, a repartition, the co-partitioned
join's pairing, one hop of a relay tree): it is one fan-out through
:meth:`DistributedExecutor.ship_all`, the executor's only way to move
rows.  Every source first charges its split and the departure of each
of its messages on its own clock; only then does each receiver's clock
move to each arrival, paying the receive overhead in the order the
messages were sent.  So an exchange costs its slowest source, not the
sum of them.

The executor does not walk plans itself: a query arrives as the steps
of its dispatch plan (:mod:`repro.core.dispatch`), compiled once per
prepared statement.  The steps call only the executor's public names
(its step API, DESIGN §4.4); those primitives hold every simulated
charge and message, and what has a leading underscore stays here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ExecutionError
from repro.exec.closure import seminaive_closure
from repro.exec.evaluation import Evaluator
from repro.exec.operators import Row, WorkMeter
from repro.exec.pipeline import Op
from repro.exec.shuffle import SplitterCache, derive_pairs_into_buckets
from repro.algebra.local_exec import LocalExecutor
from repro.algebra.optimizer import OptimizedPlan
from repro.algebra.plan import PlanNode
from repro.core.allocation import DataAllocationManager
from repro.core.catalog import Catalog
from repro.obs.api import SnapshotMixin
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import active
from repro.ofm.manager import OFMProfile, OneFragmentManager
from repro.pool.placement import LeastLoaded
from repro.pool.process import PoolProcess
from repro.pool.runtime import PoolRuntime
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

if TYPE_CHECKING:  # dispatch.py compiles its steps over this module
    from repro.core.dispatch import RoutedQuery

#: Size of a dispatched subplan message (query shipping beats data shipping).
SUBPLAN_BYTES = 512
#: Broadcasting a side cheaper than repartitioning both: row threshold.
BROADCAST_ROWS = 200
#: Widest direct fan-in/fan-out of a gather or broadcast; beyond it the
#: executor routes through a spanning tree of relay parts.  Read at each
#: call, so a test may patch it.  No 64-PE workload in the repo has more
#: than 16 fragments, so none of them reaches a relay.
MULTICAST_FANIN = 32


class FragmentAccessTracker(SnapshotMixin):
    """Per-fragment access heat: how often each fragment is touched.

    Host-side bookkeeping only — recording an access charges nothing
    and moves no simulated clock, so enabling it never perturbs the
    pinned fingerprints.  The online rebalancer
    (:mod:`repro.core.rebalance`) reads these counters to find hot
    fragments; ``mark()``/``delta_since()`` give it per-round deltas.
    """

    def __init__(self) -> None:
        #: (table, fragment_id) -> accesses since construction/reset.
        self.counts: dict[tuple[str, int], int] = {}
        self._marks: dict[tuple[str, int], int] = {}

    def record(self, table: str, fragment_id: int, weight: int = 1) -> None:
        key = (table, fragment_id)
        self.counts[key] = self.counts.get(key, 0) + weight

    def table_counts(self, table: str) -> dict[int, int]:
        """fragment_id -> total accesses for one table."""
        return {
            fragment_id: count
            for (name, fragment_id), count in self.counts.items()
            if name == table
        }

    def mark(self) -> None:
        """Start a new observation window (rebalancer round boundary)."""
        self._marks = dict(self.counts)

    def delta_since(self, table: str) -> dict[int, int]:
        """Per-fragment accesses for *table* since the last :meth:`mark`."""
        delta: dict[int, int] = {}
        for (name, fragment_id), count in self.counts.items():
            if name != table:
                continue
            seen = self._marks.get((name, fragment_id), 0)
            if count > seen:
                delta[fragment_id] = count - seen
        return delta

    # -- Snapshot ----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            f"{table}.{fragment_id}": count
            for (table, fragment_id), count in sorted(self.counts.items())
        }


@dataclass
class Part:
    """One partition of an intermediate relation, resident at a process."""

    process: PoolProcess
    rows: list


@dataclass
class DistRelation:
    """A relation distributed over processes.

    ``partition_cols`` names the output columns the relation is
    hash-partitioned on (``None`` = unknown/arbitrary placement).
    ``pending`` is the chain of fragment-local operators not yet run
    over the parts, bottom first, as ``(span name, stage)`` pairs: the
    relation *is* ``pending`` applied to each part's rows, and only
    :meth:`DistributedExecutor.flush` may read ``parts`` of a relation
    that has any.
    """

    parts: list[Part]
    partition_cols: tuple[int, ...] | None = None
    pending: tuple[tuple[str, tuple[Op, ...]], ...] = ()

    @property
    def total_rows(self) -> int:
        return sum(len(part.rows) for part in self.parts)

    def all_rows(self) -> list:
        rows: list = []
        for part in self.parts:
            rows.extend(part.rows)
        return rows


@dataclass
class ExecutionReport:
    """What one query cost on the simulated machine."""

    started_at: float = 0.0
    finished_at: float = 0.0
    rows_returned: int = 0
    messages: int = 0
    bytes_shipped: int = 0
    fragments_scanned: int = 0
    fragments_pruned: int = 0
    index_scans: int = 0
    temp_ofms: int = 0
    #: Fixpoint rounds per recursive PRISMAlog predicate the query ran.
    rounds: dict[str, int] = field(default_factory=dict)
    #: The plan that ran and its parameter values; the text (of the
    #: plan with the values in place) is rendered only when asked for.
    optimized: OptimizedPlan | None = field(default=None, repr=False)
    params: tuple = field(default=(), repr=False)

    @property
    def plan_text(self) -> str:
        if self.optimized is None:
            return ""
        return self.optimized.with_params(self.params).explain()

    @property
    def response_time(self) -> float:
        return max(0.0, self.finished_at - self.started_at)


class DistributedExecutor:
    """Executes optimized plans across the machine's OFMs.

    Parameters
    ----------
    runtime:
        The POOL-X runtime hosting the OFMs.
    catalog:
        The data dictionary (fragment homes).
    allocator:
        The data allocation manager (which OFMs serve a fragment).
    """

    def __init__(
        self,
        runtime: PoolRuntime,
        catalog: Catalog,
        allocator: DataAllocationManager,
    ):
        self.runtime = runtime
        self.machine = runtime.machine
        self.catalog = catalog
        self.allocator = allocator
        self.evaluator = Evaluator()
        #: Compiled single-pass bucket splitters, one per shuffle shape.
        self._splitters = SplitterCache()
        #: Tracer handle (None unless the runtime carries an enabled
        #: tracer); spans cover operator execution and whole queries.
        self._tracer = active(runtime.tracer)
        #: Cold-path instruments (per query / per shuffle, never per
        #: row); surfaced through ``PrismaDB.observe()`` as "metrics".
        self.metrics = MetricsRegistry()
        #: Per-fragment read heat (host-side only); the GDH adds DML
        #: touches so the rebalancer sees the full access mix.
        self.access = FragmentAccessTracker()
        self._temp_counter = 0
        # Per-execution state.  The public part is what a dispatch step
        # reads and writes: the query process, the parameter values, each
        # access's route, the materialized shared subexpressions, a
        # running fixpoint's per-predicate delta and total relations, the
        # rounds each recursive predicate took, and what each recursion
        # or closure the statement's queries read yielded.
        self.query_process: PoolProcess | None = None
        self.params: Sequence = ()
        self.routes: list = []
        self.shared: dict[str, DistRelation] = {}
        self.deltas: dict[str, DistRelation] = {}
        self.totals: dict[str, DistRelation] = {}
        self.rounds: dict[str, int] = {}
        self.memo: dict[tuple, tuple] = {}
        self._temps: list[OneFragmentManager] = []
        self._dispatched: set[str] = set()
        self._report: ExecutionReport = ExecutionReport()

    @property
    def splitters(self) -> SplitterCache:
        """The shuffle splitter cache (a Snapshot stats surface)."""
        return self._splitters

    # -- entry point -----------------------------------------------------------

    def execute(
        self, queries: Sequence[RoutedQuery], query_process: PoolProcess
    ) -> list[tuple[list[Row], ExecutionReport]]:
        """Run routed executions of dispatch plans in order (a PRISMAlog
        program's queries); returns each one's rows at the query process
        and report.  What several of them read runs once (``memo``)."""
        self.query_process = query_process
        self.memo, self._temps = {}, []
        try:
            return [self._execute(routed, query_process) for routed in queries]
        finally:
            for temp in self._temps:
                temp.destroy()
            self.memo, self.shared, self.deltas, self.totals = {}, {}, {}, {}

    def _execute(
        self, routed: RoutedQuery, query_process: PoolProcess
    ) -> tuple[list[Row], ExecutionReport]:
        query = routed.plan
        self.params, self.routes = routed.params, routed.routes
        self.shared, self.deltas, self.totals = {}, {}, {}
        self._dispatched = set()
        temps = len(self._temps)
        report = ExecutionReport(
            started_at=query_process.ready_at, optimized=query.optimized, params=routed.params
        )
        self._report = report
        self.rounds = report.rounds
        stats_before = (self.runtime.stats.messages, self.runtime.stats.bytes_moved)
        # Recursive components first, then common subexpressions
        # (which may read them), each materialized once, in order.
        for fixpoint in query.fixpoints:
            fixpoint(self)
        for token, step in query.shared:
            self.shared[token] = self.flush(step(self))
        rows = self.gather(query.root(self), query_process).parts[0].rows
        report.finished_at = query_process.ready_at
        report.rows_returned = len(rows)
        report.temp_ofms = len(self._temps) - temps
        report.messages = self.runtime.stats.messages - stats_before[0]
        report.bytes_shipped = self.runtime.stats.bytes_moved - stats_before[1]
        self.metrics.counter("executor.queries").inc()
        self.metrics.counter("executor.temp_ofms").inc(report.temp_ofms)
        self.metrics.histogram("executor.rows_returned").observe(report.rows_returned)
        if self._tracer is not None:
            self._tracer.span(
                report.started_at,
                report.finished_at,
                "executor.query",
                query_process.name,
                node=query_process.node_id,
                actor=query_process.name,
                rows=report.rows_returned,
                messages=report.messages,
                bytes=report.bytes_shipped,
            )
        return rows, report

    # -- infrastructure ----------------------------------------------------------

    def spawn_temp(self, start_at: float) -> OneFragmentManager:
        """A transient query-profile OFM for intermediate results."""
        name = f"temp-ofm-{self._temp_counter}"
        self._temp_counter += 1
        # Single-column ANY schema: transient OFMs hold raw row lists and
        # only use the table for memory accounting.
        schema = Schema([Column("x", DataType.ANY)])
        ofm = self.runtime.spawn(
            OneFragmentManager,
            name=name,
            placement=LeastLoaded(),
            start_at=start_at,
            schema=schema,
            profile=OFMProfile.QUERY,
        )
        self._temps.append(ofm)
        return ofm

    def _dispatch(self, process: PoolProcess) -> None:
        """First contact with a process in this query ships its subplan."""
        assert self.query_process is not None
        if process.name in self._dispatched or process is self.query_process:
            return
        self._dispatched.add(process.name)
        # Marshalling CPU is SEND_OVERHEAD_S inside send(); the plan-build
        # CPU was charged by the GDH front-end (_charge_frontend).
        self.runtime.send(self.query_process, process, SUBPLAN_BYTES)  # prismalint: disable=PL004 -- charged in GDH front-end

    def run_local(self, process: PoolProcess, plan: PlanNode, *inputs: list) -> list:
        """Run the operator at the root of *plan* over *inputs* (its
        children's rows, already at *process*), charging its simulated
        CPU: a tuple per input row read, then the operator's own work."""
        meter = WorkMeter()
        meter.tuples += sum(map(len, inputs))
        rows = LocalExecutor(evaluator=self.evaluator, meter=meter).step(plan, *inputs)
        self._charge(process, meter, type(plan).__name__, len(rows))
        return rows

    def _charge(
        self, process: PoolProcess, meter: WorkMeter, operator: str, n_rows: int
    ) -> None:
        """Charge one operator's metered work to *process* (and trace it)."""
        self._dispatch(process)
        tuples = int(meter.tuples)
        seconds = self.machine.cpu_time(
            tuples=tuples, hashes=int(meter.hashes), compares=int(meter.compares)
        )
        started = process.ready_at
        process.charge(seconds, tuples=tuples)
        if self._tracer is not None:
            self._tracer.span(
                started,
                process.ready_at,
                "operator.execute",
                operator,
                node=process.node_id,
                actor=process.name,
                rows=n_rows,
                tuples=tuples,
            )

    def flush(self, relation: DistRelation) -> DistRelation:
        """Run the pending chain: one kernel call per part, then the
        charges and spans stage by stage.

        The simulated machine saw one operator at a time run over all
        parts before the next started, and must keep seeing that: a
        processing element hosting two parts sums its busy time in that
        order, ``LeastLoaded`` placement reads the sum, and float
        addition does not reassociate.  So nothing is charged while the
        kernels run; the per-stage meters are replayed stage-major
        afterwards.  (A chain that fails charges nothing.)
        """
        if not relation.pending:
            return relation
        parts = relation.parts
        stages = tuple(stage for _name, stage in relation.pending)
        pipeline = self.evaluator.pipeline(stages, uses=len(parts))
        results = []
        for part in parts:
            meters = [WorkMeter() for _ in stages]
            rows, outs = pipeline.run(part.rows, meters, rescan=True)
            results.append((Part(part.process, rows), meters, outs))
        for index, (name, _stage) in enumerate(relation.pending):
            for part, meters, outs in results:
                self._charge(part.process, meters[index], name, outs[index])
        return DistRelation(
            [part for part, _meters, _outs in results], relation.partition_cols
        )

    def then(
        self,
        relation: DistRelation,
        partition_cols: tuple[int, ...] | None,
        operator: str,
        *ops: Op,
    ) -> DistRelation:
        """*relation* with one more fragment-local stage pending: *ops*,
        charged together and traced under the name *operator*."""
        return DistRelation(
            relation.parts, partition_cols, relation.pending + ((operator, ops),)
        )

    def _row_bytes(self, rows: list) -> int:
        """Wire size estimate from actual values (sampled)."""
        if not rows:
            return 0
        sample = rows[: min(len(rows), 50)]
        per_row = sum(map(_value_bytes, sample)) / len(sample)  # prismalint: disable=PL101 -- message sizing only; the send this feeds charges the network
        return int(per_row * len(rows)) + 16

    def ship_all(self, moves: list[tuple[PoolProcess, PoolProcess, list]]) -> None:
        """Move ``(source, target, rows)`` batches at once, as one fan-out:
        each source sends on its own clock, and no target's clock moves
        before every batch has left (:meth:`PoolRuntime.fan_out`).  The
        executor moves rows this way only; a co-located move is still a
        message."""
        messages = []
        for source, target, rows in moves:  # prismalint: disable=PL101 -- message sizing only; the fan-out this feeds charges the network
            self._dispatch(target)
            messages.append((source, target, self._row_bytes(rows)))
        self.runtime.fan_out(messages)  # prismalint: disable=PL004 -- charged in run_local

    def gather(self, relation: DistRelation, target: PoolProcess) -> DistRelation:
        """Collect every part at *target* (the fan-in of a query), the
        remote ones through the relay tree of :meth:`_tree_gather`."""
        relation = self.flush(relation)
        parts = relation.parts
        if len(parts) == 1 and parts[0].process is target:
            return relation
        self.metrics.counter("executor.gathers").inc()
        self._tree_gather([part for part in parts if part.process is not target], target)
        return DistRelation([Part(target, relation.all_rows())], None)

    def _relay_groups(self, nodes: list[int], distance):
        """The relay tree's one level below a root, for members hosted
        at element ids *nodes*: yields ``(relay, rest)`` member
        positions per group.

        Members are ordered by hosting element id (contiguous id ranges
        are physically close on every structured topology) and split
        into ``MULTICAST_FANIN`` even groups; each group elects as relay
        the member with the fewest hops to the root, which is what
        *distance* (element id -> hops) measures.
        """
        fanin = MULTICAST_FANIN
        relays = self.metrics.counter("executor.tree_relays")
        order = sorted(range(len(nodes)), key=lambda i: (nodes[i], i))
        base, extra = divmod(len(order), fanin)
        start = 0
        for g in range(fanin):
            size = base + (1 if g < extra else 0)
            group = order[start : start + size]
            start += size
            relay = min(group, key=lambda i: (distance(nodes[i]), nodes[i], i))
            rest = [i for i in group if i != relay]
            if rest:
                relays.inc()
            yield relay, rest

    def _tree_gather(self, parts: list[Part], target: PoolProcess) -> None:
        """Charge a gather as a deterministic relay-tree multicast.

        Up to ``MULTICAST_FANIN`` parts ship to *target* as one fan-out.
        Beyond it, within each group of :meth:`_relay_groups` the members
        ship to the relay (recursively when the group itself exceeds the
        fan-in) and the relay forwards the group's rows in one combined
        message.  The target therefore pays O(fanin) receive overheads
        instead of O(parts), and long-haul flows collapse to one message
        per subtree.  Only transfer charges move through the tree; result
        rows are still concatenated from the original parts by the
        caller, so answers cannot change.
        """
        if len(parts) <= MULTICAST_FANIN:
            self.ship_all([(part.process, target, part.rows) for part in parts])
            return
        hops = self.machine.router.hops
        target_node = target.node_id
        nodes = [part.process.node_id for part in parts]
        for relay_index, rest in self._relay_groups(
            nodes, lambda node: hops(node, target_node)
        ):
            relay = parts[relay_index]
            members = [parts[i] for i in rest]
            if members:
                self._tree_gather(members, relay.process)
            combined = list(relay.rows)
            for member in members:
                combined.extend(member.rows)
            self.ship_all([(relay.process, target, combined)])

    # -- base-table reads --------------------------------------------------------

    def scan(self, info, fragment_ids: list[int] | None, predicate) -> DistRelation:
        """Read *info*'s fragments *fragment_ids* (None: all), each at its
        chosen copy (:meth:`_copy_to_read`) — with *predicate*, filtered
        at the OFM (its ``?`` read from this execution's parameters),
        through a local index when one matches."""
        report = self._report
        fragments = info.fragments
        if fragment_ids is not None:
            wanted = set(fragment_ids)
            fragments = [f for f in fragments if f.fragment_id in wanted]
            report.fragments_pruned += len(info.fragments) - len(fragments)
        origin = self.query_process.node_id if self.query_process is not None else 0
        parts: list[Part] = []
        for fragment in fragments:
            ofm = self._copy_to_read(info, fragment, origin)
            self._dispatch(ofm)
            if predicate is None:
                rows = ofm.scan_rows()
            else:
                rows, used_index = ofm.filtered_scan(predicate, self.params)
                if used_index:
                    report.index_scans += 1
            report.fragments_scanned += 1
            parts.append(Part(ofm, rows))
        if not parts:
            assert self.query_process is not None
            parts = [Part(self.query_process, [])]
        # A pruned read holds fewer parts than the shuffle has targets.
        partition_cols = info.scheme.shuffle_key() if fragment_ids is None else None
        return DistRelation(parts, partition_cols)

    def _copy_to_read(self, info, fragment, origin: int) -> OneFragmentManager:
        """The copy of *fragment* this read uses, chosen when it runs.

        Read load-balancing across fragment copies (Section 2.2's "same
        copy" wording — different readers may use different copies):
        pick the copy whose element is free earliest, ties broken by
        name so the choice stays deterministic.  Copies that died with
        their element, or that the network can no longer reach from the
        query process at *origin*, are skipped — reads fail over to a
        live replica and only error when no copy at all survives.
        """
        machine = self.machine
        live = [
            ofm
            for ofm in self.allocator.copies(fragment)
            if machine.reachable(origin, ofm.node_id)
        ]
        if not live:
            raise ExecutionError(
                f"no live reachable copy of fragment {fragment.fragment_id}"
                f" of table {info.name!r}"
            )
        self.access.record(info.name, fragment.fragment_id)
        return min(live, key=lambda c: (c.ready_at, c.name))

    # -- repartitioning machinery ----------------------------------------------------------

    def repartition(
        self,
        relation: DistRelation,
        key_cols: tuple[int, ...],
        targets: list[PoolProcess] | None = None,
    ) -> DistRelation:
        """Hash-shuffle *relation* on *key_cols* onto *targets*.

        Default targets are the relation's own processes (no new OFMs);
        rows whose destination equals their source do not cross the
        network.
        """
        relation = self.flush(relation)
        if targets is None:
            targets = [part.process for part in relation.parts]
        if len(targets) == 1:
            buckets = [[part.rows] for part in relation.parts]
        else:
            # One pass per part through a compiled, key-specialized
            # splitter (repro.exec.shuffle); bucket assignment is
            # bit-identical to the interpreted ``_hash_key(row, key_cols) % k``.
            split = self._splitters.splitter(key_cols, len(targets))
            self._splitters.record_invocation()
            buckets = [split(part.rows) for part in relation.parts]
        sources = [part.process for part in relation.parts]
        return self._exchange(sources, buckets, targets, key_cols)

    def _exchange(
        self,
        sources: list[PoolProcess],
        buckets: list[list[list]],
        targets: list[PoolProcess],
        key_cols: tuple[int, ...],
    ) -> DistRelation:
        """Ship split rows: ``buckets[i][j]`` sits at ``sources[i]`` and
        belongs at ``targets[j]``, split on *key_cols* by the shuffle hash.

        Each source pays a hash per row it split, then ships its buckets
        in target order, all of it on its own clock: the exchange is one
        fan-out, so no source waits for what the others send it.  A
        single target gathers instead.
        """
        k = len(targets)
        sizes = [sum(map(len, split)) for split in buckets]
        total = sum(sizes)
        self.metrics.counter("executor.repartitions").inc()
        self.metrics.histogram("executor.shuffle_rows").observe(total)
        if self._tracer is not None:
            anchor = sources[0] if sources else targets[0]
            self._tracer.event(
                anchor.ready_at,
                "executor.repartition",
                f"x{k}",
                node=anchor.node_id,
                actor=anchor.name,
                rows=total,
                targets=k,
            )
        if k == 1:
            held = [Part(source, split[0]) for source, split in zip(sources, buckets)]
            return self.gather(DistRelation(held, None), targets[0])
        merged: list[list] = [[] for _ in range(k)]
        moves = []
        for source, outgoing, size in zip(sources, buckets, sizes):
            # Hash-splitting is CPU work at the source.
            source.charge(self.machine.cpu_time(hashes=size))
            for target, rows, bucket in zip(targets, outgoing, merged):
                if not rows:
                    continue
                if target is not source:
                    moves.append((source, target, rows))
                bucket.extend(rows)
        self.ship_all(moves)
        parts = [Part(target, rows) for target, rows in zip(targets, merged)]
        return DistRelation(parts, key_cols)

    def broadcast(
        self, relation: DistRelation, targets: list[PoolProcess]
    ) -> list[list]:
        """Copy the whole relation to every target; returns rows per target.

        Each source part ships directly to each remote target, all parts
        at once (one fan-out), so no copy waits on a gather hop first.
        Beyond ``MULTICAST_FANIN`` targets each part's copies fan out
        through the relay tree of :meth:`_tree_scatter` instead, so no
        source serializes more than ``MULTICAST_FANIN`` sends.
        """
        self.metrics.counter("executor.broadcasts").inc()
        parts = relation.parts
        if len(targets) > MULTICAST_FANIN:
            for part in parts:
                remote = [t for t in targets if t is not part.process]
                if remote:
                    self._tree_scatter(part.process, remote, part.rows)
        else:
            self.ship_all(
                [
                    (part.process, target, part.rows)
                    for target in targets
                    for part in parts
                    if part.process is not target
                ]
            )
        rows = relation.all_rows()
        return [rows for _ in targets]

    def _tree_scatter(
        self, source: PoolProcess, targets: list[PoolProcess], rows: list
    ) -> None:
        """Charge one part's broadcast as a relay-tree multicast.

        Mirror image of :meth:`_tree_gather`: up to ``MULTICAST_FANIN``
        targets receive their copies as one fan-out; beyond it each
        group's relay receives one copy and forwards it down its
        subtree.
        """
        if len(targets) <= MULTICAST_FANIN:
            self.ship_all([(source, target, rows) for target in targets])
            return
        hops = self.machine.router.hops
        source_node = source.node_id
        nodes = [target.node_id for target in targets]
        for relay_index, rest in self._relay_groups(
            nodes, lambda node: hops(source_node, node)
        ):
            relay = targets[relay_index]
            self.ship_all([(source, relay, rows)])
            if rest:
                self._tree_scatter(relay, [targets[i] for i in rest], rows)

    # -- recursion ----------------------------------------------------------------------------------

    def dedup_at_owners(self, relation: DistRelation, seen: list[set]) -> DistRelation:
        """The rows of *relation* its owners have not seen yet.

        *relation* is split on the whole row, part ``i`` at the owner
        that keeps ``seen[i]``.  Each owner pays a hash per row it
        checks, keeps the first occurrence of each row (``dict.fromkeys``
        keeps arrival order: hash order must not leak into the rows,
        PL102), drops what it already holds and remembers the rest.
        """
        fresh_parts = []
        for part, owned in zip(relation.parts, seen):
            part.process.charge(self.machine.cpu_time(hashes=len(part.rows)))
            fresh = [row for row in dict.fromkeys(part.rows) if row not in owned]
            owned.update(fresh)
            fresh_parts.append(Part(part.process, fresh))
        return DistRelation(fresh_parts, relation.partition_cols)

    def join_into_owners(
        self, parts: list[Part], build: list[Part], tables: list[dict], weight: float
    ) -> DistRelation:
        """Join part ``i``'s pairs ``(a, b)`` on ``b`` with ``tables[i]``
        (built from ``build[i]``) and ship each ``(a, c)`` to the *build*
        site its whole-row hash names.  Each site is charged first, in
        closed form, as the join/project template (a tuple per row read,
        a hash per row built or probed, per joined row a tuple and the
        projection's tuple and *weight* compares); the shuffle statistics
        count the exchange as the split it spares."""
        owners = [part.process for part in build]
        buckets = []
        for part, built, table in zip(parts, build, tables):
            split = derive_pairs_into_buckets(part.rows, table, len(owners))
            self._dispatch(part.process)
            probe, build_rows, joined = len(part.rows), len(built.rows), sum(map(len, split))
            tuples = probe + build_rows + 2 * joined
            seconds = self.machine.cpu_time(
                tuples=tuples, hashes=build_rows + probe, compares=int(joined * weight)
            )
            part.process.charge(seconds, tuples=tuples)
            buckets.append(split)
        if len(owners) > 1:
            self._splitters.splitter((0, 1), len(owners))
            self._splitters.record_invocation()
        return self._exchange([part.process for part in parts], buckets, owners, (0, 1))

    def closure(self, relation: DistRelation) -> tuple[DistRelation, int]:
        """Transitive closure of *relation* and its rounds, by the OFM's
        closure operator at one transient OFM: how a one-part or empty
        input runs (a fragmented one runs the distributed loop)."""
        assert self.query_process is not None
        site = self.spawn_temp(self.query_process.ready_at)
        rows = self.gather(relation, site).parts[0].rows
        meter = WorkMeter()
        meter.tuples += len(rows)
        result = seminaive_closure([tuple(r) for r in rows], meter)
        self._charge(site, meter, "ClosureNode", len(result.rows))
        return DistRelation([Part(site, list(result.rows))], None), result.iterations


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


def _value_bytes(row: tuple) -> int:
    total = 0
    for value in row:  # prismalint: disable=PL101 -- message sizing only; the send this feeds charges the network
        # Exact-type fast path first: nearly every wire value is a
        # builtin int/str/float. bool subclasses int, so `type(...) is
        # int` stays False for it and the slow chain keeps the 1-byte
        # answer for bools, identical to the isinstance ladder.
        t = type(value)
        if t is int:
            total += 4
        elif t is str:
            total += 2 + len(value)
        elif t is float:
            total += 8
        elif value is None or isinstance(value, bool):
            total += 1
        elif isinstance(value, int):
            total += 4
        elif isinstance(value, float):
            total += 8
        elif isinstance(value, str):
            total += 2 + len(value)
        else:
            total += 8
    return total


def rows_bytes(rows: list[tuple]) -> int:
    """Wire size of shipped rows, exact (DML statements, bulk loads)."""
    return sum(_value_bytes(row) for row in rows) + 16  # prismalint: disable=PL101 -- message sizing only; the send this feeds charges the network
