"""Per-layer attribution for the traced repetition.

Three sources, combined in :func:`layer_metrics`:

* counts — the databases' own counters (``db.observe().stats()``, the
  lock and transaction managers, the WALs), as a delta over the timed
  region (:func:`snapshot`);
* simulated-clock splits — ``repro.obs.Tracer`` records summed by kind
  (:class:`SimSpans`);
* host-clock splits — self times of the spans ``hosttrace`` records.

Unless its name says otherwise a ``*.host_us`` figure is self time per
op in microseconds and a ``*_sim_ms`` figure is simulated milliseconds
per op, both averaged over every op of the timed region, so the host
figures of one workload add up to its mean host time per op.
"""

from __future__ import annotations

from collections import defaultdict

#: Drain the simulated-clock tracer well before its ring buffer wraps.
DRAIN_AT = 100_000


class SimSpans:
    """Running per-kind totals of a ``repro.obs.Tracer``."""

    def __init__(self, tracer):
        self.tracer = tracer
        #: Simulated-clock figures that only exist as return values;
        #: the host wrappers add them up here (see ``hosttrace``).
        self.returned: dict[str, float] = defaultdict(float)
        self.clear()

    def clear(self) -> None:
        self.tracer.reset()
        self.returned.clear()
        self.count: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.dropped = 0

    def drain(self, force: bool = False) -> None:
        tracer = self.tracer
        if not force and len(tracer) < DRAIN_AT:
            return
        count, seconds = self.count, self.seconds
        for _start, duration, kind, _name, _node, _actor, _args in tracer.events:
            count[kind] += 1
            seconds[kind] += duration
        self.dropped += tracer.dropped
        tracer.reset()


def snapshot(dbs) -> dict[str, float]:
    """The counters of *dbs* (summed), as one flat dict."""
    out: dict = defaultdict(float)
    out["nodes.busy"] = []
    for db in dbs:
        stats = db.observe().stats()
        for key in ("messages", "bytes_moved", "processes_spawned"):
            out[f"runtime.{key}"] += stats["runtime"][key]
        out["nodes.tuples_processed"] += stats["nodes"]["tuples_processed"]
        out["nodes.busy"].append(
            [node.stats.busy_time_s for node in db.machine.nodes]
        )
        for key in ("queries", "gathers", "repartitions", "temp_ofms"):
            entry = stats["metrics"].get(f"executor.{key}")
            out[f"executor.{key}"] += entry["value"] if entry else 0
        for source in ("expressions", "shuffle"):
            for key in ("compilations", "hits"):
                out[f"{source}.{key}"] += stats[source][key]
        out["shuffle.batch_invocations"] += stats["shuffle"]["batch_invocations"]
        cache = stats.get("plan_cache")
        if cache:
            for key in ("lookups", "hits", "evictions"):
                out[f"plan_cache.{key}"] += cache[key]
        admission = stats.get("admission")
        if admission:
            for key in ("admitted", "delayed", "total_wait_s"):
                out[f"admission.{key}"] += admission[key]
            out["admission.depth_total"] += admission["queue_depth"]["total"]
        gdh = db.gdh
        out["locks.conflicts"] += gdh.locks.conflicts
        out["locks.deadlocks"] += gdh.locks.deadlocks_detected
        out["txns.committed"] += gdh.txns.committed
        out["txns.aborted"] += gdh.txns.aborted
        for ofm in gdh.fragment_ofms.values():
            if ofm.wal is not None:
                out["wal.forces"] += ofm.wal.forces
                out["wal.bytes"] += ofm.wal.durable_bytes()
        for name in db.catalog.table_names():
            out["storage.rows"] += db.table_row_count(name)
    return dict(out)


def delta(before: dict, after: dict) -> dict:
    """Counter growth over the timed region (``storage.rows`` is a level).

    ``nodes.busy`` becomes one list per database of each PE's busy
    seconds inside the region.
    """
    out = {}
    for key, value in after.items():
        if key == "storage.rows":
            out[key] = value
        elif key == "nodes.busy":
            out[key] = [
                [b - a for a, b in zip(was, now)]
                for was, now in zip(before[key], value)
            ]
        else:
            out[key] = value - before.get(key, 0)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rep, host_summary, whole_summary, sim) -> dict:
    """Per-layer metrics of one traced repetition on a database workload."""
    ops = max(1, rep.ops)
    c = defaultdict(float, rep.counters)
    busy = c.pop("nodes.busy")

    def host_us(*prefixes: str) -> float:
        """Self µs per op of every span whose name starts with a prefix."""
        total = sum(
            entry["self_ns"]
            for name, entry in host_summary.items()
            if name.startswith(prefixes)
        )
        return total / 1e3 / ops

    def calls(*prefixes: str) -> int:
        return sum(
            entry["calls"]
            for name, entry in host_summary.items()
            if name.startswith(prefixes)
        )

    def per_call_us(summary, prefix: str) -> float:
        entries = [e for n, e in summary.items() if n.startswith(prefix)]
        return _ratio(
            sum(e["self_ns"] for e in entries) / 1e3,
            sum(e["calls"] for e in entries),
        )

    def sim_ms(kind: str) -> float:
        return sim.seconds[kind] * 1e3 / ops

    commits = sim.returned["commits"]
    region_ns = host_summary["driver:region"]["total_ns"]
    op_entry = host_summary.get("driver:op", {"total_ns": 0, "self_ns": 0})
    out = {
        "sql.parse.calls": calls("sql.parse:parse_"),
        "sql.parse.host_us": host_us("sql.parse:"),
        "sql.bind.host_us": host_us("sql.bind:"),
        "algebra.optimize.calls": calls("algebra.optimize:"),
        "algebra.optimize.host_us": host_us("algebra.optimize:"),
        "serve.plancache.hit_rate": _ratio(c["plan_cache.hits"], c["plan_cache.lookups"]),
        "serve.plancache.evictions": c["plan_cache.evictions"],
        "serve.bind.host_us": host_us("serve.bind:", "serve.plancache:", "serve.admission:"),
        "serve.admission.delayed_frac": _ratio(c["admission.delayed"], c["admission.admitted"]),
        "serve.admission.wait_sim_ms_per_op": _ratio(
            c["admission.total_wait_s"] * 1e3, c["admission.admitted"]
        ),
        "serve.admission.queue_depth_mean": _ratio(
            c["admission.depth_total"], c["admission.admitted"]
        ),
        "core.gdh.statements": calls("core.gdh:"),
        "core.gdh.self_host_us": host_us("core.gdh:"),
        "core.locks.would_block": rep.counts.get("would_block", 0),
        "core.locks.deadlocks": c["locks.deadlocks"],
        "core.locks.attempts_per_commit": rep.counts.get(
            "attempts_per_commit", 1.0 if c["txns.committed"] else 0.0
        ),
        "core.locks.host_us": host_us("core.locks:"),
        "core.executor.queries": c["executor.queries"],
        "core.executor.host_us": host_us("core.executor:"),
        "core.executor.sim_ms": sim_ms("executor.query"),
        "core.executor.gathers": c["executor.gathers"],
        "core.executor.repartitions": c["executor.repartitions"],
        "core.executor.temp_ofms": c["executor.temp_ofms"],
        "core.twophase.commits": commits,
        "core.twophase.one_phase_frac": _ratio(sim.returned["one_phase"], commits),
        "core.twophase.host_us": host_us("core.twophase:"),
        "core.twophase.prepare_sim_ms": sim_ms("2pc.prepare"),
        "core.twophase.log_force_sim_ms": sim_ms("2pc.log_force"),
        "core.twophase.aborts": c["txns.aborted"],
        "exec.operator.count": sim.count["operator.execute"],
        "exec.operator.sim_ms": sim_ms("operator.execute"),
        "exec.compile.compilations": c["expressions.compilations"],
        "exec.compile.hit_rate": _ratio(
            c["expressions.hits"], c["expressions.hits"] + c["expressions.compilations"]
        ),
        "exec.shuffle.hit_rate": _ratio(
            c["shuffle.hits"], c["shuffle.hits"] + c["shuffle.compilations"]
        ),
        "exec.shuffle.batch_invocations": c["shuffle.batch_invocations"],
        "pool.sends": c["runtime.messages"],
        "pool.bytes_per_op": c["runtime.bytes_moved"] / ops,
        "pool.spawns_per_op": c["runtime.processes_spawned"] / ops,
        "pool.send.host_us": host_us("pool.send:", "pool.spawn:"),
        "pool.send.sim_ms": sim_ms("process.send"),
        "ofm.subplan.calls": calls("ofm.subplan:"),
        "ofm.subplan.host_us": host_us("ofm.subplan:"),
        "ofm.write.host_us": host_us("ofm.write:", "ofm.wal:"),
        "ofm.wal.forces": c["wal.forces"],
        "ofm.wal.force_sim_ms": sim.returned["wal_force_s"] * 1e3 / ops,
        "ofm.wal.bytes_per_commit": _ratio(c["wal.bytes"], c["txns.committed"]),
        "storage.insert.host_us": per_call_us(whole_summary, "storage.insert:"),
        "storage.lookup.host_us": per_call_us(whole_summary, "storage.lookup:"),
        "storage.rows": c["storage.rows"],
        "machine.pe.busy_total_s": sum(map(sum, busy)),
        "machine.pe.busy_max_frac": max(
            (
                _ratio(max(per_pe), span)
                for per_pe, span in zip(busy, rep.counts.get("sim_spans_s", ()))
            ),
            default=0.0,
        ),
        "machine.pe.tuples_processed": c["nodes.tuples_processed"],
        "obs.tracer.dropped": sim.dropped,
        "host.untraced_frac": _ratio(op_entry["self_ns"], op_entry["total_ns"]),
        "host.driver_frac": _ratio(host_summary["driver:region"]["self_ns"], region_ns),
    }
    out.update(rep.layers)
    return out
