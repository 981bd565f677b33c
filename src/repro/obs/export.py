"""Trace exporters: Chrome-trace JSON and a per-query text profile.

The Chrome exporter targets the Trace Event Format consumed by
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev): complete
spans (``"ph": "X"``) and instant events (``"ph": "i"``), timestamps in
microseconds.  ``pid`` carries the simulated node id and ``tid`` the
actor (process) name, so Perfetto's track grouping shows one lane per
simulated process under one group per PE.

Everything is deterministic: ``json.dumps(..., sort_keys=True)`` over
records that contain no host state means two same-seed runs export
byte-identical files — the CI trace-determinism job diffs them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

from repro.obs.tracer import Tracer

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "format_table",
    "text_profile",
    "write_chrome_trace",
]

_MICROS = 1_000_000.0


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The trace as a Chrome Trace Event Format object."""
    events: list[dict[str, Any]] = []
    for start_s, duration_s, kind, name, node, actor, args in tracer.events:
        record: dict[str, Any] = {
            "name": name,
            "cat": kind,
            "ph": "X" if duration_s > 0.0 else "i",
            "ts": start_s * _MICROS,
            "pid": node,
            "tid": actor or f"node{node}",
        }
        if duration_s > 0.0:
            record["dur"] = duration_s * _MICROS
        else:
            record["s"] = "t"  # instant-event scope: thread
        if args:
            record["args"] = dict(args)
        events.append(record)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated",
            "emitted": tracer.emitted,
            "dropped": tracer.dropped,
        },
    }


def chrome_trace_json(tracer: Tracer) -> str:
    """Byte-deterministic JSON serialization of :func:`chrome_trace`."""
    return json.dumps(chrome_trace(tracer), sort_keys=True, indent=1)


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write the Chrome-trace JSON to *path* and return it."""
    path = Path(path)
    path.write_text(chrome_trace_json(tracer) + "\n", encoding="utf-8")
    return path


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned, right-justified text table."""
    string_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in string_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in string_rows)
    return "\n".join(lines)


def text_profile(tracer: Tracer, title: str = "trace profile") -> str:
    """Aggregate the trace into an aligned per-(kind, name) text table.

    Spans contribute their simulated duration; instant events count but
    add no time.  Rows are sorted by total simulated seconds, so the
    report reads as "where did simulated time go" — the per-query
    profile the benchmarks print.
    """
    totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for _start, duration_s, kind, name, _node, _actor, _args in tracer.events:
        row = totals[(kind, name)]
        row[0] += 1
        row[1] += duration_s
        row[2] = max(row[2], duration_s)
    rows = [
        (kind, name, count, f"{total:.6f}", f"{peak:.6f}")
        for (kind, name), (count, total, peak) in sorted(
            totals.items(), key=lambda item: (-item[1][1], item[0])
        )
    ]
    table = format_table(["kind", "name", "count", "sim_total_s", "sim_max_s"], rows)
    footer = (
        f"records: {len(tracer)} retained, {tracer.emitted} emitted,"
        f" {tracer.dropped} dropped"
    )
    return f"{title}\n{table}\n{footer}"
