"""Shared helpers for the experiment benchmarks.

Each ``bench_eN_*.py`` regenerates the series one figure/table of the
evaluation would show (see DESIGN.md section 3 and EXPERIMENTS.md).
Results are printed *and* written to ``benchmarks/results/eN_*.txt`` so
``pytest benchmarks/ --benchmark-only`` leaves the measured tables on
disk even though pytest captures stdout.

Also home to ``digest``, the short hash the perf gate pins row sets
with.  Importing it puts the repository root on ``sys.path``, so a
bench can import the row-at-a-time references in ``tests/oracle``.
Benchmarks time the host with their own ``time.perf_counter()``;
simulation code never reads wall time (prismalint PL001/PL006 enforce
that).
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
from collections.abc import Iterable, Sequence

from repro.obs.export import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


def build_parser(
    description: str,
    *,
    seed: int | None = None,
    out: pathlib.Path | None = None,
    quick_help: str | None = None,
    n_nodes: Sequence[int] | None = None,
) -> argparse.ArgumentParser:
    """The shared CLI skeleton for the ``bench_*`` entry points.

    Every bench that wants a flag gets the *same* flag: ``--seed``
    (default per bench), ``--out`` (a file or directory path), ``--quick``
    (reduced sweep), ``--n-nodes`` (machine sizes).  Pass a default to
    opt a flag in; leave it ``None`` to keep it off that bench's CLI.
    Benches add their own extra flags on the returned parser.
    """
    parser = argparse.ArgumentParser(description=description)
    if seed is not None:
        parser.add_argument(
            "--seed", type=int, default=seed,
            help=f"workload/fault RNG seed (default {seed})",
        )
    if out is not None:
        parser.add_argument(
            "--out", type=pathlib.Path, default=out,
            help="output path (created if missing)",
        )
    if quick_help is not None:
        parser.add_argument("--quick", action="store_true", help=quick_help)
    if n_nodes is not None:
        parser.add_argument(
            "--n-nodes", type=int, nargs="+", default=list(n_nodes),
            help="machine sizes to sweep",
        )
    return parser


def digest(value: object) -> str:
    """Short stable digest of any repr-able value (perf-baseline pins)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        return f"{cell:.3g}"
    return str(cell)


def report(
    experiment: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: str = "",
) -> str:
    """Print and persist one experiment table."""
    table = format_table(headers, [[_fmt(cell) for cell in row] for row in rows])
    text = f"== {experiment}: {title} ==\n{table}\n"
    if notes:
        text += f"\n{notes}\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment.lower()}.txt").write_text(text)
    print("\n" + text)
    return text
