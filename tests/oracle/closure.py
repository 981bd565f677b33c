"""The closure baselines the engine's semi-naive operator is measured
against (experiment E6) and checked against (``tests/test_exec_closure.py``).

``repro.exec.closure.seminaive_closure`` is what a plan's ``ClosureNode``
runs.  Here are **naive** (re-derive everything each round), **smart**
(path doubling, logarithmically many but heavier rounds) and the
selection-pushed :func:`reachable_from`, each metering its work the way
the operator does.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import ExecutionError
from repro.exec.closure import MAX_ITERATIONS, FixpointResult, Pair, edge_table, ordered
from repro.exec.operators import WorkMeter


def naive_closure(edges: Sequence[Pair], meter: WorkMeter) -> FixpointResult:
    """Naive iteration: each round recomputes ``TC = E ∪ TC∘E`` from scratch.

    The textbook strawman — every round re-derives all previously known
    pairs, so total work grows with (paths × depth).
    """
    edge_list = list(dict.fromkeys(edges))
    adjacency = edge_table(edge_list)
    total: set[Pair] = set(edge_list)
    iterations = 0
    while True:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise ExecutionError("naive closure failed to converge")
        # Recompute the join of the WHOLE current result with the edges.
        derived: set[Pair] = set(edge_list)
        meter.hashes += len(total)
        for a, b in total:
            for c in adjacency.get(b, ()):
                derived.add((a, c))
                meter.tuples += 1
        if derived == total:
            return FixpointResult(ordered(total), iterations)
        total = derived


def smart_closure(edges: Sequence[Pair], meter: WorkMeter) -> FixpointResult:
    """Path-doubling ("smart") closure: squares the relation each round.

    Converges in O(log diameter) rounds; each round joins the full
    current relation with itself, so rounds are heavier — the classic
    trade-off E6 exposes.
    """
    total: set[Pair] = set(edges)
    iterations = 0
    while True:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise ExecutionError("smart closure failed to converge")
        adjacency = edge_table(total)
        meter.hashes += len(total)
        derived = set(total)
        for a, b in total:  # prismalint: disable=PL102 -- derives into a set and counts tuples; order cannot reach results (ordered sorts the output)
            for c in adjacency.get(b, ()):
                derived.add((a, c))
                meter.tuples += 1
        if derived == total:
            return FixpointResult(ordered(total), iterations)
        total = derived


def reachable_from(
    edges: Sequence[Pair], sources: Iterable, meter: WorkMeter
) -> FixpointResult:
    """Nodes reachable from *sources* — the selection-pushed closure.

    When a recursive query binds the first argument (e.g.
    ``ancestor(john, X)``), computing the full closure first is wasteful;
    this walks forward from the bound constants only.  No plan emits it:
    experiment E6 measures what the push-down would save.
    """
    adjacency = edge_table(edges)
    frontier = list(dict.fromkeys(sources))
    reached: set = set()
    iterations = 0
    while frontier:
        iterations += 1
        next_frontier = []
        meter.hashes += len(frontier)
        for node in frontier:
            for neighbor in adjacency.get(node, ()):
                if neighbor not in reached:
                    reached.add(neighbor)
                    next_frontier.append(neighbor)
                    meter.tuples += 1
        frontier = next_frontier
    return FixpointResult(ordered(reached), iterations)
