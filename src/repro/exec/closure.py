"""Transitive closure of a binary relation.

Section 2.5: the OFMs "support a transitive closure operator for dealing
with recursive queries", and Section 2.3 defines PRISMAlog semantics "in
terms of extensions of the relational algebra" — algebra plus this
operator.  :func:`seminaive_closure` (join only the newly derived delta
each round) is what a plan's ``ClosureNode`` runs.  The other functions
are the baselines experiment E6 and the tests compare it against:
**naive** (re-derive everything each round), **smart** (path doubling,
logarithmically many but heavier rounds) and the selection-pushed
:func:`reachable_from`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.exec.operators import WorkMeter

Pair = tuple


def ordered(rows: Iterable) -> list:
    """Deterministic ordering even for heterogeneous/NULL-bearing rows."""
    rows = list(rows)
    try:
        return sorted(rows)
    except TypeError:
        return sorted(rows, key=repr)

#: Safety valve: recursion on a finite database must converge long before
#: this; hitting it means a bug in the closure loop.
MAX_ITERATIONS = 100_000


@dataclass
class FixpointResult:
    """Rows of the least fixpoint plus how many rounds it took."""

    rows: list
    iterations: int


def edge_table(edges: Iterable[Pair]) -> dict:
    """``src -> [dst, ...]``, the build side every closure round probes.

    Edges with a NULL source are left out: NULL equals nothing, so no
    path continues through them (the SQL equi-joins refuse the same
    pairs).  They stay in the result as the base edges they are.
    """
    adjacency: dict = {}
    get = adjacency.get
    for a, b in edges:
        if a is None:
            continue
        bucket = get(a)
        if bucket is None:
            adjacency[a] = [b]
        else:
            bucket.append(b)
    return adjacency


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


def seminaive_closure(edges: Sequence[Pair], meter: WorkMeter) -> FixpointResult:
    """Semi-naive iteration: only the delta joins with the edges each round."""
    edge_list = list(dict.fromkeys(edges))
    adjacency = edge_table(edge_list)
    total: set[Pair] = set(edge_list)
    delta: list[Pair] = list(total)
    iterations = 0
    while delta:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise ExecutionError("semi-naive closure failed to converge")
        new: list[Pair] = []
        meter.hashes += len(delta)
        for a, b in delta:
            for c in adjacency.get(b, ()):
                pair = (a, c)
                # Every derivation attempt costs a duplicate check.
                meter.tuples += 1
                if pair not in total:
                    total.add(pair)
                    new.append(pair)
        delta = new
    return FixpointResult(ordered(total), iterations)


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
