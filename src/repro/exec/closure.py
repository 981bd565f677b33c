"""Transitive closure of a binary relation.

Section 2.5: the OFMs "support a transitive closure operator for dealing
with recursive queries", and Section 2.3 defines PRISMAlog semantics "in
terms of extensions of the relational algebra" — algebra plus this
operator.  :func:`seminaive_closure` (join only the newly derived delta
each round) is what a ``ClosureNode`` runs at one site.  The baselines
experiment E6 and the tests compare it against — **naive** (re-derive
everything each round), **smart** (path doubling, logarithmically many
but heavier rounds) and the selection-pushed ``reachable_from`` — are
test-side references in ``tests/oracle``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.exec.operators import WorkMeter

Pair = tuple


def ordered(rows: Iterable) -> list:
    """Deterministic ordering even for heterogeneous/NULL-bearing rows
    (a list is sorted in place)."""
    rows = rows if type(rows) is list else list(rows)
    try:
        rows.sort()
    except TypeError:
        rows.sort(key=repr)
    return rows

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
