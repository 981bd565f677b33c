"""GDH-level plan cache for the serving layer.

The same structural-hash idea as the OFM's
:class:`~repro.exec.compiler.ExpressionCompilerCache`, lifted from
expression granularity to whole statements.  The key is the statement
*template* (:func:`repro.serve.params.statement_key`: text and parameter
types); the entry is a :class:`~repro.core.gdh.Prepared` statement — a
query bound and optimized, DML bound, anything else its AST — with
``Param`` leaves where the ``?`` stood, and its dispatch plan compiled
(:mod:`repro.core.dispatch`).  One entry therefore serves every
execution of a template: a parameter-generic plan is sound here because
nothing value-dependent is decided before run time (fragment pruning
reads the value when an execution is routed —
``TableInfo.pruned_fragments``, for the GDH's lock sets and the
executor's scan sets alike; selectivity estimates only ask whether an
operand is a constant).  A hit earns the
cache-hit discount on the simulated front-end charge whatever the
statement kind.

Invalidation is wholesale on DDL: the GDH bumps its ``ddl_epoch`` and
calls :meth:`PlanCache.invalidate`, dropping every entry.  Finer-grained
invalidation (per touched table) is not worth the bookkeeping at this
scale — DDL is rare in every workload we model.

Capacity is bounded FIFO: when full, the oldest entry (Python dicts are
insertion-ordered) is evicted.  Deterministic, and with template keys a
workload's whole statement repertoire fits many times over.
"""

from __future__ import annotations

from typing import Any

from repro.core.gdh import STATEMENT_CACHE_CAPACITY
from repro.obs.api import SnapshotMixin

__all__ = ["PlanCache"]

#: Default entry bound — the one the GDH's parse memo has, for the same
#: reason: entries are per template, and a scan of distinct ad-hoc
#: statements cannot grow the cache without bound.
DEFAULT_CAPACITY = STATEMENT_CACHE_CAPACITY


class PlanCache(SnapshotMixin):
    """Bounded template→prepared-statement cache with epoch invalidation."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: dict[tuple, Any] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when cold)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Any | None:
        """The prepared statement cached for *key*, or None (counts the
        lookup)."""
        self.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: tuple, entry: Any) -> None:
        if key in self._entries:
            self._entries[key] = entry
            return
        if len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[key] = entry

    def invalidate(self) -> None:
        """Drop everything: DDL moved schemas or fragment placement.

        Called by the GDH's ``_ddl_changed``; the epoch itself lives on
        the GDH (and inside each cached ``Prepared``) — the cache only
        needs to empty itself.
        """
        self._entries.clear()
        self.invalidations += 1

    # -- Snapshot ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self._entries),
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }
