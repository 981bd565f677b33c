"""Common-subexpression detection (paper Section 2.4).

The optimizer's knowledge base includes "detection of common
subexpressions": when the same subplan appears more than once in a query
(self-joins over the same filtered relation, UNIONs of overlapping
branches, PRISMAlog bodies sharing literals), the subplan is evaluated
once into a transient One-Fragment Manager and scanned from every
consumer instead of being recomputed.

The rewrite replaces repeated subtrees with :class:`SharedScanNode`
leaves and returns the extracted plans; the executor materializes them
in dependency order before the main plan runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.algebra.plan import PlanNode, SharedScanNode


@dataclass
class SharedPlan:
    """A materialized common subexpression."""

    token: str
    plan: PlanNode
    occurrences: int


def _is_candidate(node: PlanNode) -> bool:
    """Only non-leaf subtrees are worth materializing (scanning a base
    fragment twice is cheaper than materializing a copy), and only ones
    that do not already read a shared scan."""
    if not node.children:
        return False
    return not any(isinstance(n, SharedScanNode) for n in node.walk())


def extract_common_subexpressions(
    plan: PlanNode, token_prefix: str = "cse"
) -> tuple[PlanNode, list[SharedPlan]]:
    """Replace repeated subtrees with shared scans.

    Only *maximal* repeated subtrees are extracted: if a whole subtree
    repeats, its internal repeats are already covered by materializing
    it once.
    """
    counts: Counter = Counter(
        node.key() for node in plan.walk() if _is_candidate(node)
    )
    repeated = {key for key, count in counts.items() if count >= 2}
    if not repeated:
        return plan, []

    shared: dict[tuple, SharedPlan] = {}

    def rewrite(node: PlanNode) -> PlanNode:
        key = node.key()
        if key in repeated and _is_candidate(node):
            entry = shared.get(key)
            if entry is None:
                entry = SharedPlan(
                    token=f"{token_prefix}{len(shared)}",
                    plan=node,
                    occurrences=0,
                )
                shared[key] = entry
            entry.occurrences += 1
            return SharedScanNode(entry.token, node.schema)
        return node.with_children([rewrite(c) for c in node.children])

    rewritten = rewrite(plan)
    return rewritten, list(shared.values())
