"""Compiled single-pass bucket splitters for hash repartitioning.

The distributed executor's shuffles used to call a generic
``_hash_key(row, key_cols) % k`` helper per row — two Python calls and
a tuple walk per tuple, on every repartition of every query.  This
module applies the paper's generative approach (Section 2.5) to the
*shuffle* instead of the scalar expression: each distinct
``(key_cols, k)`` shape compiles once into a specialized splitter that
makes one pass over a batch of rows and returns ``k`` bucket lists.

The generated code inlines :func:`repro.core.fragmentation.stable_hash`
for ``int`` keys (by far the common case: fragmentation keys and
closure columns) and falls back to the real function for other types,
so bucket assignment is **bit-identical** to the interpreted helper —
the same rows land in the same buckets in the same order.  A property
test (``tests/test_executor_shuffle.py``) enforces the equivalence
against that helper (``reference_bucket`` in ``tests/oracle``) for
every value type the engine ships.

When ``k`` is a power of two ``2**m`` the bucket is the hash's low
``m`` bits, and those depend only on the low ``m`` bits of each column's
hash: multiplication, XOR and the 31-bit masks all work modulo ``2**m``
(``m <= 31``).  An int's hash ``v & 0x7FFFFFFF`` has the low bits of
``v`` itself, so the generated code keeps a plain int as it is, drops
every mask and ``% k``, and takes ``& (k - 1)`` once at the end; other
types keep their ``stable_hash``.  A three-way split on ``row[1]`` and a
four-way split on ``(row[0], row[1])`` look like::

    def _split(rows):
        buckets = [[], [], []]
        _a = [b.append for b in buckets]
        for row in rows:
            _a[((_v & 2147483647 if type(_v := row[1]) is int else _sh(_v))) % 3](row)
        return buckets

    def _split(rows):
        ...
            _a[((_v if type(_v := row[0]) is int else _sh(_v)) * 1000003
                ^ (_v if type(_v := row[1]) is int else _sh(_v))) & 3](row)

The distributed closure joins and splits in one pass instead:
:func:`derive_pairs_into_buckets` appends each derived pair to the
bucket the ``(0, 1)`` splitter would pick, so the row hash is written
in this module only.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.exec.closure import edge_table
from repro.obs.api import SnapshotMixin

Splitter = Callable[[Sequence[tuple]], list[list]]

_MASK = 0x7FFFFFFF
#: Same multiplier the interpreted ``_hash_key`` used (CPython's tuple
#: hash multiplier); part of the pinned on-wire bucket assignment.
_MULTIPLIER = 1000003


def _hash_snippet(column: int, mask: str) -> str:
    """Code for ``row[column]``'s hash with an inline int fast path.

    ``type(_v) is int`` deliberately excludes ``bool`` (a subclass),
    which :func:`stable_hash` maps through ``int(value)`` — the
    fallback keeps booleans, floats, strings, and NULLs bit-identical.
    """
    return f"(_v{mask} if type(_v := row[{column}]) is int else _sh(_v))"


def compile_splitter(key_cols: Sequence[int], k: int) -> Splitter:
    """Compile a one-pass ``rows -> k bucket lists`` splitter."""
    from repro.core.fragmentation import stable_hash

    if k <= 0:
        raise ValueError(f"splitter needs k >= 1 buckets, got {k}")
    key_cols = tuple(key_cols)
    if not key_cols or k == 1:
        # No key hashes to 0, and every hash is 0 modulo 1: bucket 0.
        hash_expr = "0"
    elif k & (k - 1) == 0 and k <= _MASK + 1:
        # Power of two: the low bits survive unmasked (module docstring).
        hash_expr = _hash_snippet(key_cols[0], "")
        for column in key_cols[1:]:
            hash_expr = f"({hash_expr} * {_MULTIPLIER} ^ {_hash_snippet(column, '')})"
        hash_expr = f"{hash_expr} & {k - 1}"
    else:
        mask = f" & {_MASK}"
        hash_expr = _hash_snippet(key_cols[0], mask)
        if len(key_cols) == 1:
            # Both _hash_snippet branches are already masked to _MASK
            # (stable_hash masks every arm), so the outer mask would be
            # a no-op; dropping it saves one bit-op per row.
            hash_expr = f"({hash_expr}) % {k}"
        else:
            for column in key_cols[1:]:
                hash_expr = (
                    f"((({hash_expr}) * {_MULTIPLIER}) ^ {_hash_snippet(column, mask)})"
                )
            hash_expr = f"(({hash_expr}) & {_MASK}) % {k}"
    lines = [
        "def _split(rows):",
        f"    buckets = [{', '.join('[]' for _ in range(k))}]",
        "    _a = [b.append for b in buckets]",
        "    for row in rows:",
        f"        _a[{hash_expr}](row)",
        "    return buckets",
    ]
    source = "\n".join(lines) + "\n"
    namespace = {"_sh": stable_hash}
    code = compile(source, filename=f"<prisma:split{key_cols}x{k}>", mode="exec")
    exec(code, namespace)  # noqa: S102 - generative splitter, like the expression compiler
    fn = namespace["_split"]
    fn.__prisma_source__ = source
    return fn


def hashed_edge_table(edges: Iterable[tuple]) -> dict:
    """:func:`~repro.exec.closure.edge_table` with each target's hash
    stored beside it, ``src -> [(dst, stable_hash(dst)), ...]``: the
    build side :func:`derive_pairs_into_buckets` probes."""
    from repro.core.fragmentation import stable_hash

    return {
        a: [(c, c & _MASK if type(c) is int else stable_hash(c)) for c in targets]
        for a, targets in edge_table(edges).items()
    }


def derive_pairs_into_buckets(rows: Iterable[tuple], table: dict, k: int) -> list[list]:
    """Join delta pairs ``(a, b)`` with *table* on ``b`` and split each
    derived ``(a, c)`` on the whole row into *k* buckets.

    A pair lands in the bucket, and in the order, that
    ``compile_splitter((0, 1), k)`` gives it in the joined list; ``a``'s
    hash is taken once per delta row and ``c``'s read from the table,
    so the joined list is never built and split again.
    """
    from repro.core.fragmentation import stable_hash

    buckets: list[list] = [[] for _ in range(k)]
    add = [bucket.append for bucket in buckets]
    probe = table.get
    for a, b in rows:  # prismalint: disable=PL101 -- charged in DistributedExecutor.join_into_owners
        targets = probe(b)
        if targets:
            ha = (a & _MASK if type(a) is int else stable_hash(a)) * _MULTIPLIER
            for c, hc in targets:
                add[((ha ^ hc) & _MASK) % k]((a, c))
    return buckets


class SplitterCache(SnapshotMixin):
    """Per-executor cache of compiled splitters, keyed by shape.

    Shuffle shapes are few (key columns x target count), so the cache
    is unbounded; ``compilations``/``hits`` mirror the expression
    compiler cache counters, and the cache implements the
    :class:`~repro.obs.api.Snapshot` protocol like every other surface.
    """

    def __init__(self) -> None:
        self._splitters: dict[tuple[tuple[int, ...], int], Splitter] = {}
        self.compilations = 0
        self.hits = 0
        #: Shuffles served.  The engine has one execution path, so
        #: ``row_invocations`` stays 0; both keys stay in the Snapshot,
        #: whose fingerprint the golden tests pin.
        self.batch_invocations = 0
        self.row_invocations = 0

    def splitter(self, key_cols: Sequence[int], k: int) -> Splitter:
        shape = (tuple(key_cols), k)
        fn = self._splitters.get(shape)
        if fn is None:
            fn = compile_splitter(*shape)
            self._splitters[shape] = fn
            self.compilations += 1
        else:
            self.hits += 1
        return fn

    def record_invocation(self) -> None:
        """Count one shuffle."""
        self.batch_invocations += 1

    def stats(self) -> dict[str, float]:
        lookups = self.compilations + self.hits
        return {
            "compilations": self.compilations,
            "hits": self.hits,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "batch_invocations": self.batch_invocations,
            "row_invocations": self.row_invocations,
        }
