"""``analytic_closure`` — closed loop, one client.

A Wisconsin relation, a seeded DAG and a genealogy on the 64-PE
machine; one client loops over eight statement templates through
``db.execute`` / ``execute_prismalog``, three of them taking a seeded
constant, each statement sent when the previous one has answered.

Why this workload: ``exec`` (batch kernels, compiler, shuffle, closure),
``core.executor``, ``pool`` sends and ``algebra`` do nearly all the
work, while ``serve``, locks waits, 2PC and the WAL are bypassed — a
gain in those must show *no change* here.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro import MachineConfig, PrismaDB
from repro.errors import PrismaError
from repro.exec import col, eq, lit
from repro.exec.batch import (
    compile_agg_kernel,
    compile_batch_predicate,
    compile_batch_projector,
    compile_join_kernel,
)
from repro.exec.shuffle import compile_splitter

from harness import Rep, Workload, digest, percentile, rng_for

N_ROWS = 12_000
FRAGMENTS = 8
LOOPS = 40
#: The DAG is layered: every node has ``DAG_FANOUT`` seeded edges into
#: the next layer.  Reachability saturates after two or three layers, so
#: the closure's size (about 10 000 pairs) barely moves with the seed,
#: and CLOSURE + the PRISMAlog program are about 30 % of a loop's host
#: time.
DAG_LAYERS, DAG_WIDTH, DAG_FANOUT = 16, 10, 3
GENERATIONS, PER_GENERATION = 5, 24

WISC_DDL = (
    "CREATE TABLE wisc (unique1 INT NOT NULL, unique2 INT PRIMARY KEY,"
    " two INT, four INT, ten INT, twenty INT, onepercent INT,"
    " stringu1 STRING, string4 STRING)"
    f" FRAGMENTED BY HASH(unique2) INTO {FRAGMENTS}"
)
ANCESTOR = (
    "ancestor(X, Y) :- parent(X, Y).\n"
    "ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).\n"
    "? ancestor({person}, X).\n"
)
#: The eight templates of one loop; {c}, {k}, {person} are seeded.
TEMPLATES = (
    ("selection", "SELECT COUNT(*) FROM wisc WHERE onepercent = {c}"),
    ("group_by", "SELECT ten, COUNT(*), SUM(unique1) FROM wisc GROUP BY ten"),
    (
        "copartitioned_join",
        "SELECT COUNT(*), SUM(b.twenty) FROM wisc a JOIN wisc b"
        " ON a.unique2 = b.unique2",
    ),
    (
        "repartition_join",
        "SELECT COUNT(*), SUM(b.unique2) FROM wisc a JOIN wisc b"
        " ON a.unique1 = b.unique1",
    ),
    ("distinct", "SELECT DISTINCT onepercent FROM wisc"),
    ("top_n", "SELECT unique1, stringu1 FROM wisc ORDER BY unique1 LIMIT {k}"),
    ("closure", "SELECT COUNT(*) FROM CLOSURE(e)"),
    ("prismalog", ANCESTOR),
)
#: Templates whose rows come back in no promised order.
UNORDERED = {"group_by", "distinct", "prismalog"}


def _wisconsin_string(value: int) -> str:
    letters = []
    for _ in range(7):
        letters.append(chr(ord("A") + value % 26))
        value //= 26
    return "".join(reversed(letters))


def _reachable(edges: list[tuple], source) -> set:
    """Plain BFS — the oracle for both CLOSURE and the PRISMAlog program."""
    children = defaultdict(list)
    for src, dst in edges:
        children[src].append(dst)
    seen, frontier = set(), [source]
    while frontier:
        node = frontier.pop()
        for child in children[node]:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


@dataclass
class Inputs:
    rows: list[tuple]
    edges: list[tuple[int, int]]
    parents: list[tuple[str, str]]
    #: One entry per loop: [(template name, statement text, expected rows)].
    loops: list[list[tuple[str, str, list]]]
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Context:
    inputs: Inputs
    db: PrismaDB
    returned: list = field(default_factory=list)


class AnalyticClosure(Workload):
    name = "analytic_closure"

    # -- inputs ------------------------------------------------------------

    def generate(self, seed: int, quick: bool) -> Inputs:
        n_rows = N_ROWS // 20 if quick else N_ROWS
        rng = rng_for(seed, self.name, "wisc")
        unique1 = list(range(n_rows))
        rng.shuffle(unique1)
        rows = [
            (u1, u2, u1 % 2, u1 % 4, u1 % 10, u1 % 20, u1 % 100,
             _wisconsin_string(u1), ("AAAA", "HHHH", "OOOO", "VVVV")[u2 % 4])
            for u2, u1 in enumerate(unique1)
        ]

        rng = rng_for(seed, self.name, "dag")
        dag_layers = 4 if quick else DAG_LAYERS
        edges = [
            (layer * DAG_WIDTH + node, (layer + 1) * DAG_WIDTH + target)
            for layer in range(dag_layers - 1)
            for node in range(DAG_WIDTH)
            for target in rng.sample(range(DAG_WIDTH), DAG_FANOUT)
        ]

        rng = rng_for(seed, self.name, "genealogy")
        generations = [[f"g0_{i}" for i in range(PER_GENERATION)]]
        parents = []
        for g in range(1, GENERATIONS):
            generation = []
            for i in range(PER_GENERATION):
                child = f"g{g}_{i}"
                parents.extend((p, child) for p in rng.sample(generations[-1], 2))
                generation.append(child)
            generations.append(generation)

        # The constant-free answers, evaluated in plain Python.
        by_ten: dict[int, list[int]] = defaultdict(lambda: [0, 0])
        for row in rows:
            by_ten[row[4]][0] += 1
            by_ten[row[4]][1] += row[0]
        fixed = {
            "group_by": [(ten, n, total) for ten, (n, total) in by_ten.items()],
            "copartitioned_join": [(n_rows, sum(row[5] for row in rows))],
            "repartition_join": [(n_rows, sum(row[1] for row in rows))],
            "distinct": [(value,) for value in sorted({row[6] for row in rows})],
            "closure": [
                (
                    sum(
                        len(_reachable(edges, node))
                        for node in range(dag_layers * DAG_WIDTH)
                    ),
                )
            ],
        }
        ordered = sorted((row[0], row[7]) for row in rows)

        rng = rng_for(seed, self.name, "loops")
        loops = []
        for _ in range(2 if quick else LOOPS):
            c = rng.randrange(100)
            k = rng.randrange(5, 50)
            person = rng.choice(generations[0] + generations[1])
            expected = dict(fixed)
            expected["selection"] = [(sum(1 for row in rows if row[6] == c),)]
            expected["top_n"] = ordered[:k]
            expected["prismalog"] = [(who,) for who in _reachable(parents, person)]
            loops.append(
                [
                    (name, text.format(c=c, k=k, person=person), expected[name])
                    for name, text in TEMPLATES
                ]
            )
        inputs = Inputs(rows, edges, parents, loops)
        inputs.digests = {
            "rows": digest(rows),
            "edges": digest(edges),
            "parents": digest(parents),
            "statements": digest([[text for _n, text, _e in loop] for loop in loops]),
        }
        return inputs

    # -- set-up ------------------------------------------------------------

    def setup(self, inputs: Inputs, tracer=None) -> Context:
        db = PrismaDB(MachineConfig(n_nodes=64, disk_nodes=(0, 32)), tracer=tracer)
        db.execute(WISC_DDL)
        db.bulk_load("wisc", inputs.rows)
        db.execute("CREATE TABLE e (src INT, dst INT) FRAGMENTED BY HASH(src) INTO 4")
        db.bulk_load("e", inputs.edges)
        db.execute(
            "CREATE TABLE parent (par STRING, child STRING)"
            " FRAGMENTED BY HASH(par) INTO 4"
        )
        db.bulk_load("parent", inputs.parents)
        # Warm-up: one loop, so the expression and splitter caches are
        # in the state every later loop finds them in.
        for name, text, _expected in inputs.loops[0]:
            _execute(db, name, text)
        db.quiesce()
        return Context(inputs, db)

    # -- the timed pass ----------------------------------------------------

    def run(self, ctx: Context, recorder) -> Rep:
        rep = Rep()
        db = ctx.db
        responses: list[float] = []
        by_template: dict[str, list[tuple]] = defaultdict(list)
        started_sim = db.simulated_time()
        op_id = 0
        recorder.start([db])
        for loop in ctx.inputs.loops:
            for name, text, _expected in loop:
                rep.attempted += 1
                try:
                    result = recorder.call(op_id, _execute, db, name, text)
                except PrismaError as error:
                    ctx.returned.append(error)
                    responses.append(0.0)
                else:
                    ctx.returned.append(result.rows)
                    responses.append(result.response_time)
                    by_template[name].append(
                        (recorder.last_ns, result.response_time, result)
                    )
                op_id += 1
                rep.op_ns.append(recorder.last_ns)
                recorder.between_ops()
        recorder.stop(rep)
        rep.ops = rep.attempted
        ordered = sorted(responses)
        total = sum(responses)
        rep.sim = {
            "sim_p50_ms": percentile(ordered, 0.50) * 1e3,
            "sim_p99_ms": percentile(ordered, 0.99) * 1e3,
            "sim_tput_ops": len(responses) / total,
        }
        rep.counts = {
            "sim_response_s": total / len(ctx.inputs.loops),
            "samples": len(responses),
            "sim_spans_s": [db.simulated_time() - started_sim],
        }
        closure = by_template["closure"]
        program = by_template["prismalog"]
        rep.layers = {
            "exec.closure.host_ms": statistics.mean(c[0] for c in closure) / 1e6,
            "exec.closure.sim_s": statistics.mean(c[1] for c in closure),
            "exec.closure.pairs": closure[0][2].rows[0][0],
            "prismalog.program.host_ms": statistics.mean(p[0] for p in program) / 1e6,
            "prismalog.program.sim_s": statistics.mean(p[1] for p in program),
            "prismalog.compiled_to_algebra": statistics.mean(
                p[2].prismalog_stats["compiled_to_algebra"] for p in program
            ),
        }
        if recorder.host is not None:
            rep.layers.update(self.kernel_rates(ctx))
        return rep

    # -- oracle ------------------------------------------------------------

    def verify(self, ctx: Context, rep: Rep) -> None:
        """Every statement's rows equal the plain-Python evaluation."""
        statements = [s for loop in ctx.inputs.loops for s in loop]
        for (name, _text, expected), got in zip(statements, ctx.returned):
            if isinstance(got, Exception):
                rep.failed += 1
            elif name in UNORDERED:
                rep.failed += sorted(got) != sorted(expected)
            else:
                rep.failed += got != expected

    # -- kernels -----------------------------------------------------------

    def kernel_rates(self, ctx: Context) -> dict[str, float]:
        """The public batch kernels over the workload's own rows, in
        million rows per host second (median of several passes)."""
        rows = ctx.inputs.rows
        kernels = {
            "filter": (compile_batch_predicate(eq(col(6), lit(7))), (rows,)),
            "project": (compile_batch_projector([col(0), col(7)]), (rows,)),
            "join": (compile_join_kernel([0], [0]), (rows, rows)),
            "agg": (
                compile_agg_kernel([4], [("count", None), ("sum", col(0))]),
                (rows,),
            ),
            "split": (compile_splitter([0], FRAGMENTS), (rows,)),
        }
        out = {}
        for name, (kernel, args) in kernels.items():
            passes = []
            for _ in range(15):
                started = time.perf_counter_ns()
                kernel(*args)
                passes.append(time.perf_counter_ns() - started)
            out[f"exec.kernel.{name}_mrows_per_s"] = (
                len(rows) / (statistics.median(passes) / 1e9) / 1e6
            )
        return out


def _execute(db: PrismaDB, name: str, text: str):
    if name == "prismalog":
        (result,) = db.execute_prismalog(text)
        return result
    return db.execute(text)
