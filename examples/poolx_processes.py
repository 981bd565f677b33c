"""The POOL-X process model, bare (paper Section 3.1).

"The programming model of POOL-X is a collection of dynamically created
processes.  Internally the processes have a control flow behaviour and
they communicate via message-passing only, i.e. no shared memory."

This example uses the runtime directly — no database on top — to show
the primitives the DBMS is built from: dynamic process creation,
explicit allocation onto processing elements, message passing with
``PoolRuntime.send``, and the simulated clocks that make response times
observable.  Each process's control flow is plain code: it charges its
work, then sends; a send advances the receiver's clock to the arrival.

A token travels around a ring of processes spread over the machine,
then a scatter/gather shows the critical-path behaviour of fan-out.

Run:  python examples/poolx_processes.py
"""

from repro.machine import Machine, MachineConfig
from repro.pool import PoolProcess, PoolRuntime


class RingMember(PoolProcess):
    """Passes the token to its neighbour until it has gone around."""

    def __init__(self, runtime, name, node_id):
        super().__init__(runtime, name, node_id)
        self.successor = None
        self.seen = 0

    def pass_token(self, hops_left: int) -> "RingMember | None":
        """Handle one visit; returns the member now holding the token."""
        self.seen += 1
        self.charge(1e-4)  # a little work per visit
        if hops_left == 0 or self.successor is None:
            return None
        self.runtime.send(self, self.successor, 32)
        return self.successor


class Worker(PoolProcess):
    """Does a chunk of work and reports back to its coordinator."""

    def work(self, coordinator: PoolProcess, seconds: float) -> None:
        self.charge(seconds)  # seconds of simulated work
        self.runtime.send(self, coordinator, 64)


def main() -> None:
    machine = Machine(MachineConfig(n_nodes=16))
    runtime = PoolRuntime(machine)

    # --- Token ring: explicit allocation, one member per element --------
    members = [
        runtime.spawn(RingMember, name=f"ring-{i}", node=i) for i in range(16)
    ]
    for i, member in enumerate(members):
        member.successor = members[(i + 1) % 16]
    laps = 3
    holder, hops_left = members[0], laps * 16
    while holder is not None:
        holder = holder.pass_token(hops_left)
        hops_left -= 1
    print(f"token ring: {laps} laps over 16 elements")
    print(f"  every member visited {members[1].seen} times")
    print(f"  simulated completion: {runtime.horizon() * 1000:.2f} ms")
    print(f"  messages: {runtime.stats.messages}")

    # --- Scatter/gather: response time is the slowest branch -------------
    start = runtime.horizon()
    coordinator = runtime.spawn(PoolProcess, name="coord", node=0, start_at=start)
    work = [0.002, 0.010, 0.004, 0.001]
    workers = [
        runtime.spawn(Worker, name=f"w{i}", node=i + 1) for i in range(len(work))
    ]
    for worker in workers:  # scatter: every request leaves first ...
        runtime.send(coordinator, worker, 32)
    for worker, seconds in zip(workers, work):  # ... then the replies gather
        worker.work(coordinator, seconds)
    elapsed = coordinator.ready_at - start
    print(
        f"\nscatter/gather over {len(work)} workers:"
        f" work={sorted(work)} s"
    )
    print(
        f"  coordinator done after {elapsed * 1000:.2f} ms"
        f" (~ max branch, not the sum: {sum(work) * 1000:.0f} ms)"
    )
    assert elapsed < sum(work)


if __name__ == "__main__":
    main()
