"""PL003 violations: cross-process writes and shared module state."""

from repro.pool.process import PoolProcess

# Shared between both process classes below: shared memory in disguise.
SHARED_SCRATCH = {}


class Producer(PoolProcess):
    def produce(self, consumer: PoolProcess, value: int) -> None:
        SHARED_SCRATCH["last"] = value
        # Writing through the consumer reference mutates another process.
        consumer.last_value = value


class Consumer(PoolProcess):
    def consume(self) -> int:
        return SHARED_SCRATCH.get("last")


def poke(target: PoolProcess, value: int) -> None:
    target.last_value = value
