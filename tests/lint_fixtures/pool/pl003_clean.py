"""PL003 clean: processes keep their state to themselves."""

from repro.pool.process import PoolProcess


class Counter(PoolProcess):
    def __init__(self, runtime, name, node_id):
        super().__init__(runtime, name, node_id)
        self.count = 0

    def acknowledge(self, sender: PoolProcess) -> None:
        # Own state is written here; the sender learns by message.
        self.count += 1
        self.charge(1e-6)
        self.runtime.send(self, sender, 16)
