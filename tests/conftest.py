"""Shared fixtures for the PRISMA reproduction test suite."""

from __future__ import annotations

import pytest

from repro.machine import Machine, MachineConfig, small_machine
from repro.pool import PoolRuntime
from repro.storage import DataType, Schema, Table


@pytest.fixture
def config4() -> MachineConfig:
    """A 4-element machine, every element disk-equipped."""
    return small_machine(4)


@pytest.fixture
def machine4(config4) -> Machine:
    return Machine(config4)


@pytest.fixture
def runtime4(machine4) -> PoolRuntime:
    return PoolRuntime(machine4)


@pytest.fixture
def config64() -> MachineConfig:
    """The paper's 64-element prototype (disk on every 8th element)."""
    from repro.machine import paper_prototype

    return paper_prototype()


@pytest.fixture
def emp_schema() -> Schema:
    return Schema.of(
        id=DataType.INT, name=DataType.STRING, dept=DataType.STRING, salary=DataType.FLOAT
    )


@pytest.fixture
def emp_table(emp_schema) -> Table:
    table = Table("emp", emp_schema)
    for row in [
        (1, "ada", "eng", 120.0),
        (2, "bob", "eng", 95.0),
        (3, "cy", "sales", 80.0),
        (4, "dee", "sales", 85.0),
        (5, "eve", "hr", 70.0),
    ]:
        table.insert(row)
    return table
