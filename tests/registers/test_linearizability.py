"""Unit and property tests for the atomicity checker."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registers.linearizability import (
    LinearizabilityBudgetExceeded,
    check_linearizable,
)
from repro.sim.trace import OperationRecord


def op(op_id, pid, kind, reg, value, invoke, respond):
    """Build an operation record (respond=None for pending)."""
    if kind == "read":
        rec = OperationRecord(op_id, pid, "reg", "read", (reg,), invoke)
        rec.result = value
    else:
        rec = OperationRecord(op_id, pid, "reg", "write", (reg, value), invoke)
        rec.result = "ok" if respond is not None else None
    rec.response_time = respond
    return rec


class TestSequentialHistories:
    def test_empty_history(self):
        assert check_linearizable([]).ok

    def test_read_of_initial_value(self):
        ops = [op(0, 0, "read", "r", None, 1, 2)]
        assert check_linearizable(ops).ok

    def test_read_of_wrong_initial_value(self):
        ops = [op(0, 0, "read", "r", "ghost", 1, 2)]
        assert not check_linearizable(ops).ok

    def test_write_then_read(self):
        ops = [
            op(0, 0, "write", "r", "a", 1, 2),
            op(1, 1, "read", "r", "a", 3, 4),
        ]
        assert check_linearizable(ops).ok

    def test_read_of_overwritten_value_fails(self):
        ops = [
            op(0, 0, "write", "r", "a", 1, 2),
            op(1, 0, "write", "r", "b", 3, 4),
            op(2, 1, "read", "r", "a", 5, 6),
        ]
        assert not check_linearizable(ops).ok

    def test_explicit_initial_values(self):
        ops = [op(0, 0, "read", "r", 42, 1, 2)]
        assert check_linearizable(ops, initial={"r": 42}).ok


class TestConcurrentHistories:
    def test_concurrent_write_read_either_order(self):
        # Read overlaps the write: may return old or new value.
        for value in (None, "a"):
            ops = [
                op(0, 0, "write", "r", "a", 1, 10),
                op(1, 1, "read", "r", value, 2, 9),
            ]
            assert check_linearizable(ops).ok, value

    def test_new_old_inversion_fails(self):
        """The classic atomicity violation: a later read returns an
        older value than an earlier non-overlapping read."""
        ops = [
            op(0, 0, "write", "r", "a", 1, 20),
            op(1, 1, "read", "r", "a", 2, 5),
            op(2, 1, "read", "r", None, 6, 9),  # went back in time
        ]
        assert not check_linearizable(ops).ok

    def test_two_concurrent_writes_with_reads(self):
        ops = [
            op(0, 0, "write", "r", "a", 1, 10),
            op(1, 1, "write", "r", "b", 2, 9),
            op(2, 2, "read", "r", "a", 11, 12),
            op(3, 2, "read", "r", "a", 13, 14),
        ]
        assert check_linearizable(ops).ok

    def test_alternating_reads_of_concurrent_writes_fail(self):
        """Once both writes are over, reads must agree on the winner."""
        ops = [
            op(0, 0, "write", "r", "a", 1, 10),
            op(1, 1, "write", "r", "b", 2, 9),
            op(2, 2, "read", "r", "a", 11, 12),
            op(3, 2, "read", "r", "b", 13, 14),
            op(4, 2, "read", "r", "a", 15, 16),
        ]
        assert not check_linearizable(ops).ok

    def test_long_overlapping_history_in_invocation_order(self):
        """60 overlapping operations over three registers, each read
        returning the latest write invoked before it: invocation order
        is a witness, and the checker must find one."""
        rng = random.Random(7)
        ops, current, t = [], {}, 0
        for i in range(60):
            t += rng.randint(1, 3)
            reg = rng.choice(["x", "y", "z"])
            write = rng.random() < 0.5
            respond = t + rng.randint(1, 4)
            if write:
                current[reg] = (i % 3, i)
                ops.append(op(i, i % 3, "write", reg, current[reg], t, respond))
            else:
                ops.append(op(i, i % 3, "read", reg, current.get(reg), t, respond))
        assert check_linearizable(ops).ok


class TestPendingOperations:
    def test_pending_write_may_have_taken_effect(self):
        ops = [
            op(0, 0, "write", "r", "a", 1, None),  # crashed mid-write
            op(1, 1, "read", "r", "a", 5, 6),
        ]
        assert check_linearizable(ops).ok

    def test_pending_write_may_not_have_taken_effect(self):
        ops = [
            op(0, 0, "write", "r", "a", 1, None),
            op(1, 1, "read", "r", None, 5, 6),
        ]
        assert check_linearizable(ops).ok

    def test_pending_write_cannot_flicker(self):
        ops = [
            op(0, 0, "write", "r", "a", 1, None),
            op(1, 1, "read", "r", "a", 5, 6),
            op(2, 1, "read", "r", None, 7, 8),
        ]
        assert not check_linearizable(ops).ok

    def test_pending_read_is_ignorable(self):
        ops = [
            op(0, 0, "write", "r", "a", 1, 2),
            op(1, 1, "read", "r", None, 3, None),
        ]
        assert check_linearizable(ops).ok


class TestMultiRegister:
    def test_registers_are_independent(self):
        ops = [
            op(0, 0, "write", "x", "a", 1, 2),
            op(1, 1, "read", "y", None, 3, 4),
            op(2, 1, "read", "x", "a", 5, 6),
        ]
        assert check_linearizable(ops).ok

    def test_violation_names_the_register(self):
        ops = [
            op(0, 0, "write", "x", "a", 1, 2),
            op(1, 1, "read", "y", "a", 3, 4),  # y never written
        ]
        verdict = check_linearizable(ops)
        assert not verdict.ok
        assert verdict.register == "y"


class TestWitness:
    def test_witness_is_a_valid_order(self):
        ops = [
            op(0, 0, "write", "r", "a", 1, 4),
            op(1, 1, "read", "r", "a", 2, 6),
            op(2, 0, "write", "r", "b", 7, 8),
        ]
        verdict = check_linearizable(ops)
        assert verdict.ok
        order = verdict.witnesses["r"]
        assert order.index(0) < order.index(1)  # read after its write

    def test_budget_guard(self):
        ops = [
            op(i, i % 3, "write", "r", f"v{i}", 1, 100) for i in range(12)
        ] + [op(100, 0, "read", "r", "ghost", 200, 201)]
        with pytest.raises(LinearizabilityBudgetExceeded):
            check_linearizable(ops, max_nodes=10)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sequential_histories_always_linearizable(data):
    """Property: any truly sequential history in which reads return the
    latest written value is linearizable."""
    n_ops = data.draw(st.integers(min_value=1, max_value=10))
    ops = []
    current = None
    t = 0
    for i in range(n_ops):
        t += 2
        if data.draw(st.booleans()):
            value = data.draw(st.integers(min_value=0, max_value=5))
            ops.append(op(i, i % 3, "write", "r", value, t, t + 1))
            current = value
        else:
            ops.append(op(i, i % 3, "read", "r", current, t, t + 1))
    assert check_linearizable(ops).ok
