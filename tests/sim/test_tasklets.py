"""Unit tests for the tasklet driver."""

import pytest

from repro.sim.tasklets import TaskletDriver, WaitSteps, WaitUntil


class TestWaitUntil:
    def test_predicate_value_is_sent_back(self):
        seen = []
        flag = {"v": False}

        def task():
            result = yield WaitUntil(lambda: flag["v"] and (True, "payload"))
            seen.append(result)

        driver = TaskletDriver()
        driver.spawn(task())
        driver.advance()
        assert seen == []
        flag["v"] = True
        driver.advance()
        assert seen == [(True, "payload")]

    def test_not_resumed_until_truthy(self):
        calls = []

        def task():
            yield WaitUntil(lambda: calls.append("checked") or False)

        driver = TaskletDriver()
        driver.spawn(task())
        for _ in range(3):
            driver.advance()
        assert len(calls) >= 3


class TestWaitSteps:
    def test_counts_advances(self):
        done = []

        def task():
            yield WaitSteps(3)
            done.append(True)

        driver = TaskletDriver()
        driver.spawn(task())
        driver.advance()  # runs to the yield
        driver.advance()  # 1
        driver.advance()  # 2
        assert not done
        driver.advance()  # 3 -> resumes
        assert done == [True]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WaitSteps(0)


class TestDriver:
    def test_fresh_tasklet_runs_to_first_yield(self):
        steps = []

        def task():
            steps.append("start")
            yield WaitSteps(1)
            steps.append("end")

        driver = TaskletDriver()
        driver.spawn(task())
        driver.advance()
        assert steps == ["start"]

    def test_completed_tasklets_are_reaped(self):
        def task():
            return
            yield  # pragma: no cover

        driver = TaskletDriver()
        driver.spawn(task())
        assert driver.active_count == 1
        driver.advance()
        assert driver.active_count == 0

    def test_cascade_within_one_advance(self):
        """A resumed tasklet may satisfy another's wait in one step."""
        state = {"a": False}
        log = []

        def producer():
            yield WaitSteps(1)
            state["a"] = True
            log.append("produced")

        def consumer():
            yield WaitUntil(lambda: state["a"])
            log.append("consumed")

        driver = TaskletDriver()
        driver.spawn(consumer())
        driver.spawn(producer())
        driver.advance()  # both run to first yield
        driver.advance()  # producer fires, then consumer in same advance
        assert log == ["produced", "consumed"]

    def test_bad_yield_value_raises(self):
        def task():
            yield "garbage"

        driver = TaskletDriver()
        driver.spawn(task())
        # The driver rejects the alien wait object as soon as it tries
        # to resume the tasklet (first or second advance, depending on
        # cascade scheduling).
        with pytest.raises(TypeError):
            driver.advance()
            driver.advance()

    def test_generators_can_nest_with_yield_from(self):
        results = []

        def inner():
            yield WaitSteps(1)
            return 42

        def outer():
            value = yield from inner()
            results.append(value)

        driver = TaskletDriver()
        driver.spawn(outer())
        driver.advance()
        driver.advance()
        assert results == [42]


class TestAdvanceEdges:
    """The pass structure of one :meth:`TaskletDriver.advance`."""

    def test_tasklet_spawned_mid_pass_runs_in_the_cascade_pass(self):
        driver = TaskletDriver()
        log = []

        def child():
            log.append("child")
            yield WaitSteps(1)

        def parent():
            yield WaitSteps(1)
            driver.spawn(child())
            log.append("parent")
            yield WaitSteps(5)

        driver.spawn(parent())
        driver.advance()  # parent runs to its first yield
        assert log == []
        driver.advance()  # parent spawns; the child starts in this step
        assert log == ["parent", "child"]

    def test_waitsteps_ticks_once_per_advance_however_many_passes(self):
        driver = TaskletDriver()
        state = {"hops": 0}
        done = []

        def hopper():
            # Resumed once per cascade pass: each hop unblocks the next.
            for _ in range(4):
                yield WaitUntil(lambda: True)
                state["hops"] += 1

        def sleeper():
            yield WaitSteps(2)
            done.append(state["hops"])

        driver.spawn(sleeper())
        driver.spawn(hopper())
        driver.advance()  # both start; hopper cascades through its hops
        assert state["hops"] == 4
        assert not done
        driver.advance()  # sleeper's counter: 2 -> 1, not 0
        assert not done
        driver.advance()
        assert done == [4]

    def test_finished_tasklet_leaves_the_driver(self):
        driver = TaskletDriver()

        def short():
            yield WaitSteps(1)

        def long():
            yield WaitSteps(3)

        driver.spawn(short())
        driver.spawn(long())
        driver.advance()
        assert len(driver._tasklets) == 2
        driver.advance()  # short finishes
        assert len(driver._tasklets) == 1
        assert driver.active_count == 1
        assert not driver._tasklets[0].done
