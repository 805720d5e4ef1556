"""Clock independence, checked: which targets' steps never read the clock.

In the paper's model (§2) a step of process ``p`` is a function of
``p``'s local state, the message ``m`` and the detector value ``d`` —
there is no clock.  The explorer leans on that for the targets of
:data:`~repro.explore.symmetry.CLOCK_FREE_TARGETS`: their step key
leaves ``time`` out, so a local state reached through the same ⟨m, d⟩
history at other ticks is one lineage, encoded once, and its steps are
served from the transition table at any tick.

Running a path at an offset, commuting two independent steps and
slipping a bystander's λ-steps in between all look the same to the
process that steps: its own ⟨m, d⟩ sequence arrives at another,
strictly increasing tick sequence.  So this oracle checks that one
thing.  It walks a smoke-depth tree of every target — n=2, depth 5, the
default root, a crash root and a scripted detector-switch root — in
``naive`` mode (every step executed, nothing served), collects each
process's step histories ``(time, delivered message, d)`` (what
:meth:`~repro.sim.process.ProcessHost.replay` is fed), and re-feeds
each one to a freshly built host three times: at the recorded ticks,
at the recorded ticks + 1000, and at a seeded random strictly
increasing tick sequence.  After every step the host encoding (the
bytes the fingerprint engine caches per lineage), the step's
:class:`~repro.explore.state.StepEffects` and the run's annotations
must equal the recorded-tick run's.  A mismatch names the fields that
differ — the clock readers.

The set of targets that pass must *be* ``CLOCK_FREE_TARGETS``: a target
that starts reading the clock fails here before it can be served a
stale step, and a target that stops reading it fails here until it is
pinned.
"""

import random
import types
from typing import Any, Dict, List, Optional, Tuple
from unittest import mock

import pytest

from repro.chaos.targets import TARGETS
from repro.explore import (
    CLOCK_FREE_TARGETS,
    ExploreCase,
    ExploreOptions,
    assignment_requires_crash,
    build_system,
    explore_case,
    switch_scripts_for,
)
from repro.explore import engine as engine_mod
from repro.explore.control import ChoiceController
from repro.explore.state import _SKIP_ATTRS, FingerprintEngine, StepEffects, _Encoder

N, DEPTH = 2, 5
OFFSET = 1000

#: One step of a process's history: ``(time, delivered message or
#: None, detector value)``.
History = Tuple[Tuple[int, Any, Any], ...]


def roots_of(target: str) -> List[ExploreCase]:
    """The smoke-depth roots of one target: the default assignment, the
    same with process 1 crashing mid-window, and the first scripted
    detector switch (with that crash when its stages need one)."""
    plain = ExploreCase(target=target, n=N, depth=DEPTH)
    crash = plain.with_(crashes=((1, 3),))
    script = switch_scripts_for(target, N)[0]
    scripted = (crash if assignment_requires_crash(script) else plain).with_(
        assignment=script
    )
    return [plain, crash, scripted]


def _content(n: int, value: Any) -> bytes:
    return _Encoder(n).enc(value)


def histories(case: ExploreCase) -> List[Tuple[Tuple[Any, ...], int, History]]:
    """Every distinct whole-path step history of every process of a
    ``naive`` walk of ``case``, as ``(key, pid, history)``.  The key is
    the pid and the history's ⟨m, d⟩ content step by step, without the
    ticks: two histories that differ only in when their steps came are
    one sequence, which the re-feeds at remapped ticks cover.  A
    history that is a prefix of another is checked as part of it."""
    found: Dict[Tuple[Any, ...], Tuple[int, History]] = {}
    contents: Dict[int, Tuple[Any, bytes]] = {}
    real_run = engine_mod._LiveSystem.run

    def content(value: Any) -> bytes:
        # A run's messages and detector values are the same few objects
        # on every path; holding each pins its id.
        memo = contents.get(id(value))
        if memo is None:
            memo = contents[id(value)] = (value, _content(case.n, value))
        return memo[1]

    def recording_run(live, prefix):
        trace = real_run(live, prefix)
        # Tick ``t`` is ``ticks[t - 1]`` and ``trace.steps[t - 1]``.
        steps = list(zip(trace.steps, live.controller.ticks))
        for pid in range(case.n):
            history = tuple(
                (step.time, tick.delivered, step.detector_value)
                for step, tick in steps
                if tick.pid == pid
            )
            key = (pid,) + tuple(
                (
                    None
                    if message is None
                    else (
                        message.sender,
                        message.component,
                        content(message.payload),
                        content(message.meta),
                    ),
                    content(d),
                )
                for _, message, d in history
            )
            found.setdefault(key, (pid, history))
        return trace

    with mock.patch.object(engine_mod._LiveSystem, "run", recording_run):
        explore_case(case, ExploreOptions(fingerprint_mode="naive"))
    prefixes = {key[:i] for key in found for i in range(1, len(key))}
    return [(key,) + found[key] for key in found if key not in prefixes]


def offset_ticks(times: List[int], rng: random.Random) -> List[int]:
    return [t + OFFSET for t in times]


def random_ticks(times: List[int], rng: random.Random) -> List[int]:
    """Another strictly increasing tick sequence of the same length."""
    ticks, now = [], rng.randint(0, 20)
    for _ in times:
        now += rng.randint(1, 9)
        ticks.append(now)
    return ticks


REMAPS = (offset_ticks, random_ticks)


class _Refeed:
    """A freshly built host of ``case``'s process ``pid``, stepped live
    (its sends, decisions and operations emitted into its own system)."""

    def __init__(self, case: ExploreCase, pid: int):
        controller = ChoiceController(())
        self.system = build_system(case, controller)
        self.sent = controller.sent
        self.host = self.system.hosts[pid]
        self.engine = FingerprintEngine(case.n)
        self.n = case.n
        #: The operation records this host opened, in invocation order.
        self.own: List[Any] = []
        self.effects = StepEffects((), (), (), ())

    def step(self, now: int, message: Any, d: Any) -> None:
        """Take one step and note what it emitted (:attr:`effects`)."""
        host, trace, sent = self.host, self.system.trace, self.sent
        was_sent, was_decided, was_opened = (
            len(sent), len(trace.decisions), len(trace.operations)
        )
        host.ctx._detector_provider = lambda: d
        host.take_step(now, message)
        self.own.extend(trace.operations[was_opened:])
        self.effects = StepEffects(
            tuple(
                (m.dest, m.component, m.payload, m.meta or None)
                for m in sent[was_sent:]
            ),
            tuple((x.component, x.value) for x in trace.decisions[was_decided:]),
            tuple(
                (op.component, op.kind, op.args)
                for op in trace.operations[was_opened:]
            ),
            tuple(
                (k, op.result) for k, op in enumerate(self.own)
                if op.response_time == now
            ),
        )

    def observed(self) -> Tuple[bytes, bytes, bytes]:
        """The host encoding (the bytes the fingerprint engine caches
        per lineage), the last step's effects and the run's annotations
        (a channel the transition table does not serve: a step that
        writes one must not be served either)."""
        return (
            self.engine._encode_host(self.host).data,
            _content(self.n, tuple(self.effects)),
            _content(self.n, self.system.trace.annotations),
        )

    def state(self) -> Dict[str, Any]:
        """What :meth:`observed` encodes."""
        host = self.host
        return {
            "components": host.components,
            "tasklets": [
                (task.started, task.wait, task.gen)
                for task in host._driver._tasklets
                if not task.done
            ],
            "effects": self.effects,
            "annotations": self.system.trace.annotations,
        }


def _parts(value: Any) -> Optional[Dict[Any, Tuple[str, Any]]]:
    """The named parts the host encoder walks into, each with the label
    a difference inside it is reported under — ``Type.attribute`` for
    an object's attributes and a generator's locals; containers pass
    their owner's label on (``None``) — or None for a leaf."""
    if isinstance(value, (list, tuple)):
        return {i: (None, v) for i, v in enumerate(value)}
    if isinstance(value, dict):
        return {k: (None, v) for k, v in value.items()}
    if isinstance(value, (set, frozenset, str, bytes, int, float)) or value is None:
        return None
    if isinstance(value, types.GeneratorType):
        frame = value.gi_frame
        if frame is None:
            return None
        name = value.gi_code.co_qualname
        parts = {
            local: (f"{name}.{local}", v)
            for local, v in frame.f_locals.items()
            if local != "self"
        }
        parts["<yield from>"] = (f"{name}.<yield from>", value.gi_yieldfrom)
        return parts
    state = getattr(value, "__dict__", None)
    if state is None and hasattr(type(value), "__slots__"):
        state = {
            name: getattr(value, name)
            for name in type(value).__slots__
            if hasattr(value, name)
        }
    if state is None:
        return None
    owner = type(value).__qualname__
    return {
        name: (f"{owner}.{name}", v)
        for name, v in state.items()
        if name not in _SKIP_ATTRS
    }


def differing_fields(n: int, a: Any, b: Any) -> List[str]:
    """The innermost labels under which ``a`` and ``b`` encode
    differently, sorted."""
    found = set()
    seen = set()

    def walk(x: Any, y: Any, label: str) -> None:
        if (id(x), id(y)) in seen or _content(n, x) == _content(n, y):
            return
        seen.add((id(x), id(y)))
        xs, ys = _parts(x), _parts(y)
        if xs is None or ys is None or type(x) is not type(y) or xs.keys() != ys.keys():
            found.add(label)
            return
        before = len(found)
        for key, (child, value) in xs.items():
            walk(value, ys[key][1], child or label)
        if len(found) == before:  # differs only in what the walk skips
            found.add(label)

    walk(a, b, "state")
    return sorted(found)


def clock_readers(case: ExploreCase) -> Optional[str]:
    """None if every process of ``case`` behaves the same at remapped
    ticks; else where it first did not, naming the fields that differ."""
    rng = random.Random(0)
    checked = set()  # history keys up to a step already compared there
    for key, pid, history in histories(case):
        times = [time for time, _, _ in history]
        recorded = _Refeed(case, pid)
        remapped = [
            (remap.__name__, _Refeed(case, pid), remap(times, rng))
            for remap in REMAPS
        ]
        for index, (time, message, d) in enumerate(history):
            recorded.step(time, message, d)
            for _, refeed, ticks in remapped:
                refeed.step(ticks[index], message, d)
            if key[: index + 2] in checked:
                continue  # a shared prefix: executed only to get past it
            checked.add(key[: index + 2])
            want = recorded.observed()
            for name, refeed, ticks in remapped:
                if refeed.observed() == want:
                    continue
                fields = differing_fields(case.n, recorded.state(), refeed.state())
                return (
                    f"{case.describe()}: process {pid}'s step {index + 1} of "
                    f"{len(history)}, recorded at tick {time}, re-fed at "
                    f"tick {ticks[index]} ({name}), differs in "
                    f"{', '.join(fields)}"
                )
    return None


def convict(target: str) -> Optional[str]:
    for case in roots_of(target):
        found = clock_readers(case)
        if found is not None:
            return found
    return None


@pytest.fixture(scope="module")
def verdicts() -> Dict[str, Optional[str]]:
    return {target: convict(target) for target in sorted(TARGETS)}


def test_clock_free_targets_are_exactly_the_targets_that_pass(verdicts):
    passed = {target for target, found in verdicts.items() if found is None}
    convicted = {t: found for t, found in verdicts.items() if found is not None}
    assert passed == CLOCK_FREE_TARGETS, convicted


def test_register_reads_the_clock_through_its_operation_records(verdicts):
    """A register process holds the records it opened, stamped with the
    tick of the step that opened them."""
    assert "OperationRecord.invoke_time" in verdicts["register"]


def test_histories_cover_crashes_and_switches():
    """The walk hands the oracle something to re-feed: several distinct
    histories per root, a crashed process's shorter than a survivor's,
    and a scripted root's with more than one detector value."""
    plain, crash, scripted = roots_of("nbac")
    assert len(histories(plain)) > 2
    longest = {pid: 0 for pid in range(N)}
    for _, pid, history in histories(crash):
        longest[pid] = max(longest[pid], len(history))
    assert 0 < longest[1] < longest[0]
    values = {
        _content(N, d) for _, _, history in histories(scripted) for _, _, d in history
    }
    assert len(values) > 1
