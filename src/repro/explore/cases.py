"""Explore cases: one pinned subtree root, and its controlled runs.

An :class:`ExploreCase` is to the explorer what
:class:`~repro.chaos.targets.FuzzCase` is to the fuzzer: the frozen,
JSON-able coordinate of one unit of work.  It pins the target
algorithm, the system size, the step budget (``depth`` doubles as the
sim horizon — one tick is one step), the crash schedule, and one
constant detector assignment (:mod:`repro.explore.assignments`).  What
it deliberately does *not* pin is the schedule: the whole point is that
:func:`run_controlled` executes one *chosen path* of the case's tree,
as directed by a :class:`~repro.explore.control.ChoiceController`.

The algorithm stacks come straight from the chaos target table
(:data:`repro.chaos.targets.TARGETS`) so the explorer and the fuzzer
judge the very same code with the very same property hooks.  Only two
deviations:

* the oracle detector is discarded — every process's
  ``ctx._detector_provider`` is rebound to the case's constant value
  (or, for script assignments, to a live read of the run's
  :class:`~repro.explore.control.DetectorScript` cursor, which the
  controller advances through enumerable ``"detector"`` choices);
* the register workload is swapped for a one-op-per-process variant
  (the default 3-op workload pushes exhaustive depth out of reach; one
  concurrent read/write pair per process is already the smallest
  history with a nontrivial linearization order).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.knobs import ChaosKnobs
from repro.chaos.targets import REGISTER_TARGETS, TARGETS
from repro.core.failure_pattern import FailurePattern
from repro.explore.assignments import (
    decode_value,
    default_assignment,
    is_script,
    script_stages,
    stage_requires_crash,
)
from repro.explore.control import (
    ChoiceController,
    DetectorScript,
    ExploringDelivery,
    ExploringScheduler,
)
from repro.explore.state import FingerprintEngine
from repro.registers.workload import RegisterWorkload
from repro.runner import call
from repro.sim.network import ConstantDelay
from repro.sim.process import ProcessHost
from repro.sim.system import System


def explore_register_workload_factory(seed: int):
    """The shrunk register workload used under exploration (see module
    doc); module-level so specs and artifacts can reference it."""
    return lambda pid: RegisterWorkload(
        registers=("x",), ops_per_process=1, think_steps=1, seed=seed
    )


@dataclass(frozen=True)
class ExploreCase:
    """One exploration root, fully pinned and JSON-able.

    ``depth`` is the step budget: controlled runs use it as the sim
    horizon, so every explored path has at most ``depth`` steps.
    ``assignment`` is a per-pid tuple of encoded detector constants
    (empty = the target family's default).  ``seed`` only reaches the
    target builder (it selects e.g. the NBAC vote vector) — no RNG
    influences a controlled run's choices.
    """

    target: str
    n: int
    depth: int
    seed: int = 0
    crashes: Tuple[Tuple[int, int], ...] = ()
    assignment: Tuple[Tuple[Any, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(
                f"unknown target {self.target!r}; have {sorted(TARGETS)}"
            )
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def with_(self, **changes: Any) -> "ExploreCase":
        return replace(self, **changes)

    # Derived once per case, not once per controlled run: both values
    # are immutable and a function of the frozen fields alone
    # (``cached_property`` stores into ``__dict__`` directly, which a
    # frozen dataclass allows; equality and hashing see fields only).
    @cached_property
    def pattern(self) -> FailurePattern:
        return FailurePattern(self.n, dict(self.crashes))

    @cached_property
    def resolved_assignment(self) -> Tuple[Tuple[Any, ...], ...]:
        return self.assignment or default_assignment(self.target, self.n)

    def describe(self) -> str:
        return (
            f"{self.target}(n={self.n}, depth={self.depth}, "
            f"seed={self.seed}, crashes={dict(self.crashes)})"
        )


@dataclass(frozen=True)
class ExploreOptions:
    """How a case is searched: everything but the case itself.

    One frozen value carried whole from the CLI to the walk — through a
    campaign cell, a forked frontier worker, the summary dict
    (``dataclasses.asdict``) and the root's search key — so an option is
    named in one place and a misspelt one is an error here, before a
    store is opened or a process started.  ``por`` / ``dedup`` switch
    the reductions, ``symmetry`` turns the pid-symmetry reduction on
    where it is sound (:func:`~repro.explore.symmetry.resolve_symmetry`;
    an unsafe target runs without it), and
    ``fingerprint_mode`` picks the dedup-key implementation
    (:attr:`FingerprintEngine.MODES <repro.explore.state
    .FingerprintEngine.MODES>`).
    """

    por: bool = True
    dedup: bool = True
    symmetry: bool = False
    fingerprint_mode: str = "incremental"

    def __post_init__(self) -> None:
        if self.fingerprint_mode not in FingerprintEngine.MODES:
            raise ValueError(
                f"unknown fingerprint mode {self.fingerprint_mode!r}; "
                f"have {FingerprintEngine.MODES}"
            )
        # By identity: 0 and 1 compare equal to False and True.
        if self.symmetry is not False and self.symmetry is not True:
            raise ValueError(
                f"symmetry must be False or True, got {self.symmetry!r}"
            )


def _tuplify(value: Any) -> Any:
    """JSON round-trips lists; cases are frozen around nested tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplify(v) for v in value)
    return value


def case_to_dict(case: ExploreCase) -> Dict[str, Any]:
    return {
        "target": case.target,
        "n": case.n,
        "depth": case.depth,
        "seed": case.seed,
        "crashes": [list(c) for c in case.crashes],
        "assignment": [list(_listify(enc)) for enc in case.assignment],
    }


def _listify(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    return value


def case_from_dict(data: Dict[str, Any]) -> ExploreCase:
    return ExploreCase(
        target=data["target"],
        n=int(data["n"]),
        depth=int(data["depth"]),
        seed=int(data.get("seed", 0)),
        crashes=_tuplify(data.get("crashes", ())),
        assignment=_tuplify(data.get("assignment", ())),
    )


@dataclass
class CaseParts:
    """The resolved pieces of a case's algorithm stack."""

    components: List[Tuple[str, Callable[[int], Any]]]
    stop: Callable[[System], bool]
    summarize: Callable[[System, Any], Dict[str, Any]]
    safety_clauses: Tuple[str, ...]
    component_name: str = field(default="")


@lru_cache(maxsize=32)
def resolve_parts(case: ExploreCase) -> CaseParts:
    """Resolve the target's component stack and hooks for this case.

    Memoized: the resolved parts are deterministic in the (frozen,
    hashable) case and stateless across runs — ``explore_case`` already
    shares one ``CaseParts`` across thousands of replays, and the
    shrinker/judge replay paths call this once per replay, so the memo
    removes the per-replay target.build cost.
    """
    target = TARGETS[case.target]
    built = target.build(case.n, case.seed, case.depth, ChaosKnobs())
    components = []
    for name, spec in built["components"]:
        if case.target in REGISTER_TARGETS and name == "workload":
            spec = call(explore_register_workload_factory, case.seed)
        components.append((name, spec.resolve()))
    return CaseParts(
        components=components,
        stop=built["stop"].resolve(),
        summarize=built["summarize"].resolve(),
        safety_clauses=target.safety_clauses,
        component_name=components[0][0],
    )


def build_system(
    case: ExploreCase,
    controller: ChoiceController,
    parts: Optional[CaseParts] = None,
) -> System:
    """One fully-wired controlled system for this case.

    The system is the stock :class:`~repro.sim.system.System` — with
    whatever network ``System`` constructs, so the oracle suite's
    ``network_implementation(ReferenceNetwork)`` reaches it — the
    controller plugs in through the scheduler/delivery extension points,
    the delay model is pinned to ``ConstantDelay(1)`` (delivery *order*
    is the controller's to choose, so variable delays would only
    duplicate schedules the delivery choice already covers), the
    detector providers are rebound to the case's constants, and every
    send is journaled by the controller.
    """
    if parts is None:
        parts = resolve_parts(case)
    controller.crash_times = frozenset(t for _, t in case.crashes)
    system = System(
        n=case.n,
        seed=case.seed,
        horizon=case.depth,
        pattern=case.pattern,
        component_factories=parts.components,
        detector=None,
        scheduler=ExploringScheduler(controller),
        delay_model=ConstantDelay(1),
        delivery_policy=ExploringDelivery(controller),
        trace_mode="full",
    )
    controller.trace = system.trace
    assignment = case.resolved_assignment
    if any(is_script(enc) for enc in assignment):
        scripts = controller.scripts = DetectorScript(
            values=[
                tuple(decode_value(stage) for stage in script_stages(enc))
                for enc in assignment
            ],
            gated=[
                tuple(stage_requires_crash(stage) for stage in script_stages(enc))
                for enc in assignment
            ],
            first_crash=min(controller.crash_times, default=None),
        )
        providers = [
            lambda p=pid, s=scripts: s.value(p) for pid in range(case.n)
        ]
    else:
        providers = [lambda v=decode_value(enc): v for enc in assignment]
    for host, provider in zip(system.hosts, providers):
        wire_host(host, controller, provider)
    return system


def wire_host(
    host: ProcessHost, controller: ChoiceController, provider: Callable[[], Any]
) -> None:
    """What the explorer installs on a process from outside: its sends
    go into the controller's journal and its detector module answers
    ``provider()``.  For every host ``build_system`` makes, and again
    for every host a rewind rebuilds."""
    host.ctx.add_outgoing_hook(controller.sent.append)
    host.ctx._detector_provider = provider


def run_controlled(
    case: ExploreCase,
    prefix: Tuple[int, ...] = (),
    parts: Optional[CaseParts] = None,
    tick_hook: Optional[Callable[[int], bool]] = None,
    por: bool = True,
) -> Tuple[System, ChoiceController]:
    """Execute one path of the case's choice tree.

    Replays ``prefix``, then takes default choices to the end of the
    step budget (or the target's stop condition).  Returns the finished
    system and the controller whose :attr:`log` describes the path
    actually taken.  Deterministic in ``(case, prefix, por)`` — the
    replay-regression suite pins this.

    ``por`` must match the setting under which the prefix was recorded:
    a choice index names a position in the controller's *menu*, and the
    POR filter shapes the menu (the controller tracks the step context
    — previous actor, freshly sent messages, crash boundary — itself).

    This is whole-path stateless replay: a new system, every tick from
    1.  The search itself rewinds one live system instead
    (:mod:`repro.explore.engine`); witness replay and the shrinker run
    one path each and use this, and it is the oracle the rewind is
    tested against.
    """
    if parts is None:
        parts = resolve_parts(case)
    controller = ChoiceController(prefix)
    controller.por_enabled = por
    controller.tick_hook = tick_hook
    system = build_system(case, controller, parts=parts)
    system.run(stop_when=parts.stop)
    return system, controller
