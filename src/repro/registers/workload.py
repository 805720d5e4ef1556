"""Register workloads: clients that drive read/write traffic.

A workload component runs alongside a :class:`~repro.registers.abd.RegisterBank`
in each process, issuing operations in a closed loop and recording
invocation/response intervals (via the bank's ``record_ops``), which the
linearizability checker then judges.  Written values are tagged
``(pid, seq)`` so that every write is unique — not required by the
checker, but it makes counterexamples crisp.
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence

from repro.registers.abd import RegisterBank
from repro.sim.process import Component
from repro.sim.rng import derive_seed
from repro.sim.tasklets import WaitSteps


class RegisterWorkload(Component):
    """A closed-loop client: think, operate, repeat.

    Parameters
    ----------
    bank_name:
        Component name of the register bank to drive.
    registers:
        The register names this client touches.
    ops_per_process:
        Operations to issue before going idle (0 = run forever).
    read_fraction:
        Probability that an operation is a read.
    think_steps:
        Local steps between operations (gives other traffic room).
    seed:
        Per-process workload RNG seed (derived; independent of the
        system's scheduling randomness).
    """

    name = "workload"

    def __init__(
        self,
        bank_name: str = "reg",
        registers: Sequence[Any] = ("r",),
        ops_per_process: int = 6,
        read_fraction: float = 0.5,
        think_steps: int = 3,
        seed: int = 0,
    ):
        super().__init__()
        self.bank_name = bank_name
        self.registers = list(registers)
        self.ops_per_process = ops_per_process
        self.read_fraction = read_fraction
        self.think_steps = think_steps
        self._seed = seed
        self.results: List[Any] = []
        self.done = False

    def on_start(self) -> None:
        self.spawn(self._run(), name=f"workload@{self.pid}")

    def _run(self):
        rng = random.Random(derive_seed(self._seed, f"workload-{self.pid}"))
        bank: RegisterBank = self._host.component(self.bank_name)  # type: ignore[assignment]
        seq = 0
        issued = 0
        while self.ops_per_process == 0 or issued < self.ops_per_process:
            yield WaitSteps(self.think_steps)
            reg = rng.choice(self.registers)
            if rng.random() < self.read_fraction:
                value = yield from bank.read(reg)
                self.results.append(("read", reg, value))
            else:
                seq += 1
                yield from bank.write(reg, (self.pid, seq))
                self.results.append(("write", reg, (self.pid, seq)))
            issued += 1
        self.done = True


def workload_quiescent(component_name: str = "workload"):
    """Stop predicate: every live process's workload finished.

    Crashed processes are excused — their in-flight operations stay
    pending, which is exactly the case the linearizability checker's
    pending-operation handling exists for.
    """

    def predicate(system) -> bool:
        for pid in system.pattern.correct:
            comp = system.component_at(pid, component_name)
            if not comp.done:  # type: ignore[attr-defined]
                return False
        return True

    return predicate
