"""Figure 3: extracting Ψ from any QC algorithm A (Theorem 6).

Given an arbitrary algorithm ``A`` that solves QC using an arbitrary
failure detector ``D`` (supplied as a core factory + the system's
detector), every process runs this transformation to emulate the output
of Ψ — first ⊥, then either permanently ``red`` (FS behaviour) or
permanently ``(Ω, Σ)`` pairs, with all processes on the same branch.

Structure (matching the paper's line numbers):

* **Task 1 (lines 2-7)** — repeatedly sample the local ``D`` module
  into a DAG ``G_p`` and gossip samples to the other processes
  (:class:`~repro.qc.cht.samples.SampleDag`); grow the canonical
  simulation forest of ``n + 1`` trees
  (:class:`~repro.qc.cht.forest.SimulationForest`), in which *real
  protocol cores of A* execute inside a virtual runtime.
* **Task 2, lines 8-14** — wait until p decides in a run of every
  tree.  A simulated Q decision certifies a real failure, so p proposes
  0 to a *real* execution of A; otherwise p locates two initial
  configurations differing in one proposal whose runs decide 0 and 1
  (the critical pair) and proposes ``(I, I', S, S')``.
* **Lines 15-18** — if the real execution of A decides 0 or Q, the
  emulated Ψ switches to ``red`` forever (FS branch).
* **Lines 19-34** — otherwise all processes agreed on the same tuple
  ``(I0, I1, S0, S1)`` and extract (Ω, Σ):

  - **Σ (lines 24-32)** is extracted verbatim: maintain the set C of
    configurations reached by prefixes of S0/S1; after each fresh local
    sample ``u``, simulate a deciding extension of every C ∈ C using
    only samples that descend from ``u`` (per process a suffix of its
    sample list, found by bisection —
    :meth:`~repro.qc.cht.samples.SampleDag.first_descendant`), retrying
    as gossip grows the DAG — each retry resumes the configuration's
    kept :class:`~repro.qc.cht.simulation.SimulationAttempt`; the
    quorum is the set of processes taking steps in those extensions.
    Fresh samples can only come from processes alive after ``u``, which
    yields Completeness; Intersection is the deep CHT argument (Lemma
    12 of [12]), checked empirically by the experiment suite.
  - **Ω (line 22)** in [3] walks decision gadgets of the limit forest.
    The limit forest does not exist in a bounded run, so this
    implementation substitutes a convergent election with the same
    ingredients (the DAG and real executions of A): each round proposes
    a candidate — the previous agreed leader if its sample count still
    grows, else the process with the most samples — to a fresh real
    instance of A.  Faulty candidates stop accumulating samples and are
    eventually voted out; once a correct candidate is agreed it is
    re-proposed forever, so outputs stabilise on the same correct
    process.  DESIGN.md records this as the one bounded substitution in
    the Figure 3 pipeline.

Bounded-reproduction parameters (``prefix_stride``, simulation budgets)
are explicit knobs; the experiment suite checks the emitted histories
against :func:`repro.core.specs.check_psi`.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, List, Optional, Tuple

from repro.core.detector import BOTTOM, RED
from repro.protocols.base import ProtocolCore
from repro.protocols.multi import MultiInstanceCore
from repro.qc.cht.forest import SimulationForest, initial_proposals
from repro.qc.cht.samples import Sample, SampleDag
from repro.qc.cht.simulation import SimulationAttempt, VirtualRuntime
from repro.qc.spec import Q
from repro.sim.tasklets import WaitSteps, WaitUntil


def simulate_run(
    attempt: SimulationAttempt,
) -> Tuple[VirtualRuntime, List[Sample], bool]:
    """One try of a Σ-loop attempt on the DAG as it is now
    (:meth:`SimulationAttempt.run`).  The loop calls every try through
    this module-level name, so a profiler that wraps it (e2e_bench's
    tracer does) times each try as one call."""
    return attempt.run()


class PsiExtraction(ProtocolCore):
    """The Figure 3 transformation, one instance per process.

    Parameters
    ----------
    qc_factory:
        Builds one (unattached) core of the QC algorithm ``A``.  Used
        three ways, mirroring the paper: simulated copies inside the
        forest, one real "branch agreement" execution, and repeated
        real executions for the leader election.
    sample_every / gossip_every:
        Local steps between detector samples, and samples between
        gossip broadcasts.
    prefix_stride:
        Stride over the prefixes of S0/S1 when forming the
        configuration set C of line 25 (1 = every prefix, exactly the
        paper; larger = bounded subsampling for speed).
    sim_step_budget:
        Cap on simulated steps per extension attempt.
    """

    AGREE_TAG = "agree"
    LEADER_TAG = "led"

    def __init__(
        self,
        qc_factory: Callable[[], ProtocolCore],
        sample_every: int = 2,
        gossip_every: int = 4,
        prefix_stride: int = 1,
        sim_step_budget: int = 40_000,
        leader_pace: int = 10,
        sigma_pace: int = 40,
    ):
        super().__init__()
        self.qc_factory = qc_factory
        self.sample_every = sample_every
        self.gossip_every = gossip_every
        self.prefix_stride = max(1, prefix_stride)
        self.sim_step_budget = sim_step_budget
        self.leader_pace = leader_pace
        self.sigma_pace = sigma_pace

        self.dag: SampleDag = None  # type: ignore[assignment]
        self.forest: SimulationForest = None  # type: ignore[assignment]
        self._branch: Optional[str] = None
        self._omega_output: Optional[int] = None
        self._sigma_output: Optional[FrozenSet[int]] = None
        self._gossiped_counts: Tuple[int, ...] = ()
        # Experiment-facing statistics.
        self.forest_decisions: Optional[List[Any]] = None
        self.agreed_tuple: Optional[Tuple] = None
        self.sigma_rounds = 0
        self.leader_rounds = 0
        # How much of the Σ loop's simulation is useful: extension
        # attempts, those in which p decided (exactly one per
        # configuration of C per completed Σ round — the rest are "not
        # enough fresh samples yet" retries), the steps of A actually
        # executed (prefix replays, runtime rebuilds and resumed
        # suffixes included) and the attempts' schedule lengths summed,
        # prefixes included — what re-simulating every attempt from
        # scratch would execute.
        self.sigma_configs = 0
        self.sim_attempts = 0
        self.sim_decided = 0
        self.sim_steps = 0
        self.sim_path_steps = 0

    # ------------------------------------------------------------------
    # The emulated Ψ module (line 1 / 18 / 34)
    # ------------------------------------------------------------------
    def output(self) -> Any:
        if self._branch is None:
            return BOTTOM
        if self._branch == "fs":
            return RED
        return (self._omega_output, self._sigma_output)

    @property
    def branch(self) -> Optional[str]:
        return self._branch

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.dag = SampleDag(self.n)
        self.forest = SimulationForest(
            self.n, lambda pid: self.qc_factory(), target=self.pid
        )
        self.add_child(self.AGREE_TAG, self.qc_factory())
        self.add_child(
            self.LEADER_TAG,
            MultiInstanceCore(lambda tag: self.qc_factory()),
        )
        self._gossiped_counts = (0,) * self.n
        self.spawn(self._sampler(), name=f"xpsi-sampler@{self.pid}")
        self.spawn(self._main(), name=f"xpsi-main@{self.pid}")

    def on_message(self, sender: int, payload: Any) -> None:
        if self.route_to_children(sender, payload):
            return
        kind = payload[0]
        if kind == "DAG":
            self.dag.merge(payload[1])
        else:
            raise ValueError(f"unknown extraction message {payload!r}")

    # ------------------------------------------------------------------
    # Task 1 (lines 2-7): sample + gossip
    # ------------------------------------------------------------------
    def _sampler(self):
        taken = 0
        while True:
            self.dag.take_sample(self.pid, self.detector())
            taken += 1
            if taken % self.gossip_every == 0:
                delta = self.dag.delta_since(self._gossiped_counts)
                self._gossiped_counts = self.dag.counts()
                self.broadcast(("DAG", tuple(delta)))
            yield WaitSteps(self.sample_every)

    # ------------------------------------------------------------------
    # Task 2 (lines 8-34)
    # ------------------------------------------------------------------
    def _main(self):
        # Line 8: grow the forest until p decides in every tree.
        while not self.forest.all_decided:
            self.forest.extend_all(self.dag, max_steps=2_000)
            yield WaitSteps(4)
        self.forest_decisions = self.forest.decisions()

        # Lines 9-14: choose what to propose to the real execution of A.
        if any(d is Q for d in self.forest_decisions):
            my_proposal: Any = 0  # line 11
        else:
            i, tree0, tree1 = self.forest.critical_pair()
            my_proposal = (
                "crit",
                initial_proposals(self.n, i - 1),
                initial_proposals(self.n, i),
                tuple(tree0.schedule),
                tuple(tree1.schedule),
            )

        agree = self.child(self.AGREE_TAG)
        agree.propose(my_proposal)  # type: ignore[attr-defined]
        _, decision = yield agree.wait_decided()  # line 15

        if decision == 0 or decision is Q:
            self._branch = "fs"  # lines 16-18
            return

        # Lines 19-20: all processes hold the same (I0, I1, S0, S1).
        _, i0, i1, s0, s1 = decision
        self.agreed_tuple = (i0, i1, s0, s1)
        self._omega_output = self.pid
        self._sigma_output = frozenset(range(self.n))
        self._branch = "omega-sigma"

        # Lines 21-34: extract Ω and Σ concurrently.
        self.spawn(self._extract_omega(), name=f"xpsi-omega@{self.pid}")
        self.spawn(
            self._extract_sigma(i0, i1, s0, s1), name=f"xpsi-sigma@{self.pid}"
        )

    # ------------------------------------------------------------------
    # Ω (line 22) — bounded substitution, see module docstring.
    # ------------------------------------------------------------------
    def _extract_omega(self):
        leaders: MultiInstanceCore = self.child(self.LEADER_TAG)  # type: ignore[assignment]
        agreed: Optional[int] = None
        prev_counts = self.dag.counts()
        k = 0
        while True:
            counts = self.dag.counts()
            if agreed is not None and counts[agreed] > prev_counts[agreed]:
                candidate = agreed
            else:
                best = max(range(self.n), key=lambda q: (counts[q], -q))
                candidate = best
            prev_counts = counts

            inst = leaders.instance(k)
            inst.propose(candidate)  # type: ignore[attr-defined]
            _, decided_leader = yield inst.wait_decided()
            k += 1
            self.leader_rounds = k
            if decided_leader is not Q and isinstance(decided_leader, int):
                agreed = decided_leader
                self._omega_output = decided_leader
            yield WaitSteps(self.leader_pace)

    # ------------------------------------------------------------------
    # Σ (lines 24-32)
    # ------------------------------------------------------------------
    def _extract_sigma(self, i0, i1, s0: Tuple[Sample, ...], s1: Tuple[Sample, ...]):
        # Line 25: C = configurations reached by prefixes of S0/S1.
        configs: List[Tuple[Tuple[int, ...], Tuple[Sample, ...]]] = []
        for initial, schedule in ((i0, s0), (i1, s1)):
            lengths = list(range(0, len(schedule) + 1, self.prefix_stride))
            if lengths[-1] != len(schedule):
                lengths.append(len(schedule))
            for j in lengths:
                configs.append((initial, tuple(schedule[:j])))
        self.sigma_configs = len(configs)

        while True:
            # Line 27: wait for a fresh local sample u.
            base = self.dag.count(self.pid)
            fresh = yield WaitUntil(
                lambda: self.dag.count(self.pid) > base
                and (True, self.dag.sample(self.pid, base + 1))
            )
            u: Sample = fresh[1]

            # Lines 28-31: for each C, simulate a deciding extension
            # using only samples that descend from u.  One attempt per
            # configuration is kept across its retries, each of which
            # resumes it on the grown DAG.
            quorum: set[int] = set()
            for initial, prefix in configs:
                attempt = SimulationAttempt(
                    self.n,
                    lambda pid: self.qc_factory(),
                    initial,
                    self.dag,
                    target=self.pid,
                    prefix=prefix,
                    restrict_after=u,
                    max_steps=self.sim_step_budget,
                )
                while True:
                    executed = attempt.steps_executed
                    _, schedule, decided = simulate_run(attempt)
                    self.sim_attempts += 1
                    self.sim_steps += attempt.steps_executed - executed
                    self.sim_path_steps += len(schedule)
                    if decided:
                        self.sim_decided += 1
                        break
                    # Not enough fresh samples yet; let task 1 gossip.
                    yield WaitSteps(self.sample_every * 2)
                extension = schedule[len(prefix):]
                quorum.update(s.pid for s in extension)

            # Line 32.
            self._sigma_output = frozenset(quorum)
            self.sigma_rounds += 1
            # Pacing (bounded-reproduction knob): the paper re-runs per
            # fresh sample; we breathe between rounds to keep the
            # simulation budget proportional to run length.
            yield WaitSteps(self.sigma_pace)
