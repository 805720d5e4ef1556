"""Unit tests for the sample DAG (Figure 3, task 1)."""

import pytest

from repro.qc.cht.samples import Sample, SampleDag


class TestSample:
    def test_descends_from(self):
        a = Sample(pid=0, seq=1, value="x", know=(0, 0))
        b = Sample(pid=1, seq=1, value="y", know=(1, 0))
        assert b.descends_from(a)
        assert not a.descends_from(b)

    def test_compatible_after_start(self):
        s = Sample(pid=0, seq=1, value="x", know=(0, 0))
        assert s.compatible_after(-1, 0)

    def test_compatible_after_vertex(self):
        s = Sample(pid=0, seq=5, value="x", know=(4, 3))
        assert s.compatible_after(1, 3)
        assert not s.compatible_after(1, 4)

    def test_samples_are_hashable(self):
        s = Sample(pid=0, seq=1, value=(0, frozenset({1})), know=(0, 0))
        assert hash(s) == hash(
            Sample(pid=0, seq=1, value=(0, frozenset({1})), know=(0, 0))
        )


class TestSampleDag:
    def test_local_samples_chain(self):
        dag = SampleDag(2)
        s1 = dag.take_sample(0, "a")
        s2 = dag.take_sample(0, "b")
        assert s1.seq == 1 and s2.seq == 2
        assert s2.descends_from(s1)

    def test_knowledge_covers_merged_samples(self):
        dag_a, dag_b = SampleDag(2), SampleDag(2)
        s_b = dag_b.take_sample(1, "remote")
        dag_a.merge([s_b])
        s_a = dag_a.take_sample(0, "local")
        assert s_a.descends_from(s_b)

    def test_merge_is_idempotent(self):
        dag_a, dag_b = SampleDag(2), SampleDag(2)
        s = dag_b.take_sample(1, "x")
        assert dag_a.merge([s]) == 1
        assert dag_a.merge([s]) == 0
        assert dag_a.count(1) == 1

    def test_out_of_order_merge_parks_until_gap_fills(self):
        dag_a, dag_b = SampleDag(2), SampleDag(2)
        s1 = dag_b.take_sample(1, "x1")
        s2 = dag_b.take_sample(1, "x2")
        dag_a.merge([s2])  # gap: s1 missing
        assert dag_a.count(1) == 0
        dag_a.merge([s1])
        assert dag_a.count(1) == 2
        assert dag_a.sample(1, 2) is s2

    def test_out_of_order_burst_drains_every_process(self):
        """Reversed gossip of two interleaved senders: nothing is
        admitted until the first samples arrive, then everything is, in
        sequence order."""
        src = SampleDag(3)
        burst = [src.take_sample(q, f"{q}.{k}") for k in range(5) for q in (1, 2)]
        dag = SampleDag(3)
        dag.merge(reversed(burst[2:]))
        assert dag.counts() == (0, 0, 0)
        dag.merge(burst[:2])
        assert dag.counts() == (0, 5, 5)
        for q in (1, 2):
            assert [s.seq for s in dag.samples_of(q)] == [1, 2, 3, 4, 5]

    def test_delta_since(self):
        dag = SampleDag(2)
        dag.take_sample(0, "a")
        counts = dag.counts()
        dag.take_sample(0, "b")
        delta = dag.delta_since(counts)
        assert [s.value for s in delta] == ["b"]

    def test_total_and_counts(self):
        dag = SampleDag(3)
        dag.take_sample(0, "a")
        dag.take_sample(2, "b")
        assert dag.counts() == (1, 0, 1)
        assert dag.total() == 2

    def test_all_samples(self):
        dag = SampleDag(2)
        dag.take_sample(0, "a")
        dag.take_sample(1, "b")
        assert {s.value for s in dag.all_samples()} == {"a", "b"}

    def test_first_descendant_marks_the_suffix(self):
        dag = SampleDag(2)
        dag.take_sample(0, "old")
        pivot = dag.take_sample(1, "pivot")
        dag.take_sample(0, "fresh")
        assert dag.first_descendant(0, pivot) == 1
        assert dag.first_descendant(1, pivot) == 1  # none yet: count(1)
        assert dag.samples_view(0)[1:] == [dag.sample(0, 2)]

    def test_transitivity_through_gossip_chains(self):
        """a's sample ≺ b's sample ≺ c's sample across two gossips."""
        dags = [SampleDag(3) for _ in range(3)]
        s_a = dags[0].take_sample(0, "a")
        dags[1].merge([s_a])
        s_b = dags[1].take_sample(1, "b")
        dags[2].merge([s_a, s_b])
        s_c = dags[2].take_sample(2, "c")
        assert s_c.descends_from(s_a)
        assert s_c.descends_from(s_b)


class TestAdmission:
    """The monotone-``know`` invariant ``first_descendant`` bisects on
    is checked whenever a sample joins a process's list."""

    def _dag_with_one(self):
        dag = SampleDag(2)
        dag.merge([Sample(pid=1, seq=1, value="x", know=(3, 0))])
        return dag

    def test_rejects_knowledge_that_shrinks(self):
        dag = self._dag_with_one()
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            dag.merge([Sample(pid=1, seq=2, value="y", know=(2, 1))])
        assert dag.count(1) == 1

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            SampleDag(2).merge([Sample(pid=1, seq=1, value="x", know=(0, 0, 0))])

    def test_rejects_wrong_own_entry(self):
        dag = self._dag_with_one()
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            dag.merge([Sample(pid=1, seq=2, value="y", know=(3, 0))])

    def test_parked_sample_is_checked_when_the_gap_fills(self):
        dag = SampleDag(2)
        dag.merge([Sample(pid=1, seq=2, value="y", know=(0, 1))])  # parked
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            dag.merge([Sample(pid=1, seq=1, value="x", know=(3, 0))])
        assert dag.count(1) == 1

    def test_local_sample_below_a_merged_predecessor_is_rejected(self):
        """Sampling on behalf of a process whose gossiped samples know
        more than this DAG does would break monotonicity too."""
        dag = self._dag_with_one()
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            dag.take_sample(1, "y")
