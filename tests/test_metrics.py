"""Scores checked against exhaustive matching and plug-in entropy formulas."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deepkm import metrics
from deepkm.metrics import MetricsReport, contingency_table, evaluate, hungarian
from helpers import brute_force_accuracy, brute_force_min_assignment, nmi_direct


def scipy_assignment(cost):
    """scipy's column for each row: the oracle ``hungarian`` must equal."""
    optimize = pytest.importorskip("scipy.optimize")
    rows, cols = optimize.linear_sum_assignment(cost)
    assert np.array_equal(rows, np.arange(cost.shape[0]))
    return cols


def oracle_corpus(count, seed=0):
    """Square costs of sides 1-40, four kinds in turn: normal draws,
    small integers with many ties, sparse 0/-1, and negated contingency
    tables padded to square from kp != kt clusters and labels."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        side = int(rng.integers(1, 41))
        kind = case % 4
        if kind == 0:
            yield rng.standard_normal((side, side))
        elif kind == 1:
            yield rng.integers(-3, 4, size=(side, side)).astype(np.float64)
        elif kind == 2:
            yield -(rng.random((side, side)) < 0.2).astype(np.float64)
        else:
            kp, kt = rng.integers(1, side + 1, size=2)
            points = int(rng.integers(1, 10 * side + 1))
            counts = contingency_table(rng.integers(0, kp, points), rng.integers(0, kt, points))
            padded = np.zeros((side, side))
            padded[: counts.shape[0], : counts.shape[1]] = counts
            yield -padded


class TestContingency:
    def test_hand_counts(self):
        pred = [0, 0, 1, 1, 1]
        truth = [0, 1, 1, 1, 0]
        counts = contingency_table(pred, truth)
        assert counts.tolist() == [[1, 1], [1, 2]]

    def test_skipped_ids_become_zero_rows(self):
        counts = contingency_table([0, 2], [0, 1])
        assert counts.shape == (3, 2)
        assert counts[1].tolist() == [0, 0]

    def test_equals_an_add_at_reference_with_skipped_ids(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            # labels drawn from a sparse subset of ids, so rows and columns are skipped
            pred_ids = rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
            truth_ids = rng.choice(12, size=int(rng.integers(1, 6)), replace=False)
            pred, truth = rng.choice(pred_ids, n), rng.choice(truth_ids, n)
            want = np.zeros((pred.max() + 1, truth.max() + 1), dtype=np.int64)
            np.add.at(want, (pred, truth), 1)
            got = contingency_table(pred, truth)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("pred, truth, cells", [
        ([0, 2**62], [0, 1], f"{2**62 + 1} x 2"),
        ([0, 1], [2**63 - 1, 0], f"2 x {2**63}"),
        ([2**32, 0], [0, 2**31], f"{2**32 + 1} x {2**31 + 1}"),
    ])
    def test_tables_past_int64_are_refused_naming_the_ids(self, pred, truth, cells):
        message = (f"label ids too large to tabulate: predicted id {max(pred)} and true "
                   f"label {max(truth)} need a table of {cells} cells, beyond int64")
        for score in (contingency_table, evaluate):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                score(pred, truth)


class TestHungarian:
    def test_two_by_two(self):
        perm = hungarian(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert perm.tolist() == [1, 0]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            cost = rng.standard_normal((6, 6))
            perm = hungarian(cost)
            achieved = cost[np.arange(6), perm].sum()
            best, _ = brute_force_min_assignment(cost)
            assert achieved == pytest.approx(best, abs=1e-12)

    def test_result_is_a_permutation(self):
        cost = np.random.default_rng(1).standard_normal((7, 7))
        perm = hungarian(cost)
        assert sorted(perm.tolist()) == list(range(7))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        cost = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(ValueError):
            hungarian(cost)

    def test_rejects_costs_that_overflow(self):
        # finite entries whose reduced costs exceed float64's range
        cost = np.array([[-1e308, -1.7e308], [0.0, -1.7e308]])
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="overflow"):
            hungarian(cost)

    def test_empty_and_single(self):
        assert hungarian(np.zeros((0, 0))).tolist() == []
        assert hungarian(np.array([[5.0]])).tolist() == [0]

    def test_constant_cost_gives_identity(self):
        assert hungarian(np.zeros((6, 6))).tolist() == list(range(6))


class TestHungarianEqualsScipy:
    """The port follows scipy's scan order, tie rule and dual updates, so
    it returns scipy's permutation exactly, ties included."""

    def test_seeded_corpus(self):
        cases = 0
        for cost in oracle_corpus(5000):
            got = hungarian(cost)
            want = scipy_assignment(cost)
            assert np.array_equal(got, want), cost.tolist()
            cases += 1
        assert cases == 5000

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9).flatmap(
        lambda side: arrays(np.int64, (side, side), elements=st.integers(-2, 2))))
    def test_small_integer_costs(self, cost):
        cost = cost.astype(np.float64)
        assert np.array_equal(hungarian(cost), scipy_assignment(cost))

    def test_accuracy_matching_is_scipys(self):
        # the mapping in every report is the matching scipy would give
        rng = np.random.default_rng(9)
        for _ in range(200):
            pred = rng.integers(0, 6, size=30)
            truth = rng.integers(0, 4, size=30)
            counts = contingency_table(pred, truth)
            side = max(counts.shape)
            padded = np.zeros((side, side))
            padded[: counts.shape[0], : counts.shape[1]] = counts
            want = scipy_assignment(-padded)
            mapping = evaluate(pred, truth).mapping
            assert mapping == {i: int(want[i]) for i in range(counts.shape[0])}


class TestAccuracy:
    def test_identical_labelings(self):
        report = evaluate([0, 1, 2, 0], [0, 1, 2, 0])
        assert report.acc == 1.0
        assert report.mapping == {0: 0, 1: 1, 2: 2}

    def test_renamed_clusters_still_perfect(self):
        report = evaluate([0, 0, 1, 1], [1, 1, 0, 0])
        assert report.acc == 1.0
        assert report.mapping == {0: 1, 1: 0}

    def test_uninformative_crossing(self):
        acc = evaluate([0, 0, 1, 1], [0, 1, 0, 1]).acc
        assert acc == 0.5

    def test_matches_exhaustive_mapping_search(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 13))
            pred = rng.integers(0, 4, size=n)
            truth = rng.integers(0, 3, size=n)
            acc = evaluate(pred, truth).acc
            assert acc == pytest.approx(brute_force_accuracy(pred, truth), abs=1e-12)

    def test_more_clusters_than_labels(self):
        pred = [0, 1, 2, 2]
        truth = [0, 0, 1, 1]
        acc = evaluate(pred, truth).acc
        assert acc == pytest.approx(brute_force_accuracy(pred, truth), abs=1e-12)
        assert acc == 0.75  # one of clusters 0/1 must go unmatched

    def test_fewer_clusters_than_labels(self):
        pred = [0, 0, 0, 0]
        truth = [0, 1, 2, 3]
        acc = evaluate(pred, truth).acc
        assert acc == 0.25

    def test_mapping_achieves_reported_score(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 5, size=40)
        truth = rng.integers(0, 4, size=40)
        report = evaluate(pred, truth)
        agree = sum(1 for p, t in zip(pred, truth) if report.mapping[int(p)] == int(t))
        assert agree / 40 == pytest.approx(report.acc, abs=1e-12)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([0, 1], [0])

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            evaluate([0, -1], [0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            evaluate([], [])

    def test_rejects_fractional_labels(self):
        # these once truncated silently to [0, 1, 1] and scored 1.0
        with pytest.raises(ValueError, match="entry 0 is 0.5"):
            evaluate([0.5, 1.7, 1.2], [0, 1, 1])
        with pytest.raises(ValueError, match="non-integer true labels: entry 2 is 1.5"):
            evaluate([0, 1, 1], [0, 1, 1.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_labels(self, bad):
        # no cast warning first, and no misleading "non-negative" message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-integer .*labels: entry 1 is"):
                evaluate([0, bad, 1], [0, 1, 1])

    @pytest.mark.parametrize("bad", [1e19, -1e19])
    def test_rejects_labels_beyond_int64_with_their_entry(self, bad):
        # they once cast to -2**63 with a warning and read as "non-negative"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"true labels beyond int64: entry 2 is {bad}")):
                evaluate([0, 1, 1], [0.0, 1.0, bad])

    def test_rejects_uint64_labels_beyond_int64_with_their_entry(self):
        truth = np.array([0, 1, 2**63], dtype=np.uint64)
        with pytest.raises(ValueError, match=re.escape(f"true labels beyond int64: entry 2 is {2**63}")):
            evaluate([0, 1, 1], truth)

    def test_accepts_integral_floats(self):
        assert evaluate([0.0, 1.0, 2.0], [2, 0, 1]) == evaluate([0, 1, 2], [2, 0, 1])


class TestNmi:
    def test_identical_labelings_score_one(self):
        labels = [0, 1, 2, 0, 1, 2, 1]
        assert evaluate(labels, labels).nmi == 1.0

    def test_renaming_scores_one(self):
        assert evaluate([0, 0, 1, 1, 2], [2, 2, 0, 0, 1]).nmi == 1.0

    def test_constant_prediction_scores_zero(self):
        assert evaluate([0, 0, 0, 0], [0, 1, 0, 1]).nmi == 0.0

    def test_both_constant_scores_zero(self):
        # 0/0 convention
        assert evaluate([0, 0, 0], [0, 0, 0]).nmi == 0.0

    def test_matches_plugin_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            pred = rng.integers(0, 4, size=n)
            truth = rng.integers(0, 5, size=n)
            assert evaluate(pred, truth).nmi == pytest.approx(nmi_direct(pred, truth), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        pred = rng.integers(0, 3, size=30)
        truth = rng.integers(0, 4, size=30)
        assert evaluate(pred, truth).nmi == pytest.approx(evaluate(truth, pred).nmi, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_invariant_to_relabeling(self, data):
        # Renaming the predicted ids, or separately the true ids, keeps ACC
        # exactly: the best matching's count is an integer. NMI's entropy
        # sums change order, so it may move by rounding. The mapping is not
        # compared: its tie-breaking follows the order of the ids.
        n = data.draw(st.integers(1, 60))
        pred, truth = (data.draw(arrays(np.int64, n, elements=st.integers(0, 7)))
                       for _ in range(2))
        rename_pred, rename_truth = (np.array(data.draw(st.permutations(range(8))))
                                     for _ in range(2))
        base = evaluate(pred, truth)
        for renamed in (evaluate(rename_pred[pred], truth), evaluate(pred, rename_truth[truth])):
            assert renamed.acc == base.acc
            assert abs(renamed.nmi - base.nmi) <= 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            pred = rng.integers(0, 6, size=20)
            truth = rng.integers(0, 6, size=20)
            score = evaluate(pred, truth).nmi
            assert 0.0 <= score <= 1.0


class TestEvaluate:
    def test_bundles_both_scores(self):
        rng = np.random.default_rng(8)
        pred = rng.integers(0, 3, size=30)
        truth = rng.integers(0, 3, size=30)
        report = evaluate(pred, truth)
        assert isinstance(report, MetricsReport)
        assert report.acc == pytest.approx(brute_force_accuracy(pred, truth), abs=1e-12)
        assert report.nmi == pytest.approx(nmi_direct(pred, truth), abs=1e-12)
        agree = sum(1 for p, t in zip(pred, truth) if report.mapping[int(p)] == int(t))
        assert agree / 30 == report.acc

    def test_equals_the_separate_calls_bitwise(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            pred = rng.integers(0, int(rng.integers(1, 9)), n)
            truth = rng.integers(0, int(rng.integers(1, 9)), n)
            report = evaluate(pred, truth.astype(np.float64))
            counts = contingency_table(pred, truth)
            acc, mapping = metrics._accuracy(counts)
            assert report.acc.hex() == acc.hex()
            assert report.nmi.hex() == metrics._nmi(counts).hex()
            assert report.mapping == mapping

    def test_json_form_is_plain_python_in_cluster_order(self):
        report = MetricsReport(acc=np.float64(0.5), nmi=0.25, mapping={2: np.int64(0), 0: 1})
        got = report.to_json_dict()
        assert got == {"acc": 0.5, "nmi": 0.25, "mapping": {"0": 1, "2": 0}}
        assert list(got["mapping"]) == ["0", "2"]
        assert type(got["acc"]) is float and type(got["mapping"]["2"]) is int
