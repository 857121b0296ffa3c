import re

import numpy as np
import pytest

import deepkm.clustering as clustering
from deepkm.clustering import (
    _nearest,
    assign,
    kmeans,
    kmeans_plus_plus_init,
    lloyd_step,
    squared_distances,
)

from helpers import best_bipartition_objective, two_clump_points


# References for the bit-identity tests: every (N, K) distance from
# squared_distances, np.add.at centroid sums, the same repair rule.
def ref_nearest(points, centers):
    return np.argmin(squared_distances(points, centers), axis=1)


def ref_lloyd_step(points, centers):
    d2 = squared_distances(points, centers)
    labels = np.argmin(d2, axis=1)
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    if not (counts > 0).all():
        own_d2 = d2[np.arange(len(points)), labels]
        centers = centers.copy()
        for cluster in np.flatnonzero(counts == 0):
            sizes = np.bincount(labels, minlength=k)  # a lone point is not taken
            donor = int(np.argmax(np.where(sizes[labels] > 1, own_d2, -np.inf)))
            centers[cluster] = points[donor]
            labels[donor] = cluster
            own_d2[donor] = -np.inf
    diff = points - centers[labels]
    objective = float(np.einsum("nd,nd->", diff, diff))
    new_centers = np.zeros_like(centers)
    np.add.at(new_centers, labels, points)
    new_centers /= np.bincount(labels, minlength=k)[:, None]
    return new_centers, labels, objective, centers


def ref_kmeans(points, k, seed, max_iters=100, tol=1e-6):
    centers = kmeans_plus_plus_init(points, k, seed)
    iterations = 0
    for _ in range(max_iters):
        new_centers = ref_lloyd_step(points, centers)[0]
        iterations += 1
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < tol:
            break
    _, labels, objective, centers = ref_lloyd_step(points, centers)
    return centers, labels, objective, iterations


def start_kmeans_at(monkeypatch, centers):
    """Make ``kmeans`` start from ``centers`` instead of k-means++."""
    monkeypatch.setattr(clustering, "kmeans_plus_plus_init", lambda points, k, seed: centers.copy())


def assert_same_step(points, centers):
    got = lloyd_step(points, centers)
    want = ref_lloyd_step(points, centers)
    np.testing.assert_array_equal(got[1], want[1])
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


def _spread_points(rng):
    return rng.standard_normal((300, 5)), rng.standard_normal((6, 5))


def _tied_grid(rng):
    # integer grid points against duplicated grid centers: exact ties
    centers = rng.integers(-2, 3, size=(4, 3)).astype(float)
    centers = np.vstack([centers, centers[:2], [[0.5, 0.5, 0.5]]])
    return rng.integers(-3, 4, size=(400, 3)).astype(float), centers


def _offset(rng):
    return 1e6 + rng.standard_normal((300, 4)), 1e6 + rng.standard_normal((5, 4))


def _near_bisector(rng, offset, scale):
    # points within rounding of the plane halfway between centers 0 and 1
    centers = offset + scale * rng.standard_normal((3, 4))
    mid = (centers[0] + centers[1]) / 2
    spread = scale * 10.0 ** rng.uniform(-9, 0, size=(300, 1))
    return mid + spread * rng.standard_normal((300, 4)), centers


def _near_ties_offset(rng):
    return _near_bisector(rng, 1e6, 1.0)


def _near_ties_subnormal(rng):
    # squares and their rounding errors are subnormal
    return _near_bisector(rng, 0.0, 1e-158)


def _zeros(rng):
    return np.zeros((50, 3)), np.zeros((4, 3))


def _huge(rng):
    # squares reach ~1e308: the screen overflows and must fall back
    return 1e154 * rng.standard_normal((200, 6)), 1e154 * rng.standard_normal((5, 6))


def _huge_finite_screen(rng):
    # the screen stays finite, but every exact distance overflows to inf,
    # so the exact path's first-minimum rule picks center 0
    points = 1e154 * rng.uniform(1.2, 1.3, size=(100, 1))
    return points, 1e154 * np.array([[-0.3], [-0.2]])


def _tiny(rng):
    # squares underflow into subnormals
    return 1e-160 * rng.standard_normal((200, 6)), 1e-160 * rng.standard_normal((5, 6))


SCREEN_CASES = [
    _spread_points, _tied_grid, _offset, _near_ties_offset, _near_ties_subnormal,
    _zeros, _huge, _huge_finite_screen, _tiny,
]


class TestAssign:
    def test_point_on_center_gets_its_label(self):
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        labels = assign(np.array([[0.0, 5.0]]), centers)
        assert labels.tolist() == [2]

    def test_tie_goes_to_lowest_index(self):
        centers = np.array([[-1.0], [1.0]])
        labels = assign(np.array([[0.0]]), centers)
        assert labels.tolist() == [0]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((20, 3))
        centers = rng.standard_normal((3, 3))
        labels = assign(points, centers)
        for i in range(20):
            dists = [np.sum((points[i] - c) ** 2) for c in centers]
            assert labels[i] == int(np.argmin(dists))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assign(np.zeros((3, 2)), np.zeros((2, 3)))

    def test_blockwise_distances_are_exact(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((7, 4))
        centers = rng.standard_normal((3, 4))
        d = squared_distances(points, centers)
        for i in range(7):
            for j in range(3):
                expected = np.sum((points[i] - centers[j]) ** 2)
                assert d[i, j] == pytest.approx(expected, rel=0, abs=1e-12)


class TestPlusPlusInit:
    def test_n_equals_k_selects_all_points(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((4, 2))
        centers = kmeans_plus_plus_init(points, 4, rng)
        got = sorted(map(tuple, centers.tolist()))
        want = sorted(map(tuple, points.tolist()))
        assert got == want

    def test_separated_pairs_one_center_each_after_refinement(self):
        # two tight pairs far apart: after one Lloyd step each pair owns a center
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        for seed in range(10):
            centers = kmeans_plus_plus_init(points, 2, np.random.default_rng(seed))
            centers, labels, _ = lloyd_step(points, centers)
            assert labels[0] == labels[1]
            assert labels[2] == labels[3]
            assert labels[0] != labels[2]

    def test_deterministic_per_seed(self):
        points = np.random.default_rng(3).standard_normal((30, 4))
        a = kmeans_plus_plus_init(points, 5, 42)
        b = kmeans_plus_plus_init(points, 5, 42)
        assert np.array_equal(a, b)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans_plus_plus_init(np.zeros((3, 2)), 4, 0)

    def test_duplicate_points_still_yield_k_centers(self):
        points = np.zeros((5, 2))
        centers = kmeans_plus_plus_init(points, 3, np.random.default_rng(0))
        assert centers.shape == (3, 2)

    @pytest.mark.parametrize("seed, message", [
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be >= 0, got -1"),
    ], ids=["bool", "float", "negative"])
    def test_bad_seed_rejected_by_name(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kmeans_plus_plus_init(np.zeros((3, 2)), 2, seed)


class TestLloydStep:
    def test_fixed_point_when_centers_at_means(self):
        points = np.array([[0.0], [2.0], [10.0], [12.0]])
        centers = np.array([[1.0], [11.0]])
        new_centers, labels, obj = lloyd_step(points, centers)
        np.testing.assert_allclose(new_centers, centers, rtol=0, atol=1e-15)
        assert labels.tolist() == [0, 0, 1, 1]
        assert obj == pytest.approx(4.0, abs=1e-12)

    def test_single_cluster_mean_and_objective(self):
        # off the fixed point: center moves to the mean, objective still
        # measured against the center the step started from
        new_centers, _, obj = lloyd_step(np.array([[0.0], [2.0]]), np.array([[0.5]]))
        assert new_centers[0, 0] == pytest.approx(1.0, abs=0)
        assert obj == pytest.approx(0.5**2 + 1.5**2, abs=1e-12)
        # at the fixed point the two readings coincide
        _, _, obj = lloyd_step(np.array([[0.0], [2.0]]), np.array([[1.0]]))
        assert obj == pytest.approx(2.0, abs=1e-12)

    def test_objective_uses_new_assignment_old_centers(self):
        points = np.array([[0.0], [4.0], [10.0]])
        centers = np.array([[1.0], [9.0]])
        new_centers, labels, obj = lloyd_step(points, centers)
        assert labels.tolist() == [0, 0, 1]
        # against the input centers; the refreshed ones would give 8
        assert obj == pytest.approx(1.0 + 9.0 + 1.0, abs=1e-12)
        np.testing.assert_allclose(new_centers, [[2.0], [10.0]], atol=1e-15)

    def test_repair_reassigns_farthest_point_to_empty_cluster(self):
        points = np.array([[0.0], [4.0]])
        centers = np.array([[1.0], [10.0]])  # nobody picks center 1
        new_centers, labels, obj = lloyd_step(points, centers)
        assert labels.tolist() == [0, 1]
        np.testing.assert_allclose(new_centers, [[0.0], [4.0]], atol=1e-15)
        # donated point sits exactly on the repaired center
        assert obj == pytest.approx(1.0, abs=1e-12)

    def test_converged_objective_is_bipartition_optimum(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((6, 2))
        best = best_bipartition_objective(points)
        found = min(
            kmeans(points, 2, seed).objective for seed in range(10)
        )
        assert found == pytest.approx(best, abs=1e-9)

    def test_repair_never_takes_a_clusters_only_point(self, monkeypatch):
        # nearest: [c2, c0, c2], so c1 is empty; the farthest point is the
        # only member of c0 and must not be moved there
        points = np.array([[2.0], [0.0], [2.0]])
        centers = np.array([[1.0], [1.0], [2.0]])
        new_centers, labels, _ = lloyd_step(points, centers)
        assert labels.tolist() == [1, 0, 2]
        np.testing.assert_array_equal(new_centers, [[0.0], [2.0], [2.0]])
        start_kmeans_at(monkeypatch, centers)
        assert kmeans(points, 3, 0).converged

    def test_empty_cluster_repaired_never_errors(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        centers = np.array([[0.3, 0.3], [99.0, 99.0]])  # second center owns nothing
        new_centers, labels, _ = lloyd_step(points, centers)
        assert set(labels.tolist()) == {0, 1}
        assert np.all(np.isfinite(new_centers))

    def test_more_centers_than_points_rejected(self):
        with pytest.raises(ValueError, match="no more centers than points, got 4 centers for 3"):
            lloyd_step(np.arange(6.0).reshape(3, 2), np.zeros((4, 2)))

    def test_monotone_objective_across_iterations(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((40, 3))
        centers = kmeans_plus_plus_init(points, 4, rng)
        prev = np.inf
        for _ in range(15):
            centers, _, obj = lloyd_step(points, centers)
            assert obj <= prev + 1e-9
            prev = obj


class TestKMeans:
    def test_k1_is_global_mean(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((25, 3))
        result = kmeans(points, 1, 0)
        np.testing.assert_allclose(result.centers[0], points.mean(axis=0), atol=1e-12)
        assert np.all(result.labels == 0)

    def test_matches_exhaustive_partition_optimum(self):
        rng = np.random.default_rng(7)
        hits = 0
        trials = 40
        for trial in range(trials):
            points = two_clump_points(rng)
            best = best_bipartition_objective(points)
            result = kmeans(points, 2, trial)
            assert result.objective >= best - 1e-9  # never better than optimal
            if result.objective <= best + 1e-9:
                hits += 1
        assert hits >= int(0.9 * trials)  # lloyd may hit local optima occasionally

    def test_deterministic(self):
        points = np.random.default_rng(8).standard_normal((50, 4))
        a = kmeans(points, 3, 123)
        b = kmeans(points, 3, 123)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.labels, b.labels)
        assert a.objective == b.objective

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 3, 0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"k": 5}, "need 1 <= k <= n_points, got k=5, n=3"),
        ({"k": True}, "k must be an integer, got True"),
        ({"k": 2.0}, "k must be an integer, got 2.0"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"max_iters": -3}, "max_iters must be >= 0, got -3"),
        ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
        ({"tol": float("nan")}, "tol must be a real number >= 0, got nan"),
        ({"tol": -1e-6}, "tol must be a real number >= 0"),
        ({"tol": True}, "tol must be a real number >= 0, got True"),
    ], ids=["k_above_n", "k_bool", "k_float", "seed_bool", "seed_float", "seed_negative",
            "max_iters_negative", "max_iters_float", "tol_nan", "tol_negative", "tol_bool"])
    def test_bad_arguments_rejected_by_name_before_any_work(self, kwargs, message, monkeypatch):
        # any seeding or iteration would fail
        monkeypatch.setattr(clustering, "kmeans_plus_plus_init", None)
        monkeypatch.setattr(clustering, "lloyd_step", None)
        points = np.random.default_rng(3).standard_normal((3, 2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            kmeans(points, **{"k": 2, "seed": 0, **kwargs})

    def test_nonfinite_points_rejected(self):
        points = np.array([[0.0], [np.nan]])
        with pytest.raises(ValueError):
            kmeans(points, 1, 0)


class TestSolutionInvariants:
    def test_assignment_and_centroid_optimality(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            points = rng.standard_normal((40, 3))
            result = kmeans(points, 3, trial, tol=1e-12, max_iters=200)
            # no single-point relabeling helps
            d = squared_distances(points, result.centers)
            assert np.all(
                d[np.arange(40), result.labels] <= d.min(axis=1) + 1e-12
            )
            if result.converged:
                # each center is its cluster's mean
                for c in range(3):
                    members = points[result.labels == c]
                    if len(members):
                        np.testing.assert_allclose(
                            result.centers[c], members.mean(axis=0), atol=1e-9
                        )

    def test_permutation_equivariance_with_fixed_init(self, monkeypatch):
        rng = np.random.default_rng(10)
        points = rng.standard_normal((30, 3))
        start_kmeans_at(monkeypatch, rng.standard_normal((3, 3)))
        perm = rng.permutation(30)
        a = kmeans(points, 3, 0)
        b = kmeans(points[perm], 3, 0)
        np.testing.assert_allclose(a.centers, b.centers, atol=1e-9)
        np.testing.assert_array_equal(a.labels[perm], b.labels)

    def test_objective_consistent_with_returned_labels_and_centers(self):
        rng = np.random.default_rng(11)
        points = rng.standard_normal((35, 4))
        result = kmeans(points, 4, 5)
        recomputed = float(
            np.sum((points - result.centers[result.labels]) ** 2)
        )
        assert result.objective == pytest.approx(recomputed, rel=1e-12)


class TestExactScreen:
    """The screened labelling gives the exact path's bits."""

    @pytest.mark.parametrize("make", SCREEN_CASES, ids=lambda f: f.__name__.strip("_"))
    def test_nearest_and_assign_match_exact_argmin(self, make):
        for seed in range(5):
            points, centers = make(np.random.default_rng(seed))
            with np.errstate(over="ignore", invalid="ignore"):
                want = ref_nearest(points, centers)
                np.testing.assert_array_equal(_nearest(points, centers), want)
                np.testing.assert_array_equal(assign(points, centers), want)

    @pytest.mark.parametrize("make", SCREEN_CASES, ids=lambda f: f.__name__.strip("_"))
    def test_lloyd_step_matches_add_at_reference(self, make):
        points, centers = make(np.random.default_rng(0))
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_step(points, centers)

    def test_single_ambiguous_row_alone_takes_the_exact_path(self, monkeypatch):
        rng = np.random.default_rng(1)
        centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 9.0]])
        points = centers[rng.integers(0, 3, 100)] + 0.1 * rng.standard_normal((100, 2))
        points[37] = [1.0, 0.25]  # equidistant from centers 0 and 1
        seen = []
        real = clustering.squared_distances

        def spy(p, c):
            seen.append(p.copy())
            return real(p, c)

        monkeypatch.setattr(clustering, "squared_distances", spy)
        labels = _nearest(points, centers)
        monkeypatch.undo()
        assert len(seen) == 1 and np.array_equal(seen[0], points[[37]])
        assert labels[37] == 0
        np.testing.assert_array_equal(labels, ref_nearest(points, centers))

    def test_settled_rows_never_form_all_distances(self, monkeypatch):
        rng = np.random.default_rng(2)
        centers = 10.0 * rng.standard_normal((4, 3))
        points = centers[rng.integers(0, 4, 200)] + 0.1 * rng.standard_normal((200, 3))
        points[:4] = centers  # every cluster keeps a member
        want = ref_lloyd_step(points, centers)

        def forbidden(p, c):
            raise AssertionError("exact path used")

        start_kmeans_at(monkeypatch, centers)
        monkeypatch.setattr(clustering, "squared_distances", forbidden)
        new_centers, labels, objective = lloyd_step(points, centers)
        result = kmeans(points, 4, 0)
        assign(points, centers)
        monkeypatch.undo()
        np.testing.assert_array_equal(labels, want[1])
        assert new_centers.tobytes() == want[0].tobytes() and objective == want[2]
        assert result.converged

    def test_empty_cluster_repair_matches_reference(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((60, 2))
        centers = np.array([[0.0, 0.0], [50.0, 50.0], [0.1, 0.0], [-60.0, 5.0]])
        assert_same_step(points, centers)
        assert set(lloyd_step(points, centers)[1].tolist()) == {0, 1, 2, 3}

    @pytest.mark.parametrize("seed", range(6))
    def test_kmeans_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        means = 3.0 * rng.standard_normal((5, 4))
        points = means[rng.integers(0, 5, 500)] + rng.standard_normal((500, 4))
        got = kmeans(points, 5, seed)
        centers, labels, objective, iterations = ref_kmeans(points, 5, seed)
        assert got.centers.tobytes() == centers.tobytes()
        np.testing.assert_array_equal(got.labels, labels)
        assert got.objective == objective
        assert got.iterations == iterations
