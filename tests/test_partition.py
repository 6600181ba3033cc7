import hashlib

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import gpagg.partition as partition
from gpagg import Dataset, generate_synthetic, kmeans_partition, normalize, random_partition
from gpagg.partition import _lloyd


def two_blobs(n_per=30, seed=0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(0.0, 1.0, n_per), rng.normal(100.0, 1.0, n_per)])
    return Dataset(x[:, None], np.arange(2 * n_per, dtype=float))


def rows_as_multiset(ds):
    return sorted(map(tuple, np.column_stack([ds.X, ds.y[:, None]]).tolist()))


class TestKmeans:
    def test_single_cluster_returns_input(self):
        ds = two_blobs()
        part = kmeans_partition(ds, 1, seed=0)
        assert len(part.subsets) == 1
        assert np.array_equal(part.subsets[0].X, ds.X)
        assert np.array_equal(part.subsets[0].y, ds.y)

    def test_n_clusters_gives_singletons(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.standard_normal((7, 2)), rng.standard_normal(7))
        part = kmeans_partition(ds, 7, seed=0)
        assert [s.n for s in part.subsets] == [1] * 7

    def test_separated_blobs_split_cleanly(self):
        ds = two_blobs()
        part = kmeans_partition(ds, 2, seed=0)
        # exhaustive check: each subset holds exactly one blob
        for subset in part.subsets:
            near_zero = np.abs(subset.X[:, 0]) < 50
            assert near_zero.all() or (~near_zero).all()
        assert sorted(s.n for s in part.subsets) == [30, 30]

    def test_partition_is_bijection_on_rows(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.standard_normal((40, 2)), rng.standard_normal(40))
        part = kmeans_partition(ds, 6, seed=3)
        merged = sum((rows_as_multiset(s) for s in part.subsets), [])
        assert sorted(merged) == rows_as_multiset(ds)
        assert np.bincount(part.assignments, minlength=6).min() > 0

    def test_wcss_non_increasing_over_lloyd_iterations(self, monkeypatch):
        # iteration k assigns each point to its nearest mean of iteration
        # k - 1's clusters, so the WCSS around each clustering's own means
        # cannot grow from one iteration to the next
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 2))
        trace = []
        for iters in range(1, 40):
            monkeypatch.setattr(partition, "_LLOYD_ITERS", iters)
            assign = _lloyd(X, 5, np.random.default_rng(0))
            trace.append(sum(((X[assign == k] - X[assign == k].mean(axis=0)) ** 2).sum() for k in range(5)))
        assert trace[-1] == trace[-2] < trace[0]
        assert np.all(np.diff(trace) <= 1e-10)

    def test_assignments_of_the_benchmark_campaigns_are_pinned(self):
        # the acceptance campaigns' partitions (n=2000, seeds 0-4, M in
        # {5, 10} and, for the race, 20), M=1, and two n=5000, M=20 ones,
        # each on its normalized training set with the data seed as
        # partition seed, as ``run_benchmark`` builds them; a faster Lloyd
        # must keep them
        digest = hashlib.sha256()
        for n, seeds, Ms in ((2000, range(5), (1, 5, 10, 20)), (5000, (0, 7), (20,))):
            for seed in seeds:
                raw = generate_synthetic(n, (0.0, 1.0), 0.2, seed)
                train = normalize(raw, raw)[0]
                for M in Ms:
                    digest.update(kmeans_partition(train, M, seed).assignments.astype(np.int64).tobytes())
        assert digest.hexdigest() == "b14f4d8188a6fe12160558a60aa213461a89da82a9ae107184c2516b739c765e"

    def test_duplicate_points_leave_no_empty_cluster(self):
        # all-identical inputs force the empty-cluster repair path
        ds = Dataset(np.zeros((5, 1)), np.arange(5.0))
        part = kmeans_partition(ds, 3, seed=0)
        assert [s.n for s in part.subsets if s.n == 0] == []
        assert sum(s.n for s in part.subsets) == 5

    def test_m_out_of_range_raises(self):
        ds = two_blobs(5)
        with pytest.raises(ValueError):
            kmeans_partition(ds, 11, seed=0)
        with pytest.raises(ValueError):
            kmeans_partition(ds, 0, seed=0)

    def test_deterministic_for_fixed_seed(self):
        ds = two_blobs(20, seed=5)
        a = kmeans_partition(ds, 4, seed=9)
        b = kmeans_partition(ds, 4, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    def test_assignments_equal_cdist_oracle(self, monkeypatch):
        # 1-D inputs take gp.sq_dists' outer-subtraction path
        rng = np.random.default_rng(21)
        ds = Dataset(3.0 * rng.standard_normal((300, 1)), rng.standard_normal(300))
        got = [kmeans_partition(ds, M, seed).assignments for M in (2, 5, 9) for seed in (0, 1)]
        monkeypatch.setattr(partition, "sq_dists", lambda A, B: cdist(A, B, "sqeuclidean"))
        want = [kmeans_partition(ds, M, seed).assignments for M in (2, 5, 9) for seed in (0, 1)]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestRandomPartition:
    def test_single_subset_is_input(self):
        ds = two_blobs(10)
        part = random_partition(ds, 1, seed=0)
        assert np.array_equal(part.subsets[0].X, ds.X)

    def test_balanced_sizes(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.standard_normal((10, 1)), rng.standard_normal(10))
        part = random_partition(ds, 3, seed=1)
        assert sorted((s.n for s in part.subsets), reverse=True) == [4, 3, 3]

    def test_same_seed_same_assignments(self):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.standard_normal((25, 1)), rng.standard_normal(25))
        a = random_partition(ds, 4, seed=2)
        b = random_partition(ds, 4, seed=2)
        assert np.array_equal(a.assignments, b.assignments)
        c = random_partition(ds, 4, seed=3)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_bijection(self):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.standard_normal((17, 3)), rng.standard_normal(17))
        part = random_partition(ds, 5, seed=4)
        merged = sum((rows_as_multiset(s) for s in part.subsets), [])
        assert sorted(merged) == rows_as_multiset(ds)

    def test_m_exceeding_n_raises(self):
        ds = two_blobs(2)
        with pytest.raises(ValueError):
            random_partition(ds, 5, seed=0)


@pytest.mark.parametrize("partitioner", [kmeans_partition, random_partition], ids=["kmeans", "random"])
@pytest.mark.parametrize("M", [True, 2.5, "2"], ids=["bool", "float", "string"])
def test_m_that_is_no_integer_raises(partitioner, M):
    # True would otherwise run as M = 1, and 2.5 fail inside numpy
    with pytest.raises(ValueError, match="M must be of type int"):
        partitioner(two_blobs(5), M, 0)


def test_numpy_integer_m_is_accepted():
    ds = two_blobs(10, seed=2)
    assert np.array_equal(kmeans_partition(ds, np.int64(3), 0).assignments, kmeans_partition(ds, 3, 0).assignments)
