"""Split a dataset into expert subsets: K-means on the inputs, or balanced random."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import checked
from .gp import Dataset, sq_dists

_LLOYD_ITERS = 100


@dataclass(frozen=True, eq=False)
class Partitioning:
    """Disjoint cover of a dataset: every row lands in exactly one subset."""

    assignments: np.ndarray
    subsets: list[Dataset]
    method: str


def _kmeanspp_init(X: np.ndarray, M: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: new centers drawn proportional to squared distance."""
    n = X.shape[0]
    centers = np.empty((M, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = sq_dists(X, centers[:1])[:, 0]
    for k in range(1, M):
        total = d2.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[k] = X[idx]
        d2 = np.minimum(d2, sq_dists(X, centers[k : k + 1])[:, 0])
    return centers


def _steal_for_empty(assign: np.ndarray, X: np.ndarray, centers: np.ndarray, M: int) -> np.ndarray:
    """Refill each empty cluster with the farthest point of the largest one."""
    counts = np.bincount(assign, minlength=M)
    for k in np.where(counts == 0)[0]:
        big = int(counts.argmax())
        members = np.where(assign == big)[0]
        far = sq_dists(X[members], centers[big : big + 1])[:, 0].argmax()
        assign[members[far]] = k
        counts = np.bincount(assign, minlength=M)
    return assign


def _lloyd(X: np.ndarray, M: int, rng: np.random.Generator) -> np.ndarray:
    """The assignments after at most _LLOYD_ITERS Lloyd iterations."""
    centers = _kmeanspp_init(X, M, rng)
    assign = None
    for _ in range(_LLOYD_ITERS):
        new_assign = _steal_for_empty(sq_dists(X, centers).argmin(axis=1), X, centers, M)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = np.stack([X[assign == k].mean(axis=0) for k in range(M)])
    return new_assign


def _build(data: Dataset, assign: np.ndarray, M: int, method: str) -> Partitioning:
    subsets = []
    for k in range(M):
        idx = np.where(assign == k)[0]
        subsets.append(Dataset(data.X[idx], data.y[idx]))
    return Partitioning(assignments=assign, subsets=subsets, method=method)


def _check_M(data: Dataset, M: int) -> int:
    M = checked("M", M, int)
    if not 1 <= M <= data.n:
        raise ValueError(f"M must be between 1 and n={data.n}, got {M}")
    return M


def kmeans_partition(data: Dataset, M: int, seed: int) -> Partitioning:
    """Partition by Lloyd's algorithm on the inputs only (y ignored).

    k-means++ seeding, at most 100 iterations, stop when assignments
    stabilize. Clusters that empty out are repaired by stealing the
    farthest point from the largest cluster, so no subset is empty.
    """
    M = _check_M(data, M)
    if M == data.n:
        return _build(data, np.arange(data.n), M, "kmeans")
    return _build(data, _lloyd(data.X, M, np.random.default_rng(seed)), M, "kmeans")


def random_partition(data: Dataset, M: int, seed: int) -> Partitioning:
    """Seeded random partition with subset sizes differing by at most one."""
    M = _check_M(data, M)
    perm = np.random.default_rng(seed).permutation(data.n)
    assign = np.empty(data.n, dtype=int)
    for k, chunk in enumerate(np.array_split(perm, M)):
        assign[chunk] = k
    return _build(data, assign, M, "random")
