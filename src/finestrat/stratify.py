"""Matched k-tuple construction, coarse strata, and group pairing.

Groups are built so that units within a group are close in the (weighted)
stratification space; the recorded homogeneity statistic
(1/n) sum_s sum_{i,j in s} |psi_i - psi_j|^2 certifies match quality and
should shrink as n grows for continuous stratification variables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ConfigError, GroupPartition, as_generator

_METHODS = ("greedy-nn", "sorted-1d", "random-within-cell")


@dataclass(frozen=True)
class MatchConfig:
    k: int
    l: int
    psi_weights: np.ndarray | None = None
    method: str = "greedy-nn"

    def __post_init__(self):
        if not (1 <= self.l <= self.k - 1):
            raise ConfigError(f"need 1 <= l <= k-1, got l={self.l}, k={self.k}")
        if self.method not in _METHODS:
            raise ConfigError(f"unknown matching method {self.method!r}, expected one of {_METHODS}")
        if self.psi_weights is not None:
            w = np.asarray(self.psi_weights, dtype=np.float64)
            if w.ndim != 1 or (w <= 0).any():
                raise ConfigError("psi_weights must be a vector of strictly positive reals")
            object.__setattr__(self, "psi_weights", w)


def _pairwise_sq_dists(points):
    """(|a|^2 + |b|^2) - 2 a.b for all pairs, overwriting the Gram matrix
    in place by blocks of 256 rows so that one n x n matrix is held."""
    sq = np.einsum("id,id->i", points, points)
    d = points @ points.T
    for start in range(0, d.shape[0], 256):
        rows = d[start:start + 256]
        rows *= 2.0  # exact, so rows ends as (sq_i + sq_j) - (2 a.b)
        np.subtract(sq[start:start + 256, None] + sq[None, :], rows, out=rows)
    np.maximum(d, 0.0, out=d)
    return d


def _greedy_groups(points, k, what="units"):
    """Repeatedly take the unmatched unit farthest from its nearest unmatched
    neighbor and group it with its k-1 nearest unmatched neighbors.
    Distance ties break toward the lowest index. `what` names the points
    (units or group centroids) in the size-limit error."""
    n = points.shape[0]
    if n * n * 8 > 2 << 30:
        raise ConfigError(
            f"greedy matching of {n} {what} would hold an {n} x {n} distance "
            f"matrix of {n * n * 8} bytes, over the {2 << 30}-byte limit"
        )
    dist = _pairwise_sq_dists(points)
    np.fill_diagonal(dist, np.inf)
    alive = np.ones(n, dtype=bool)
    nn_idx = np.argmin(dist, axis=1)
    nn_dist = dist[np.arange(n), nn_idx]
    groups = []
    remaining = n
    while remaining > 0:
        if remaining == k:
            groups.append(np.where(alive)[0])
            break
        masked = np.where(alive, nn_dist, -np.inf)
        anchor = int(np.argmax(masked))
        row = np.where(alive, dist[anchor], np.inf)
        row[anchor] = np.inf
        neighbors = np.argpartition(row, k - 1)[: k - 1]
        neighbors = neighbors[np.lexsort((neighbors, row[neighbors]))]
        members = np.concatenate(([anchor], neighbors))
        groups.append(members)
        alive[members] = False
        remaining -= k
        # only rows whose recorded nearest neighbor was just removed rescan;
        # every alive row's neighbor was alive before this group was taken
        stale = np.where(alive & ~alive[nn_idx])[0]
        if stale.size:
            cols = np.where(alive)[0]
            sub = dist[np.ix_(stale, cols)]
            pos = np.argmin(sub, axis=1)
            nn_idx[stale] = cols[pos]
            nn_dist[stale] = sub[np.arange(stale.size), pos]
    return np.asarray(groups, dtype=np.intp)


def _homogeneity(psi, groups):
    n = groups.size
    k = groups.shape[1]
    pg = psi[groups]
    c = pg - pg.mean(axis=1, keepdims=True)
    return float(2.0 * k * np.einsum("gkd,gkd->", c, c) / n)


def match_k_tuples(psi, cfg, rng=None):
    """Partition units into groups of k matched on (weighted) psi.

    sorted-1d chunks the sort order into consecutive blocks (univariate psi
    only); greedy-nn handles any dimension; random-within-cell treats each
    distinct psi row as a discrete cell and groups uniformly at random
    within it. The partition depends only on psi and the supplied rng.
    """
    psi = np.asarray(psi, dtype=np.float64)
    if psi.ndim == 1:
        psi = psi[:, None]
    n, d = psi.shape
    if n % cfg.k != 0:
        raise ConfigError(f"n={n} is not divisible by group size k={cfg.k}")
    work = psi
    if cfg.psi_weights is not None:
        if cfg.psi_weights.shape[0] != d:
            raise ConfigError("psi_weights length must match psi columns")
        work = psi * cfg.psi_weights[None, :]

    if cfg.method == "sorted-1d":
        if d != 1:
            raise ConfigError("sorted-1d matching requires a single psi column")
        order = np.argsort(work[:, 0], kind="stable")
        groups = order.reshape(-1, cfg.k)
    elif cfg.method == "greedy-nn":
        groups = _greedy_groups(work, cfg.k)
    else:  # random-within-cell
        _, labels = np.unique(work, axis=0, return_inverse=True)
        part = coarse_strata(labels, cfg.k, cfg.l, rng)
        groups = part.groups
    return GroupPartition(
        groups=groups, k=cfg.k, l=cfg.l, homogeneity=_homogeneity(work, groups)
    )


def coarse_strata(labels, k, l, rng):
    """Group units uniformly at random within discrete cells. One cell is
    complete randomization; groups never cross cell boundaries."""
    labels = np.asarray(labels)
    gen = as_generator(rng)
    cells, inverse = np.unique(labels, return_inverse=True)
    bad = []
    blocks = []
    for c in range(cells.size):
        members = np.where(inverse == c)[0]
        if members.size % k != 0:
            bad.append(f"cell {cells[c]} size {members.size} not divisible by {k}")
            continue
        perm = gen.permutation(members)
        blocks.append(perm.reshape(-1, k))
    if bad:
        raise ConfigError("; ".join(bad))
    groups = np.vstack(blocks)
    return GroupPartition(groups=groups, k=k, l=l, homogeneity=None)


def pair_groups_by_centroid(partition, psi):
    """Match groups into pairs on their psi centroids (greedy nearest
    neighbor), recording the involution and its pairing statistic
    (1/n) sum_s |centroid_s - centroid_pair(s)|^2."""
    psi = np.asarray(psi, dtype=np.float64)
    if psi.ndim == 1:
        psi = psi[:, None]
    G = partition.n_groups
    if G % 2 != 0:
        raise ConfigError(f"cannot pair an odd number of groups ({G})")
    centroids = psi[partition.groups].mean(axis=1)
    pairs = _greedy_groups(centroids, 2, what="group centroids")
    rho = np.empty(G, dtype=np.intp)
    rho[pairs[:, 0]] = pairs[:, 1]
    rho[pairs[:, 1]] = pairs[:, 0]
    stat = float(
        np.einsum("gd,gd->", centroids - centroids[rho], centroids - centroids[rho])
    ) / partition.n
    return replace(partition, pairing=rho, pairing_stat=stat)


def design_partition(psi, cfg, rng=None):
    """The partition a design assigns within: one group of all n units when
    psi has no columns, else groups of k matched on (weighted) psi. Groups
    with a single treated or a single control unit need collapsed strata for
    their variance bounds, so they are also paired on their centroids; an
    odd group count is refused before any matching or draw."""
    psi = np.asarray(psi, dtype=np.float64)
    if psi.ndim == 1:
        psi = psi[:, None]
    n, k, l = psi.shape[0], cfg.k, cfg.l
    if psi.shape[1] == 0:
        if n % k != 0:
            raise ConfigError(f"n={n} not divisible by k={k}")
        return GroupPartition(groups=np.arange(n)[None, :], k=n, l=n * l // k)
    collapse = min(l, k - l) < 2
    if collapse and n % (2 * k) == k:
        raise ConfigError(f"n={n} in groups of k={k} gives an odd number of groups "
                          f"({n // k}), which cannot be paired into collapsed strata")
    partition = match_k_tuples(psi, cfg, rng)
    if collapse:
        work = psi if cfg.psi_weights is None else psi * cfg.psi_weights
        partition = pair_groups_by_centroid(partition, work)
    return partition
