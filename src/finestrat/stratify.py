"""Matched k-tuple construction, coarse strata, and group pairing.

Groups are built so that units within a group are close in the (weighted)
stratification space; the recorded homogeneity statistic
(1/n) sum_s sum_{i,j in s} |psi_i - psi_j|^2 certifies match quality and
should shrink as n grows for continuous stratification variables.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .core import ConfigError, GroupPartition, as_generator, as_matrix, collapsed_strata

_METHODS = ("greedy-nn", "sorted-1d", "random-within-cell")
# the most points in two or more columns that _greedy_groups scans a distance
# table for (at most 0.8 MB); more go to a k-d tree. Up to here a scan takes
# 0.7-1.05 times the tree's time per call in 2-5 columns, and needs no SciPy
# (about 0.3 s to load); at 384 points it takes 1.04-1.18 times, at 512 1.26-1.33
_SCAN_MAX_POINTS = 320


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
            try:
                w = np.asarray(self.psi_weights, dtype=np.float64)
            except (TypeError, ValueError):
                w = None  # not numbers
            if w is None or w.ndim != 1 or not (np.isfinite(w) & (w > 0)).all():
                raise ConfigError("psi_weights must be a vector of strictly positive reals")
            object.__setattr__(self, "psi_weights", w)

    def check_dim(self, d):
        """Refuse d psi columns where the weights or the method cannot take
        them. match_k_tuples runs it, and so does a design spec's reader."""
        if self.psi_weights is not None and self.psi_weights.shape[0] != d:
            raise ConfigError("psi_weights length must match psi columns")
        if self.method == "sorted-1d" and d != 1:
            raise ConfigError("sorted-1d matching requires a single psi column")


def _ranked(points, rows, idx, bound, alive):
    """Sort each row's candidates idx by (exact squared distance, index),
    keeping the entries below the row's bound and dropping the row itself
    and matched points. The squares are added column by column in order, so
    every call gives the same bits."""
    ex = np.square(points[rows, None, 0] - points[idx, 0])
    for c in range(1, points.shape[1]):
        ex += np.square(points[rows, None, c] - points[idx, c])
    ex[(idx == rows[:, None]) | (alive[idx] == 0)] = np.inf
    order = np.arange(rows.size)[:, None], np.lexsort((idx, ex))
    idx, ex = idx[order], ex[order]
    kept = (ex < bound).sum(axis=1).tolist()
    return [r[:c] for r, c in zip(idx, kept)], [r[:c] for r, c in zip(ex, kept)]


class _TreeSource:
    """Candidates from a k-d tree (Friedman, Bentley & Finkel 1977) of the
    points unmatched at the last rebuild. Each bound is a squared tree
    distance less 1e-12 relative for the tree's rounding, below which no
    point the tree left out can lie."""

    def __init__(self, points, alive):
        self.points, self.alive = points, alive
        self.rebuild()

    def rebuild(self):
        # imported here, for more than _SCAN_MAX_POINTS points in two or more
        # columns: scipy.spatial, which loads scipy.special, adds about 0.3 s
        # to a command (or a simulate run) that loads it
        from scipy.spatial import cKDTree

        self.where = np.flatnonzero(self.alive)
        self.tree = cKDTree(self.points[self.where])

    def near(self, rows, K):
        """Each row's K nearest points, and its bound."""
        K = min(K, self.where.size)
        dist, idx = self.tree.query(self.points[rows], K)
        r = dist[:, -1:]
        return self.where[idx], np.inf if K == self.where.size else r * r * (1.0 - 1e-12)

    def around(self, i, K):
        """Every point as near to point i as its K-th nearest, and the bound."""
        K = min(K, self.where.size)
        dist, idx = self.tree.query(self.points[i], K)
        if K == self.where.size:
            return self.where[None, idx], np.inf
        # a margin for rounding; a point farther than r = 0 differs in some column
        r = dist[-1] * (1.0 + 1e-9)
        idx = self.tree.query_ball_point(self.points[i], r)
        return self.where[None, idx], max(r * r * (1.0 - 1e-12), np.nextafter(0.0, 1.0))


class _ScanSource:
    """Candidates from one table of every exact squared distance, added
    column by column as `_ranked` adds them, so each bound is exact. For few
    points a scan of the table costs about what a k-d tree's queries do, and
    needs no SciPy; the table is n * n * 8 bytes."""

    def __init__(self, points, alive):
        self.alive, cols = alive, points.T.copy()
        self.table = np.subtract.outer(cols[0], cols[0])
        np.square(self.table, out=self.table)
        step = np.empty_like(self.table)
        for c in cols[1:]:
            self.table += np.square(np.subtract.outer(c, c, out=step), out=step)
        self.rebuild()

    def rebuild(self):
        self.where = np.flatnonzero(self.alive)

    def near(self, rows, K):
        """Each row's K nearest points, and its bound: the (K+1)-th distance."""
        m = self.where.size
        if K >= m:
            return np.broadcast_to(self.where, (rows.size, m)), np.inf
        # before the first match every point is listed in order: scan the table in place
        whole = m == len(self.table) and np.array_equal(rows, self.where)
        sub = self.table if whole else self.table[np.ix_(rows, self.where)]
        part = np.argpartition(sub, K, axis=1)
        return self.where[part[:, :K]], np.take_along_axis(sub, part[:, K:K + 1], axis=1)

    def around(self, i, K):
        """Every point at or below point i's K-th distance, and the bound."""
        row = self.table[i, self.where]
        if K >= row.size:
            return self.where[None, :], np.inf
        r = np.partition(row, K - 1)[K - 1]
        return self.where[None, row <= r], np.nextafter(r, np.inf)


class _SortSource:
    """Candidates from the stable sort order of one column, over the points
    unmatched at the last rebuild. In floats (a - b)**2 never decreases as b
    walks away from a in that order, so each bound, the exact squared
    distance of the first point past either end of a window, is at most
    that of every point outside it."""

    def __init__(self, points, alive):
        self.x, self.alive, self.pos = points[:, 0], alive, np.empty(len(points), dtype=np.intp)
        self.order = np.argsort(self.x, kind="stable")
        self.rebuild()

    def rebuild(self):
        self.where = self.order[self.alive[self.order] != 0]
        self.xs = self.x[self.where]
        self.pos[self.where] = np.arange(self.where.size)

    def near(self, rows, K):
        """The K points on each side of each row, and its bound."""
        m = self.where.size
        span = self.pos[rows, None] + np.arange(-K - 1, K + 2)
        # positions off either end stand for the row itself, which _ranked
        # drops and whose bound is then infinite
        units = np.where((span >= 0) & (span < m), self.where.take(span, mode="clip"),
                         rows[:, None])
        ends = units[:, ::span.shape[1] - 1]
        gap = np.square(self.x[rows, None] - self.x[ends])
        gap[ends == rows[:, None]] = np.inf
        return units[:, 1:-1], gap.min(axis=1, keepdims=True)

    def around(self, i, K):
        """The K points on each side of point i with the ties at either end
        of that window, and the bound."""
        xs, m, p = self.xs, self.where.size, self.pos[i]
        lo = xs.searchsorted(xs[max(p - K, 0)], "left")
        hi = xs.searchsorted(xs[min(p + K, m - 1)], "right")
        ends = [j for j in (lo - 1, hi) if 0 <= j < m]
        return self.where[None, lo:hi], np.square(self.x[i] - xs[ends]).min(initial=np.inf)


def _greedy_groups(points, k):
    """Repeatedly take the unmatched point farthest from its nearest unmatched
    neighbour and group it with its k-1 nearest unmatched neighbours, by
    exact squared distance. Distance ties break toward the lowest index.

    Each point keeps its nearest points in `_ranked` order, and a pointer to
    the first unmatched one. They come from the sort order in one column,
    from a table of every distance for at most _SCAN_MAX_POINTS points, and
    from a k-d tree beyond, which alone loads SciPy. Only points whose
    nearest neighbour was just matched move their pointer; one that runs
    off its list asks the source again, which is rebuilt over the unmatched
    points each time their count halves."""
    n = points.shape[0]
    if n <= k:
        return np.arange(n, dtype=np.intp).reshape(-1, k)
    if points.shape[1] == 0:
        points = np.zeros((n, 1))  # no columns: every distance is 0
    alive = bytearray(b"\x01") * n
    alive_np = np.frombuffer(alive, dtype=np.uint8)
    source = (_SortSource if points.shape[1] == 1 else
              _ScanSource if n <= _SCAN_MAX_POINTS else _TreeSource)(points, alive_np)
    rows = np.arange(n)
    cand, cdist = _ranked(points, rows, *source.near(rows, k + 4), alive_np)

    def refill(i, need):
        """List i's nearest unmatched points again, `need` of them or all."""
        K = 4 * need + 12
        while True:
            (row,), (rdist,) = _ranked(points, np.array([i]), *source.around(i, K), alive_np)
            if len(row) >= need or K >= source.where.size:
                cand[i], cdist[i], ptr[i] = row, rdist, 0
                return
            K *= 2

    ptr = [0] * n
    for i in range(n):
        if not len(cand[i]):  # ties at the end of the list hide the nearest
            refill(i, 1)
    nn = [row[0] for row in cand]
    nnd = [float(row[0]) for row in cdist]
    rev = [[] for _ in range(n)]
    for i, j in enumerate(nn):
        rev[j].append(i)
    heap = [(-d, i) for i, d in enumerate(nnd)]
    heapq.heapify(heap)

    groups = []
    remaining = n
    while remaining > k:
        key, a = heapq.heappop(heap)
        if not alive[a] or nnd[a] != -key:
            continue  # matched, or its nearest neighbour moved away since
        near = list(islice((j for j in islice(cand[a], ptr[a], None) if alive[j]), k - 1))
        if len(near) < k - 1:
            refill(a, k - 1)
            near = list(cand[a][:k - 1])
        members = [a] + near
        for j in members:
            alive[j] = 0
        groups.append(members)
        remaining -= k
        if 2 * remaining <= source.where.size:
            source.rebuild()
        for j in members:
            for i in rev[j]:
                if not alive[i] or nn[i] != j:
                    continue
                row, p = cand[i], ptr[i]
                while p < len(row) and not alive[row[p]]:
                    p += 1
                if p == len(row):
                    refill(i, 1)
                    p = 0
                ptr[i] = p
                nn[i], d = cand[i][p], float(cdist[i][p])
                rev[nn[i]].append(i)
                if d != nnd[i]:
                    nnd[i] = d
                    heapq.heappush(heap, (-d, i))
            rev[j] = None
    groups.append(np.flatnonzero(alive_np).tolist())
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
    psi = as_matrix(psi, "psi")
    n, d = psi.shape
    if n % cfg.k != 0:
        raise ConfigError(f"n={n} is not divisible by group size k={cfg.k}")
    cfg.check_dim(d)
    work = psi if cfg.psi_weights is None else psi * cfg.psi_weights[None, :]

    if cfg.method == "sorted-1d":
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
    psi = as_matrix(psi, "psi")
    G = partition.n_groups
    if G % 2 != 0:
        raise ConfigError(f"cannot pair an odd number of groups ({G})")
    centroids = psi[partition.groups].mean(axis=1)
    pairs = _greedy_groups(centroids, 2)
    rho = np.empty(G, dtype=np.intp)
    rho[pairs[:, 0]] = pairs[:, 1]
    rho[pairs[:, 1]] = pairs[:, 0]
    stat = float(
        np.einsum("gd,gd->", centroids - centroids[rho], centroids - centroids[rho])
    ) / partition.n
    return replace(partition, pairing=rho, pairing_stat=stat)


def design_partition(psi, cfg, rng=None):
    """The partition a design assigns within: one group of all n units when
    psi has no columns, else groups of k matched on (weighted) psi, paired
    on their centroids where ``collapsed_strata`` says so. An odd group
    count is refused before any matching or draw."""
    psi = as_matrix(psi, "psi")
    n, k, l = psi.shape[0], cfg.k, cfg.l
    if psi.shape[1] == 0:
        if n % k != 0:
            raise ConfigError(f"n={n} not divisible by k={k}")
        return GroupPartition(groups=np.arange(n)[None, :], k=n, l=n * l // k)
    collapse = collapsed_strata(n, k, l)
    partition = match_k_tuples(psi, cfg, rng)
    if collapse:
        work = psi if cfg.psi_weights is None else psi * cfg.psi_weights
        partition = pair_groups_by_centroid(partition, work)
    return partition
