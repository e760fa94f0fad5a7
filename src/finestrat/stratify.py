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
# table for (at most 0.8 MB); more go to a k-d tree. At 320 points a scan takes
# 0.9-1.0 times the tree's time per call in 3 and 5 columns, and needs no
# SciPy (about 0.3 s to load); at 640 and 1000 points it takes 1.5-1.6 times,
# at 2000 2.8-3.1 (best of 9, the two interleaved, SciPy loaded)
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


def _squared(points, a, b):
    """Exact squared distances between the points indexed by a and by b
    (broadcast), the squares added column by column in order, so every call
    gives the same bits."""
    cols = points.T
    ex = np.square(cols[0][a] - cols[0][b])
    for col in cols[1:]:
        ex += np.square(col[a] - col[b])
    return ex


def _ranked(points, rows, idx, bound, alive):
    """Sort each row's candidates idx by (exact squared distance, index),
    keeping the entries below the row's bound and dropping the row itself
    and matched points, as Python lists."""
    ex = _squared(points, rows[:, None], idx)
    ex[(idx == rows[:, None]) | (alive[idx] == 0)] = np.inf
    order = np.arange(rows.size)[:, None], np.lexsort((idx, ex))
    idx, ex = idx[order], ex[order]
    kept = (ex < bound).sum(axis=1)
    # rows mostly keep one count: cut at the least in one call, then lengthen the rest
    c = kept.min()
    cand, dist = idx[:, :c].tolist(), ex[:, :c].tolist()
    for r in np.flatnonzero(kept > c).tolist():
        cand[r], dist[r] = idx[r, :kept[r]].tolist(), ex[r, :kept[r]].tolist()
    return cand, dist


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
    """Candidates from one table of every squared distance, through the Gram
    identity |a|^2 + |b|^2 - 2 a.b on the column-centred points: one matrix
    product. The table only filters; `_ranked` ranks by the exact distances,
    which alone decide. For few points a scan of the table costs about what a
    k-d tree's queries do, and needs no SciPy; the table is n * n * 8 bytes.

    Each bound is a table value less a slack that covers the rounding of
    both. With u = 2**-53, d columns and s_i the squared norm of centred
    point i, entry (i, j) differs from the real squared distance of the
    given points by at most 4u(s_i + s_j) from centring, 2du(s_i + s_j) from
    the norms and the product (Higham 2002, 3.1, in any order of summation)
    and 4u(s_i + s_j) from the two additions; `_ranked`'s sum differs from
    it by at most 2(d + 2)u(s_i + s_j), to first order in du. That is
    4(d + 3)u(s_i + s_j) in all, and the slack, 16(d + 4)u(s_i + max_j s_j),
    is over four times it. Near underflow each product may also be off by
    half the least subnormal, which the slack's added 16(d + 4) * 2**-1074
    covers. Where the norms overflow, the slack is inf or nan, no candidate
    is kept, and each point asks `around` again."""

    def __init__(self, points, alive):
        self.points, self.alive = points, alive
        c = points - points.mean(axis=0)
        sq = np.einsum("ij,ij->i", c, c)
        self.table = c @ c.T
        self.table *= -2.0
        self.table += sq[:, None]
        self.table += sq
        self.slack = 16 * (points.shape[1] + 4) * (2.0**-53 * (sq + sq.max()) + 2.0**-1074)
        self.rebuild()

    def rebuild(self):
        self.where = np.flatnonzero(self.alive)

    def near(self, rows, K):
        """Each row's at most K points below its (K+1)-th table value, padded
        with the row itself, and its bound: that value less the slack."""
        m = self.where.size
        if K >= m:
            return np.broadcast_to(self.where, (rows.size, m)), np.inf
        # before the first match every point is listed in order: no submatrix to copy
        whole = m == len(self.table) and np.array_equal(rows, self.where)
        sub = self.table if whole else self.table[np.ix_(rows, self.where)]
        cut = np.partition(sub, K, axis=1)[:, K:K + 1]
        r, c = np.divmod(np.flatnonzero(sub < cut), m)
        counts = np.bincount(r, minlength=rows.size)
        idx = np.repeat(rows[:, None], K, axis=1)
        idx[r, np.arange(r.size) - np.repeat(np.cumsum(counts) - counts, counts)] = self.where[c]
        return idx, cut - self.slack[rows, None]

    def around(self, i, K):
        """Every point at or below point i's K-th exact distance, and the bound."""
        if K >= self.where.size:
            return self.where[None, :], np.inf
        row = _squared(self.points, i, self.where)
        r = np.partition(row, K - 1)[K - 1]
        return self.where[None, row <= r], np.nextafter(r, np.inf)


def _column_groups(x, k):
    """`_greedy_groups` in one column x. In floats (a - b)**2 never decreases
    as b walks away from a in the stable sort order, so a point's nearest
    unmatched distance is the smaller to its two unmatched neighbours in a
    doubly linked list over that order, and a match changes it only for the
    at most 2k points next to a member. An anchor's members are resolved
    walking outward, one shell of equal distance at a time, which may span
    several runs of equal values.

    The sort orders each run by index, so a shell's lowest indices lie at
    the fronts of its runs, and the first unmatched position of each run is
    kept: a shell costs O(k) per run in it, however long the runs. A run's
    last position is matched only with the whole run, as members come from
    the front and an anchor with unmatched run-mates has the lowest
    unmatched index of all. The list, the runs and the distances are held
    by position in the sort order, where neighbours lie close in memory."""
    n = x.size
    order = np.argsort(x, kind="stable")
    xs = x[order]
    gap = np.square(np.diff(xs))
    nnd = np.minimum(np.append(np.inf, gap), np.append(gap, np.inf)).tolist()
    starts = np.append(True, xs[1:] != xs[:-1])  # where each run of equal values starts
    run = (np.cumsum(starts) - 1).tolist()
    head = np.flatnonzero(starts).tolist()
    tail = np.flatnonzero(np.append(starts[1:], True)).tolist()
    # position n, at +inf, closes the list into a ring
    xs = xs.tolist() + [np.inf]
    nxt, prv = [*range(1, n + 1), 0], [n, *range(n)]
    alive = bytearray(b"\x01") * n + b"\x00"
    pos = np.argsort(order).tolist()
    order = order.tolist()
    heap = [(-d, i) for i, d in zip(order, nnd)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush

    groups = []
    remaining = n
    while remaining > k:
        key, a = pop(heap)
        pa = pos[a]
        if not alive[pa] or nnd[pa] != -key:
            continue  # matched, or its nearest neighbour moved away since
        members, need, xa = [pa], k - 1, xs[pa]
        lf, rf = prv[pa], nxt[pa]
        while need:
            # the next shell: every unmatched point at the nearest distance left
            dl = (xa - xs[lf]) * (xa - xs[lf])
            dr = (xa - xs[rf]) * (xa - xs[rf])
            d = dl if dl < dr else dr
            runs = []  # the first and last unmatched position of each run in it
            while dl == d and lf != n:
                first = head[run[lf]]
                runs.append((first, lf))
                lf = prv[first]
                dl = (xa - xs[lf]) * (xa - xs[lf])
            while dr == d and rf != n:
                last = tail[run[rf]]
                runs.append((rf, last))
                rf = nxt[last]
                dr = (xa - xs[rf]) * (xa - xs[rf])
            got = []
            for p, last in runs:
                for _ in range(need):
                    got.append(p)
                    if p == last:
                        break
                    p = nxt[p]
            if len(runs) > 1:
                got.sort(key=order.__getitem__)  # the lowest indices of the shell
            members += got[:need]
            need = max(need - len(got), 0)
        for p in members:
            alive[p] = 0
        touched = []
        for p in members:
            l, r = prv[p], nxt[p]
            nxt[l], prv[r] = r, l
            if head[run[p]] == p:
                head[run[p]] = r
            touched += l, r
        for p in touched:
            if alive[p]:
                xp, xl, xr = xs[p], xs[prv[p]], xs[nxt[p]]
                dl, dr = (xp - xl) * (xp - xl), (xp - xr) * (xp - xr)
                d = dl if dl < dr else dr
                if d != nnd[p]:
                    nnd[p] = d
                    push(heap, (-d, order[p]))
        groups.append([order[p] for p in members])
        remaining -= k
    rest, p = [], nxt[n]
    while p != n:
        rest.append(order[p])
        p = nxt[p]
    groups.append(sorted(rest))
    return np.asarray(groups, dtype=np.intp)


def _greedy_groups(points, k):
    """Repeatedly take the unmatched point farthest from its nearest unmatched
    neighbour and group it with its k-1 nearest unmatched neighbours, by
    exact squared distance. Distance ties break toward the lowest index.

    One column (none is one column of zeros: every distance is 0) goes to
    `_column_groups`. In two or more, each point keeps its nearest points in
    `_ranked` order, and a pointer to the first unmatched one. They come
    from a table of every distance for at most _SCAN_MAX_POINTS points, and
    from a k-d tree beyond, which alone loads SciPy. Only points whose
    nearest neighbour was just matched move their pointer; one that runs
    off its list asks the source again, which is rebuilt over the unmatched
    points each time their count halves."""
    n = points.shape[0]
    if n <= k:
        return np.arange(n, dtype=np.intp).reshape(-1, k)
    if points.shape[1] <= 1:
        return _column_groups(points[:, 0] if points.shape[1] else np.zeros(n), k)
    alive = bytearray(b"\x01") * n
    alive_np = np.frombuffer(alive, dtype=np.uint8)
    source = (_ScanSource if n <= _SCAN_MAX_POINTS else _TreeSource)(points, alive_np)
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
    nnd = [row[0] for row in cdist]
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
            near = cand[a][:k - 1]
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
                nn[i], d = cand[i][p], cdist[i][p]
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
