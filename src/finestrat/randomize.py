"""Treatment assignment draws: within-group stratified and complete."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, as_generator, read_only


@dataclass(frozen=True)
class AssignmentDraw:
    d: np.ndarray
    draw_index: int = 1
    accepted: bool = True
    penalty: float | None = None
    penalties: np.ndarray | None = None  # rerandomize: every penalty scored, in draw order

    def __post_init__(self):
        object.__setattr__(self, "d", read_only(np.asarray(self.d, dtype=np.int8)))
        if self.penalties is not None:
            object.__setattr__(self, "penalties", read_only(np.asarray(self.penalties)))


def treated_slots(G, k, l, gen, size, rows):
    """Slots (0..k-1) treated in `size` independent stratified draws over G
    groups of k units with l treated each, yielded in draw order as chunks of
    near-equal size: (B, G, l) arrays with B <= rows.

    Each group's treated slots come from a partial Fisher-Yates shuffle of
    its k slots (l swap rounds, round t drawing gen.integers(t, k) for every
    draw and group), which is exactly uniform over size-l subsets. The stream
    is that of one integers call per round over all size * G (draw, group)
    pairs, whatever `rows` is: consecutive calls continue one stream. On the
    identity permutation round 0's draw is slot 0's pick, so for l = 1 each
    chunk is drawn when it is reached, and a consumer that stops early must
    still exhaust the iterator to leave `gen` where the whole draw would.
    For l >= 2 every round spans all size draws, so the permutation is built
    for all of them before the first chunk: one (size * G, k) row per group
    and draw, in the smallest unsigned dtype that holds k - 1, swapped in
    blocks of max(rows * G, 2**16) rows: few calls per round for few groups.
    """
    chunks = -(-size // rows)
    cuts = [size * c // chunks for c in range(chunks + 1)]
    if l == 1:
        for a, b in zip(cuts, cuts[1:]):
            yield gen.integers(0, k, size=(b - a, G))[:, :, None]
        return
    perm = np.empty((size * G, k), dtype=np.min_scalar_type(k - 1))
    perm[:] = np.arange(k)
    step = max(rows * G, 1 << 16)
    local = np.arange(min(step, size * G))
    for t in range(l):
        for start in range(0, size * G, step):
            block = perm[start:start + step]
            r = local[:block.shape[0]]
            j = gen.integers(t, k, size=r.size)
            tmp = block[r, j]
            block[r, j] = block[:, t]
            block[:, t] = tmp
    slots = perm[:, :l].reshape(size, G, l)
    for a, b in zip(cuts, cuts[1:]):
        yield slots[a:b]


def treated_units_batch(groups, l, gen, size):
    """Draw `size` independent stratified assignments; returns the treated
    unit indices as a (size, G, l) array: the treated_slots draw looked up
    in each group's row of `groups`."""
    groups = np.asarray(groups)
    (slots,) = treated_slots(*groups.shape, l, gen, size, size)
    return np.take_along_axis(groups[None], slots, axis=2)


def assignment_matrix_from_treated(treated, n):
    """Convert (size, G, l) treated indices to a (size, n) 0/1 matrix."""
    size = treated.shape[0]
    d = np.zeros((size, n), dtype=np.int8)
    d[np.arange(size)[:, None, None], treated] = 1
    return d


def draw_stratified(partition, rng):
    """Independently for each group, treat a uniformly random subset of l
    of its k units."""
    gen = as_generator(rng)
    treated = treated_units_batch(partition.groups, partition.l, gen, 1)
    d = assignment_matrix_from_treated(treated, partition.n)[0]
    return AssignmentDraw(d=d)


def draw_complete(n, p, rng):
    """Uniformly random treated subset of size n*p (must be an integer)."""
    m = n * p
    if abs(m - round(m)) > 1e-9:
        raise ConfigError(f"n*p = {m} is not an integer; complete randomization undefined")
    m = int(round(m))
    if not 0 < m < n:
        raise ConfigError(f"need 0 < n*p < n, got n*p = {m}")
    gen = as_generator(rng)
    d = np.zeros(n, dtype=np.int8)
    d[gen.permutation(n)[:m]] = 1
    return AssignmentDraw(d=d)
