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


def treated_slots(G, k, l, gen, size):
    """Slots (0..k-1) treated in `size` independent stratified draws over G
    groups of k units with l treated each, as a (size, G, l) array.

    Each group's treated slots come from a partial Fisher-Yates shuffle of
    its k slots (l swap rounds, round t drawing gen.integers(t, k) for every
    draw and group), which is exactly uniform over size-l subsets. On the
    identity permutation round 0's draw is slot 0's pick, so the permutation
    is built only when l >= 2: one (size * G, k) row per group and draw, in
    the smallest unsigned dtype that holds k - 1.
    """
    if l == 1:
        return gen.integers(0, k, size=(size, G))[:, :, None]
    perm = np.tile(np.arange(k, dtype=np.min_scalar_type(k - 1)), (size * G, 1))
    rows = np.arange(size * G)
    for t in range(l):
        j = gen.integers(t, k, size=size * G)
        tmp = perm[rows, j]
        perm[rows, j] = perm[:, t]
        perm[:, t] = tmp
    return perm[:, :l].reshape(size, G, l)


def treated_units_batch(groups, l, gen, size):
    """Draw `size` independent stratified assignments; returns the treated
    unit indices as a (size, G, l) array: the treated_slots draw looked up
    in each group's row of `groups`."""
    groups = np.asarray(groups)
    slots = treated_slots(*groups.shape, l, gen, size)
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
