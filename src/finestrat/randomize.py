"""Treatment assignment draws: within-group stratified and complete."""

from __future__ import annotations

import sys
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


def _word_source(gen, low, high):
    """gen's PCG64 when gen.integers(low, high) reads its draws straight off
    the 64-bit outputs, else None.

    NumPy maps each 32-bit word w to low + (w * m) >> 32, m = high - low,
    redrawing only where that is biased, which for a power of two m it
    never is: each value is w's top log2(m) bits. PCG64 hands out each
    output as two words, the low half first, and holds the high half
    (``has_uint32``, ``uinteger``) for the next call.
    """
    bg = gen.bit_generator
    m = high - low
    if (type(bg) is np.random.PCG64 and sys.byteorder == "little"
            and 0 <= low and high <= 1 << 32 and 1 < m and m & (m - 1) == 0):
        return bg
    return None


def _take_words(bg, count, keep=True):
    """The next `count` 32-bit words of PCG64 `bg`, in the order `count`
    next_uint32 calls hand them out, leaving its state dict where those
    calls would: the held half first, then one random_raw call's outputs.
    With keep=False they are jumped over by an advance, not drawn."""
    state = bg.state
    held = min(state["has_uint32"], count)
    first = np.full(held, state["uinteger"], dtype=np.uint32)
    outputs = (count - held + 1) // 2
    if not outputs:
        state["has_uint32"] -= held
        bg.state = state
        return first
    if keep:
        raw = bg.random_raw(outputs)
    else:
        bg.advance(outputs - 1)
        raw = bg.random_raw(1)
    state = bg.state
    state["has_uint32"] = (count - held) % 2
    state["uinteger"] = int(raw[-1] >> np.uint64(32))
    bg.state = state
    words = raw.view(np.uint32)[:count - held]
    return np.concatenate([first, words]) if held else words


def _integers(gen, low, high, shape):
    """gen.integers(low, high, size=shape), value for value, leaving gen in
    the same state. From a PCG64 and a power of two high - low the values
    are uint32 words shifted in place."""
    bg = _word_source(gen, low, high)
    if bg is None:
        return gen.integers(low, high, size=shape)
    words = _take_words(bg, int(np.prod(shape)))
    words >>= 33 - (high - low).bit_length()
    if low:
        words += low
    return words.reshape(shape)


def skip_integers(gen, low, high, size):
    """Leave gen where gen.integers(low, high, size=size) would, without
    drawing the values: True when a PCG64 jump did it, False (gen
    untouched) where the number of words the call takes depends on them."""
    bg = _word_source(gen, low, high)
    if bg is not None:
        _take_words(bg, size, keep=False)
    return bg is not None


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
    chunk is drawn when it is reached. Closed early, a started iterator
    leaves `gen` where the whole draw would: for l = 1 it jumps over the
    words not drawn (skip_integers) or, where that declines, draws them
    chunk by chunk. An iterator never started draws nothing.
    For l >= 2 every round spans all size draws, so the permutation is built
    for all of them before the first chunk: one (size * G, k) row per group
    and draw, in the smallest unsigned dtype that holds k - 1, swapped in
    blocks of max(rows * G, 2**16) rows: few calls per round for few groups.
    """
    chunks = -(-size // rows)
    cuts = [size * c // chunks for c in range(chunks + 1)]
    if l == 1:
        for c in range(chunks):
            try:
                yield _integers(gen, 0, k, (cuts[c + 1] - cuts[c], G))[:, :, None]
            except GeneratorExit:
                if not skip_integers(gen, 0, k, (size - cuts[c + 1]) * G):
                    for a, b in zip(cuts[c + 1:], cuts[c + 2:]):
                        _integers(gen, 0, k, (b - a, G))
                raise
        return
    perm = np.empty((size * G, k), dtype=np.min_scalar_type(k - 1))
    perm[:] = np.arange(k)
    step = max(rows * G, 1 << 16)
    local = np.arange(min(step, size * G))
    for t in range(l):
        for start in range(0, size * G, step):
            block = perm[start:start + step]
            r = local[:block.shape[0]]
            j = _integers(gen, t, k, r.size)
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
