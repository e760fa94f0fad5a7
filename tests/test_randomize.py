import itertools

import numpy as np
import pytest

from finestrat import (
    ConfigError,
    GroupPartition,
    RngSpec,
    draw_complete,
    draw_stratified,
)
from finestrat.randomize import _integers, _word_source, skip_integers, treated_slots


def _pairs_partition(n):
    return GroupPartition(groups=np.arange(n).reshape(-1, 2), k=2, l=1)


def test_one_treated_per_pair():
    part = _pairs_partition(20)
    draw = draw_stratified(part, RngSpec(0))
    assert draw.d.sum() == 10
    for g in part.groups:
        assert draw.d[g].sum() == 1


def test_triple_marginals_uniform():
    # oracle: enumerating the 3 size-1 subsets of a triple gives each unit
    # treatment probability exactly 1/3
    part = GroupPartition(groups=np.array([[0, 1, 2]]), k=3, l=1)
    gen = RngSpec(1).generator()
    counts = np.zeros(3)
    reps = 30000
    for _ in range(reps):
        counts += draw_stratified(part, gen).d
    for j in range(3):
        assert abs(counts[j] / reps - 1.0 / 3.0) < 0.01


def test_pairs_joint_patterns_independent():
    # oracle: 2 groups x 2 choices = 4 equally likely joint patterns
    part = _pairs_partition(4)
    gen = RngSpec(2).generator()
    freq = {}
    reps = 30000
    for _ in range(reps):
        key = tuple(draw_stratified(part, gen).d.tolist())
        freq[key] = freq.get(key, 0) + 1
    assert len(freq) == 4
    for count in freq.values():
        assert abs(count / reps - 0.25) < 0.01


def test_draw_complete_two_units():
    gen = RngSpec(3).generator()
    seen = set()
    for _ in range(50):
        seen.add(tuple(draw_complete(2, 0.5, gen).d.tolist()))
    assert seen == {(1, 0), (0, 1)}


def test_draw_complete_uniform_over_patterns():
    # oracle: itertools.combinations(4, 2) enumerates exactly 6 patterns
    patterns = {tuple(1 if i in c else 0 for i in range(4))
                for c in itertools.combinations(range(4), 2)}
    assert len(patterns) == 6
    gen = RngSpec(4).generator()
    freq = dict.fromkeys(patterns, 0)
    reps = 60000
    for _ in range(reps):
        freq[tuple(draw_complete(4, 0.5, gen).d.tolist())] += 1
    for count in freq.values():
        assert abs(count / reps - 1.0 / 6.0) < 0.01


def test_draw_complete_non_integer_np():
    with pytest.raises(ConfigError, match="not an integer"):
        draw_complete(10, 0.25, RngSpec(0))


def test_treated_count_exact():
    part = GroupPartition(groups=np.arange(12).reshape(-1, 4), k=4, l=3)
    for s in range(5):
        assert draw_stratified(part, RngSpec(s)).d.sum() == 9
    assert draw_complete(12, 0.25, RngSpec(0)).d.sum() == 3


def test_within_group_marginal_binomial_bound():
    part = GroupPartition(groups=np.arange(8).reshape(-1, 4), k=4, l=1)
    gen = RngSpec(6).generator()
    reps = 20000
    counts = np.zeros(8)
    for _ in range(reps):
        counts += draw_stratified(part, gen).d
    se = np.sqrt(0.25 * 0.75 / reps)
    assert np.all(np.abs(counts / reps - 0.25) < 3 * se + 1e-9)


# -- the PCG64 word source against Generator.integers ----------------------

_RANGES = [(0, 2), (0, 3), (1, 4), (0, 4), (2, 4), (0, 8), (3, 7), (0, 64)]


def _primed_pair(held):
    # two equal generators after `held` one-bit draws: an odd count leaves
    # the high half of an output held for the next call
    gens = RngSpec(60, held).generator(), RngSpec(60, held).generator()
    for gen in gens:
        gen.integers(0, 2, size=held)
    return gens


@pytest.mark.parametrize("low,high", _RANGES)
@pytest.mark.parametrize("held", range(4))
def test_word_source_matches_integers(low, high, held):
    gen, ref = _primed_pair(held)
    # each size alone, then odd sizes chained so every call starts on
    # both a held and a fresh half
    for size in (0, 1, 2, 3, 7, 1000, 4651, (3, 5), (7, 1), 0, 1, 3):
        values = _integers(gen, low, high, size)
        expect = ref.integers(low, high, size=size)
        assert values.shape == expect.shape
        np.testing.assert_array_equal(values, expect)
        assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("held", range(4))
@pytest.mark.parametrize("count", [0, 1, 2, 3, 10, 11, 4651, 4652])
def test_jump_lands_where_the_draw_would(held, count):
    for high in (2, 4, 64):
        gen, ref = _primed_pair(held)
        assert skip_integers(gen, 0, high, count)
        ref.integers(0, high, size=count)
        assert gen.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(_integers(gen, 0, 3, 9), ref.integers(0, 3, size=9))


def test_other_ranges_and_generators_keep_integers():
    # the fallback is integers itself, and a jump declines without drawing
    gen = RngSpec(61).generator()
    state = gen.bit_generator.state
    assert not skip_integers(gen, 0, 3, 100)
    assert gen.bit_generator.state == state
    for bit_generator in (np.random.Philox(62), np.random.MT19937(62)):
        gen = np.random.Generator(bit_generator)
        assert _word_source(gen, 0, 2) is None
        assert not skip_integers(gen, 0, 2, 100)


def test_rng_spec_takes_the_word_source():
    # the fast path is what every RngSpec draw of pairs goes through
    assert _word_source(RngSpec(63, 2).generator(), 0, 2) is not None
    assert _word_source(RngSpec(63).generator(), 0, 4) is not None


@pytest.mark.parametrize("k,l", [(2, 1), (4, 1), (3, 1), (4, 2)])
def test_treated_slots_are_uniform_over_every_pattern(k, l):
    # (2, 1) and (4, 1) read raw PCG64 words, (3, 1) and the second round
    # of (4, 2) call integers; drawn in chunks, every size-l set of slots is
    # equally likely. Pearson's chi-square over the C(k, l) patterns at level
    # 2.5e-5 in each case: a correct sampler fails the four on about one seed
    # in 10^4
    from scipy.special import chdtri  # the chi-square upper quantile

    G, size = 100, 4000
    slots = np.concatenate(list(treated_slots(G, k, l, RngSpec(64).generator(), size, 1500)))
    masks = np.left_shift(1, slots.astype(np.int64)).sum(axis=2).ravel()
    patterns = [sum(1 << s for s in p) for p in itertools.combinations(range(k), l)]
    counts = np.bincount(masks, minlength=1 << k)
    assert counts[patterns].sum() == G * size  # no other set, no slot twice
    expect = G * size / len(patterns)
    chi2 = float(np.sum((counts[patterns] - expect) ** 2) / expect)
    assert chi2 < chdtri(len(patterns) - 1, 2.5e-5)


def _slot_streams(held):
    # two equal generators: PCG64 primed with `held` one-bit draws, or Philox
    if held is None:
        return np.random.Generator(np.random.Philox(65)), np.random.Generator(np.random.Philox(65))
    return _primed_pair(held)


@pytest.mark.parametrize("held", [0, 1, 2, 3, None], ids=["pcg0", "pcg1", "pcg2", "pcg3", "philox"])
@pytest.mark.parametrize("k,l", [(2, 1), (4, 1), (8, 1), (3, 1), (4, 2)])
def test_closed_slots_leave_the_stream_where_the_whole_draw_does(k, l, held):
    # 10 chunks of 3-4 draws over 5 groups: closed after 1, 2 or 9 chunks,
    # the iterator has yielded what exhausting it yields and leaves gen in
    # the same state, jumped (PCG64 words) or drawn (k = 3, Philox)
    G, size, rows = 5, 37, 4
    for taken in (1, 2, 9):
        gen, ref = _slot_streams(held)
        full = list(treated_slots(G, k, l, ref, size, rows))
        assert len(full) == 10
        chunks = treated_slots(G, k, l, gen, size, rows)
        for want in full[:taken]:
            np.testing.assert_array_equal(next(chunks), want)
        chunks.close()
        np.testing.assert_equal(gen.bit_generator.state, ref.bit_generator.state)
        np.testing.assert_array_equal(gen.integers(0, 5, size=9), ref.integers(0, 5, size=9))
    # an iterator that was never started draws nothing
    gen, ref = _slot_streams(held)
    treated_slots(G, k, l, gen, size, rows).close()
    np.testing.assert_equal(gen.bit_generator.state, ref.bit_generator.state)
