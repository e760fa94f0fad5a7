import numpy as np
import pytest

from finestrat import (
    ConfigError,
    MatchConfig,
    RngSpec,
    coarse_strata,
    design_partition,
    match_k_tuples,
    pair_groups_by_centroid,
)
from finestrat import stratify
from finestrat.stratify import _ScanSource, _TreeSource


def _groups_as_sets(partition):
    return {frozenset(g) for g in partition.groups.tolist()}


def test_sorted_pairs_forced_by_gaps():
    part = match_k_tuples(np.array([0.0, 0.1, 5.0, 5.1]), MatchConfig(2, 1, method="sorted-1d"))
    assert _groups_as_sets(part) == {frozenset({0, 1}), frozenset({2, 3})}


def test_greedy_matches_obvious_clusters():
    psi = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    part = match_k_tuples(psi, MatchConfig(2, 1, method="greedy-nn"))
    assert _groups_as_sets(part) == {frozenset({0, 1}), frozenset({2, 3})}


def test_constant_psi_zero_homogeneity():
    part = match_k_tuples(np.zeros(6), MatchConfig(2, 1, method="sorted-1d"))
    assert part.homogeneity == 0.0
    assert part.n_groups == 3


def test_homogeneity_shrinks_with_n():
    # oracle: sorted matching of iid uniforms has per-pair gaps O(1/n^2),
    # n/2 of them, so the statistic is O(1/n); the 16x sample should beat
    # the 1x sample by far more than a factor 5
    rng = np.random.default_rng(11)
    stats = {}
    for n in (100, 400, 1600):
        vals = []
        for _ in range(200):
            psi = rng.random(n)
            part = match_k_tuples(psi, MatchConfig(2, 1, method="sorted-1d"))
            vals.append(part.homogeneity)
        stats[n] = np.mean(vals)
    assert stats[1600] / stats[100] < 0.2
    # empirical convergence rate at least n^{-0.8}
    slope = np.polyfit(np.log([100, 400, 1600]),
                       np.log([stats[100], stats[400], stats[1600]]), 1)[0]
    assert slope <= -0.8


def test_divisibility_and_method_errors():
    with pytest.raises(ConfigError, match="divisible"):
        match_k_tuples(np.arange(5.0), MatchConfig(2, 1, method="sorted-1d"))
    with pytest.raises(ConfigError, match="single psi column"):
        match_k_tuples(np.zeros((4, 2)), MatchConfig(2, 1, method="sorted-1d"))
    with pytest.raises(ConfigError, match="unknown matching method"):
        MatchConfig(2, 1, method="optimal")
    with pytest.raises(ConfigError, match="l <= k-1"):
        MatchConfig(2, 2)


def test_determinism():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal((60, 3))
    cfg = MatchConfig(3, 1, method="greedy-nn")
    a = match_k_tuples(psi, cfg, RngSpec(9))
    b = match_k_tuples(psi, cfg, RngSpec(9))
    np.testing.assert_array_equal(a.groups, b.groups)


def test_coarse_strata_within_cells():
    labels = np.array(["A", "A", "A", "A", "B", "B"])
    part = coarse_strata(labels, k=2, l=1, rng=RngSpec(3))
    for g in part.groups:
        assert len(set(labels[g])) == 1


def test_coarse_strata_single_cell_uniform_pairing():
    # oracle: with 4 units there are 3 perfect pairings, each with
    # probability 1/3 under uniform grouping
    seen = {}
    for s in range(3000):
        part = coarse_strata(np.zeros(4), k=2, l=1, rng=RngSpec(s))
        key = tuple(sorted(tuple(sorted(g)) for g in part.groups.tolist()))
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 3
    for count in seen.values():
        assert abs(count / 3000 - 1.0 / 3.0) < 0.05


def test_coarse_strata_indivisible_cell_message():
    with pytest.raises(ConfigError, match="cell A size 3 not divisible by 2"):
        coarse_strata(np.array(["A", "A", "A", "B", "B"]), k=2, l=1, rng=RngSpec(0))


def test_centroid_pairing_forced():
    part = coarse_strata(np.repeat([0, 1, 2, 3], 2), k=2, l=1, rng=RngSpec(1))
    # groups are the four cells; centroids 0, 1, 9, 9.1-like geometry
    psi = np.repeat([0.0, 0.1, 9.0, 9.1], 2)
    paired = pair_groups_by_centroid(part, psi)
    centroids = psi[paired.groups].mean(axis=1)
    partner = centroids[paired.pairing]
    for c, q in zip(centroids, partner):
        assert abs(c - q) < 1.0  # 0 with 0.1, 9 with 9.1


def test_centroid_pairing_two_groups_unique():
    part = coarse_strata(np.repeat([0, 1], 3), k=3, l=1, rng=RngSpec(2))
    paired = pair_groups_by_centroid(part, np.repeat([0.0, 1.0], 3))
    np.testing.assert_array_equal(paired.pairing, [1, 0])


def test_centroid_pairing_odd_count_error():
    part = coarse_strata(np.repeat([0, 1, 2], 2), k=2, l=1, rng=RngSpec(0))
    with pytest.raises(ConfigError, match="odd"):
        pair_groups_by_centroid(part, np.repeat([0.0, 1.0, 2.0], 2))


def test_pairing_stat_shrinks_with_group_count():
    rng = np.random.default_rng(17)
    stats = {}
    for G in (50, 200):
        vals = []
        for _ in range(100):
            psi = rng.random(2 * G)
            part = match_k_tuples(psi, MatchConfig(2, 1, method="sorted-1d"))
            vals.append(pair_groups_by_centroid(part, psi).pairing_stat)
        stats[G] = np.mean(vals)
    assert stats[200] < stats[50]


def test_random_within_cell_method():
    psi = np.repeat([1.0, 2.0], 4)
    part = match_k_tuples(psi, MatchConfig(2, 1, method="random-within-cell"), RngSpec(4))
    for g in part.groups:
        assert psi[g[0]] == psi[g[1]]


def _greedy_reference(points, k):
    """Greedy matching recomputing every nearest alive neighbor each step, on
    exact squared distances summed column by column."""
    dist = np.zeros((points.shape[0],) * 2)
    for c in range(points.shape[1]):
        dist += np.square(points[:, None, c] - points[None, :, c])
    alive = list(range(points.shape[0]))
    groups = []
    while len(alive) > k:
        nn = [min(dist[i, j] for j in alive if j != i) for i in alive]
        anchor = alive[int(np.argmax(nn))]
        rest = sorted((dist[anchor, j], j) for j in alive if j != anchor)
        members = [anchor] + [j for _, j in rest[:k - 1]]
        groups.append(members)
        alive = [i for i in alive if i not in members]
    groups.append(alive)
    return np.array(groups)


@pytest.mark.parametrize("k", [2, 3])
def test_greedy_matches_full_rescan_reference(k):
    for seed in range(5):
        psi = np.random.default_rng(seed).standard_normal((60, 2))
        part = match_k_tuples(psi, MatchConfig(k, 1, method="greedy-nn"))
        np.testing.assert_array_equal(part.groups, _greedy_reference(psi, k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_greedy_ties_break_toward_the_lowest_index(k):
    # 12k rows on a 3 x 3 grid: every point has many neighbors at the same
    # distance, so the order among tied neighbors decides nearly every group
    for seed in range(40):
        psi = np.random.default_rng(seed).integers(0, 3, size=(12 * k, 2)).astype(float)
        part = match_k_tuples(psi, MatchConfig(k, 1, method="greedy-nn"))
        np.testing.assert_array_equal(part.groups, _greedy_reference(psi, k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_greedy_matches_full_rescan_reference_in_one_column(k):
    # one column takes its candidates from the sort order, not a k-d tree
    for seed in range(5):
        psi = np.random.default_rng(seed).standard_normal((60, 1))
        part = match_k_tuples(psi, MatchConfig(k, 1, method="greedy-nn"))
        np.testing.assert_array_equal(part.groups, _greedy_reference(psi, k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_greedy_ties_break_toward_the_lowest_index_in_one_column(k):
    # duplicated values, equal spacing, and 0.1 * i, whose squared gaps
    # collide or split after rounding; the window's ends must not cut a tie
    for seed in range(20):
        gen = np.random.default_rng(seed)
        n = 12 * k
        for psi in (gen.integers(0, 4, size=n).astype(float), gen.permutation(n) * 1.0,
                    0.1 * gen.permutation(n), 0.1 * gen.integers(0, n // 2, size=n)):
            part = match_k_tuples(psi, MatchConfig(k, 1, method="greedy-nn"))
            np.testing.assert_array_equal(part.groups, _greedy_reference(psi[:, None], k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_greedy_without_columns_groups_by_index(k):
    # every distance is 0, so each anchor takes the lowest unmatched indices
    psi = np.zeros((12 * k, 0))
    part = match_k_tuples(psi, MatchConfig(k, 1, method="greedy-nn"))
    np.testing.assert_array_equal(part.groups, _greedy_reference(psi, k))
    assert part.homogeneity == 0.0


def _hard_points(gen, n):
    """Inputs on which a rounding margin may be too thin: far from the origin
    in 3 and 5 columns, a 4-value grid in 5 columns (ties), and points
    1e8 from the origin and about 1 apart, where a Gram table of the raw
    points would lose every digit, and one of the centred points few."""
    return (1e6 + 1e3 * gen.standard_normal((n, 3)), 1e6 + 1e3 * gen.standard_normal((n, 5)),
            gen.integers(0, 4, size=(n, 5)) * 1.0, 1e8 + gen.standard_normal((n, 3)))


@pytest.mark.parametrize("source", [_TreeSource, _ScanSource])
def test_candidate_bounds_hold_every_point_left_out(source):
    # the matcher trusts a candidate list up to its bound: no point of the
    # source (matched since the last rebuild or not) may lie nearer and be
    # left out. Rounded Cauchy values give ties, gaps and long tails
    for case in range(5):
        gen = np.random.default_rng(4 + case)
        points = (_hard_points(gen, 400)[case - 1] if case
                  else np.round(gen.standard_cauchy((400, 2)), 1))
        alive = (gen.random(400) < 0.7).astype(np.uint8)
        src = source(points, alive)
        alive[gen.random(400) < 0.3] = 0
        rows = np.flatnonzero(alive)

        def exact(i, idx):
            ex = np.square(points[idx, 0] - points[i, 0])
            for c in range(1, points.shape[1]):
                ex += np.square(points[idx, c] - points[i, c])
            return ex

        def assert_bound(i, idx, bound):
            assert (exact(i, np.setdiff1d(src.where, idx)) >= bound).all()

        for K in (2, 5, 16):
            idx, bound = src.near(rows, K)
            bound = np.broadcast_to(bound, (rows.size, 1))[:, 0]
            for r, i in enumerate(rows):
                assert_bound(i, idx[r], bound[r])
                assert_bound(i, *src.around(i, K))
            if K > 2 and case in (1, 2, 4):  # no ties: each list reaches past the nearest
                nearest = [exact(i, np.setdiff1d(src.where, i)).min() for i in rows]
                assert (bound > nearest).all()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_every_candidate_source_gives_the_same_groups(monkeypatch, k):
    # n just below and just above the size up to which several columns scan
    # a distance table; integer grids tie nearly every distance. One column
    # goes to the linked list; beside a column of zeros, which adds 0 to
    # every squared distance, the same column goes to each source
    cut = stratify._SCAN_MAX_POINTS
    gen = np.random.default_rng(k)
    for n in (cut // k * k, (cut // k + 1) * k):
        for psi in (gen.standard_normal((n, 3)), gen.integers(0, 4, size=(n, 2)) * 1.0,
                    gen.standard_normal((n, 1)), gen.integers(0, 9, size=(n, 1)) * 1.0,
                    *_hard_points(np.random.default_rng(10 + k), n)):
            dispatched = stratify._greedy_groups(psi, k)
            if psi.shape[1] == 1:
                psi = np.c_[psi, np.zeros(n)]
            for source in (_ScanSource, _TreeSource):
                for name in ("_ScanSource", "_TreeSource"):
                    monkeypatch.setattr(stratify, name, source)
                np.testing.assert_array_equal(stratify._greedy_groups(psi, k), dispatched)
            monkeypatch.undo()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tie_heavy_column_gives_the_tree_groups(k):
    # about 2000 points on few values, so nearly every distance ties and runs
    # of equal values are long: integer ages, a 4-value grid, tenths, each
    # value k times, and values whose squared gaps round (near 1e16) or
    # underflow (near 1e-200) to one distance, so that a tie spans several
    # runs; the tree sees the same column beside zeros
    gen = np.random.default_rng(40 + k)
    n = 2000 // k * k
    assert n > stratify._SCAN_MAX_POINTS  # so two columns go to the tree
    rounded = np.r_[np.arange(4.0), 1e16 + 2 * np.arange(4), 1e-200 * np.arange(1, 4)]
    for psi in (gen.integers(18, 91, n) * 1.0, gen.integers(0, 4, n) * 1.0,
                0.1 * gen.integers(0, 60, n), gen.permutation(np.arange(n) // k) * 1.0,
                gen.choice(rounded, n)):
        np.testing.assert_array_equal(stratify._greedy_groups(psi[:, None], k),
                                      stratify._greedy_groups(np.c_[psi, np.zeros(n)], k))


def _traced_peak(fn, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_greedy_matching_holds_no_distance_matrix():
    # an n x n float64 matrix would be 3.2 GB at n = 20000
    n = 20000
    psi = np.random.default_rng(3).standard_normal((n, 3))
    part, peak = _traced_peak(match_k_tuples, psi, MatchConfig(2, 1, method="greedy-nn"))
    assert np.array_equal(np.sort(part.groups.ravel()), np.arange(n))
    assert peak < 0.01 * n * n * 8


def test_centroid_pairing_of_16386_centroids_holds_no_matrix():
    # 16386 equally spaced centroids, each with two neighbors at the same
    # distance; their n x n float64 matrix would be 2.1 GB
    G = 16386
    psi = np.arange(2.0 * G)
    part = match_k_tuples(psi, MatchConfig(2, 1, method="sorted-1d"))
    paired, peak = _traced_peak(pair_groups_by_centroid, part, psi)
    rho = paired.pairing
    np.testing.assert_array_equal(rho[rho], np.arange(G))
    assert (rho != np.arange(G)).all()
    assert np.isfinite(paired.pairing_stat)
    assert peak < 0.01 * G * G * 8


def _design_reference(psi, cfg, rng):
    part = match_k_tuples(psi, cfg, rng)
    work = psi if cfg.psi_weights is None else psi * cfg.psi_weights
    return pair_groups_by_centroid(part, work)


@pytest.mark.parametrize("method,d", [("greedy-nn", 3), ("sorted-1d", 1),
                                      ("random-within-cell", 2)])
@pytest.mark.parametrize("weighted", [False, True])
def test_design_partition_is_match_then_pair(method, d, weighted):
    gen = np.random.default_rng(8)
    psi = gen.standard_normal((120, d))
    if method == "random-within-cell":
        psi = np.repeat(gen.integers(0, 3, size=(30, d)).astype(float), 4, axis=0)
    weights = np.linspace(1.0, 2.0, d) if weighted else None
    cfg = MatchConfig(2, 1, psi_weights=weights, method=method)
    got = design_partition(psi, cfg, RngSpec(6))
    ref = _design_reference(psi, cfg, RngSpec(6))
    for attr in ("groups", "pairing"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(ref, attr))
    assert (got.homogeneity, got.pairing_stat) == (ref.homogeneity, ref.pairing_stat)
    # groups with two or more units per arm need no pairing
    cfg = MatchConfig(4, 2, psi_weights=weights, method=method)
    got = design_partition(psi, cfg, RngSpec(6))
    np.testing.assert_array_equal(got.groups, match_k_tuples(psi, cfg, RngSpec(6)).groups)
    assert got.pairing is None


def test_design_partition_without_psi_is_one_group():
    part = design_partition(np.zeros((12, 0)), MatchConfig(4, 1), RngSpec(0))
    np.testing.assert_array_equal(part.groups, np.arange(12)[None, :])
    assert (part.k, part.l, part.pairing) == (12, 3, None)
    with pytest.raises(ConfigError, match="n=10 not divisible by k=4"):
        design_partition(np.zeros((10, 0)), MatchConfig(4, 1))


def test_design_partition_refuses_odd_group_count_before_matching(monkeypatch):
    def no_match(*args):
        raise AssertionError("matched before the group count was checked")

    monkeypatch.setattr("finestrat.stratify.match_k_tuples", no_match)
    with pytest.raises(ConfigError, match=r"n=100 .*k=4 .*odd number of groups \(25\)"):
        design_partition(np.arange(100.0), MatchConfig(4, 1, method="sorted-1d"))
    with pytest.raises(ConfigError, match=r"odd number of groups \(25\)"):
        design_partition(np.arange(100.0), MatchConfig(4, 3, method="sorted-1d"))
    with pytest.raises(AssertionError):  # two treated and two controls: no pairing
        design_partition(np.arange(100.0), MatchConfig(4, 2, method="sorted-1d"))
