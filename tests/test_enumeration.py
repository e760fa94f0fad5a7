"""Exact finite-sample checks by enumerating every assignment of a small design."""

from fractions import Fraction

import numpy as np
import pytest

from finestrat import (
    CovariateTable,
    ExperimentFrame,
    GroupPartition,
    MahalanobisRegion,
    PolarRegion,
    score_sate,
    solve_gmm,
)
from finestrat.rerandomize import _bind, _scorer

# 8 matched pairs: 2^8 = 256 assignments. Outcomes and balance covariates are
# multiples of 1/4, so every estimate, statistic and sum below is exact.
_G = 8
_N = 2 * _G
_GEN = np.random.default_rng(2012)
_Y0 = _GEN.integers(-8, 9, _N) / 4
_Y1 = _Y0 + _GEN.integers(0, 9, _N) / 4  # heterogeneous effects, tau_bar > 0
_H = _GEN.integers(-8, 9, (_N, 2)) / 4
_PARTITION = GroupPartition(groups=np.arange(_N).reshape(_G, 2), k=2, l=1)
# draw b treats slot (b >> g) & 1 of pair g
_SLOTS = ((np.arange(2 ** _G)[:, None] >> np.arange(_G)) & 1)[:, :, None]


def _sate_estimates():
    """solve_gmm's sate estimate for each of the 256 assignments."""
    out = []
    for slots in _SLOTS:
        d = np.zeros(_N, dtype=np.int64)
        d[_PARTITION.groups[np.arange(_G), slots[:, 0]]] = 1
        table = CovariateTable(psi=np.zeros((_N, 1)), h=_H, w=None, x=None, ids=None)
        frame = ExperimentFrame(covariates=table, d=d, p=0.5, y=np.where(d == 1, _Y1, _Y0))
        out.append(Fraction(float(solve_gmm(frame, score_sate()).theta[0])))
    return out


_TAU = Fraction(float(np.mean(_Y1 - _Y0)))


@pytest.mark.parametrize("region", [
    None,
    MahalanobisRegion(eps2=1.5),
    PolarRegion.ball(2, 2.0),
    PolarRegion.rectangle(-np.ones(2), np.ones(2), eps=2.6),
], ids=["all", "mahalanobis", "ball", "box"])
def test_sate_is_exactly_unbiased_over_the_accepted_assignments(region):
    """The sum of the sate estimate over the accepted assignments equals
    count * tau_bar exactly, for every assignment and for a Mahalanobis, a
    ball and a box region at fixed thresholds.

    Each penalty is a function of the balance statistic T, and these are
    symmetric in T, which changes sign under d -> 1 - d; so the accepted set
    is closed under that swap. With k = 2l the two draws' estimates average to
    tau_bar, so the rerandomized difference in means is unbiased for it
    (Morgan & Rubin 2012, Ann. Stat., Theorem 2.1).
    """
    thetas = _sate_estimates()
    if region is None:
        accepted = np.ones(len(thetas), dtype=bool)
    else:
        bound = _bind(region, _PARTITION, _H)
        accepted = bound.accepts(_scorer(bound, _PARTITION)(_SLOTS))
        assert 0 < accepted.sum() < len(thetas)
    swap = (2 ** _G - 1) - np.arange(2 ** _G)  # the draw treating the other unit of each pair
    assert (accepted[swap] == accepted).all()
    count = int(accepted.sum())
    assert sum(t for t, ok in zip(thetas, accepted) if ok) == count * _TAU
