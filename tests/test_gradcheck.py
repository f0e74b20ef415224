import numpy as np
import pytest

from lane3d_kit.gradcheck import _draw_instance
from lane3d_kit.losses import LossConfig

# (M, N), then the sums of the GT x, z and visibility rows, of the proposal
# rows and of the y grid, of the first three instances drawn for seed 0.
SEED_0_INSTANCES = [
    ((3, 3), 60.792988184233415, -1.8901648430385527, 5.0, 63.7142011606078, 16.90711814467185),
    ((2, 4), 60.09447611624083, 0.12840057536913088, 7.0, 64.06343290780353, 27.178836433727586),
    ((3, 5), 107.5887570063191, -0.9320193283280249, 13.0, 113.38275183836194, 36.03885896921155),
]


def test_grad_check_draws_the_same_instances_for_seed_0():
    # The grad-check golden prints only the worst relative error, which does
    # not tell these instances apart; this pins the draws themselves.
    rng = np.random.default_rng(0)
    for shape, *sums in SEED_0_INSTANCES:
        gt, pred, y = _draw_instance(rng, LossConfig().tau)
        assert gt.shape == pred.shape == (3, *shape) and y.shape == (shape[1],)
        got = [gt[0].sum(), gt[1].sum(), gt[2].sum(), pred.sum(), y.sum()]
        assert got == pytest.approx(sums, rel=1e-12, abs=1e-12)
