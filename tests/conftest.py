import numpy as np
import pytest
from hypothesis import settings

from lane3d_kit.geometry import CameraRig

# Every run draws the same examples (a test's own @seed still picks its
# draws), and no example found by an earlier run is stored or replayed.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def unit_rig(ratio: int = 1) -> CameraRig:
    """f=100 camera at 1.5 m height looking forward, optional feature ratio."""
    return CameraRig(
        K=np.array([[100.0, 0.0, 240.0], [0.0, 100.0, 180.0], [0.0, 0.0, 1.0]]),
        T_gc=np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.5], [0.0, 1.0, 0.0, 0.0]]),
        image_size=(360, 480),
        feature_size=(360 // ratio, 480 // ratio),
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def random_rig(rng: np.random.Generator, with_lidar: bool = False) -> CameraRig:
    f = rng.uniform(80.0, 500.0)
    k = np.array(
        [
            [f, rng.uniform(-2.0, 2.0), rng.uniform(200.0, 280.0)],
            [0.0, f * rng.uniform(0.9, 1.1), rng.uniform(150.0, 210.0)],
            [0.0, 0.0, 1.0],
        ]
    )
    rot = random_rotation(rng)
    t = rng.normal(scale=2.0, size=(3, 1))
    t_gl = None
    if with_lidar:
        t_gl = np.hstack([random_rotation(rng), rng.normal(scale=1.0, size=(3, 1))])
    return CameraRig(
        K=k,
        T_gc=np.hstack([rot, t]),
        T_gl=t_gl,
        image_size=(360, 480),
        feature_size=(45, 60),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
