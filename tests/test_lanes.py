import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lane3d_kit.lanes import Lane3D


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308,
                                                        -1.7e308])), max_size=6))
def test_y_must_increase_exactly_where_its_differences_are_positive(ys):
    y = np.array(ys, dtype=np.float64)
    zeros = np.zeros_like(y)
    with np.errstate(invalid="ignore", over="ignore"):
        increasing = y.shape[0] < 2 or bool(np.all(np.diff(y) > 0))
    if increasing:
        Lane3D(x=zeros, y=y, z=zeros, visibility=zeros)
    else:
        with pytest.raises(ValueError, match="strictly increasing"):
            Lane3D(x=zeros, y=y, z=zeros, visibility=zeros)
