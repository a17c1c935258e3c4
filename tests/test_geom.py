import pytest
from hypothesis import given, strategies as st

from cfcolor.geom import (
    AxisRect,
    KeyOrder,
    pair_encode,
)
from reference import pair_decode


def test_compare_keys_tiebreak_on_id():
    assert KeyOrder(3.0, 1) < KeyOrder(3.0, 2)


def test_compare_keys_coordinate_dominates():
    assert KeyOrder(2.0, 9) < KeyOrder(3.0, 1)


def test_compare_keys_reflexive():
    k = KeyOrder(5.0, 4)
    assert k == KeyOrder(5.0, 4) and not k < KeyOrder(5.0, 4)


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
keys = st.builds(KeyOrder, coords, st.integers(min_value=0, max_value=1000))


@given(keys, keys)
def test_compare_keys_antisymmetric(k1, k2):
    assert not (k1 < k2 and k2 < k1)
    assert (k1 < k2) == (k2 > k1) and (k1 > k2) == (k2 < k1)


@given(keys, keys, keys)
def test_compare_keys_transitive(k1, k2, k3):
    if k1 <= k2 and k2 <= k3:
        assert k1 <= k3


@given(keys, keys)
def test_compare_keys_distinct_pairs_never_equal(k1, k2):
    if (k1.coordinate, k1.tiebreak) != (k2.coordinate, k2.tiebreak):
        assert k1 != k2 and (k1 < k2 or k2 < k1)


def test_rect_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        AxisRect(2.0, 1.0, 0.0, 1.0, 0)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_pair_encoding_roundtrip(a, b):
    assert pair_decode(pair_encode(a, b)) == (a, b)
