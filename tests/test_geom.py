import pytest
from hypothesis import given, strategies as st

from cfcolor.geom import (
    AxisRect,
    KeyOrder,
    compare_keys,
    pair_decode,
    pair_encode,
)


def test_compare_keys_tiebreak_on_id():
    assert compare_keys(KeyOrder(3.0, 1), KeyOrder(3.0, 2)) == -1


def test_compare_keys_coordinate_dominates():
    assert compare_keys(KeyOrder(2.0, 9), KeyOrder(3.0, 1)) == -1


def test_compare_keys_reflexive():
    assert compare_keys(KeyOrder(5.0, 4), KeyOrder(5.0, 4)) == 0


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
keys = st.builds(KeyOrder, coords, st.integers(min_value=0, max_value=1000))


@given(keys, keys)
def test_compare_keys_antisymmetric(k1, k2):
    assert compare_keys(k1, k2) == -compare_keys(k2, k1)


@given(keys, keys, keys)
def test_compare_keys_transitive(k1, k2, k3):
    if compare_keys(k1, k2) <= 0 and compare_keys(k2, k3) <= 0:
        assert compare_keys(k1, k3) <= 0


@given(keys, keys)
def test_compare_keys_distinct_pairs_never_equal(k1, k2):
    if (k1.coordinate, k1.tiebreak) != (k2.coordinate, k2.tiebreak):
        assert compare_keys(k1, k2) != 0


def test_rect_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        AxisRect(2.0, 1.0, 0.0, 1.0, 0)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_pair_encoding_roundtrip(a, b):
    assert pair_decode(pair_encode(a, b)) == (a, b)
