import inspect

import pytest
from hypothesis import given, strategies as st

from cfcolor.geom import (
    AxisRect,
    KeyOrder,
    Pt,
    pair_encode,
)
from cfcolor.harness import make_structure
from cfcolor.squares import unit_square
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


@pytest.mark.parametrize("bounds", [(2.0, 1.0, 0.0, 1.0), (0.0, 1.0, 3.0, 2.5),
                                    (0.0, float("nan"), 0.0, 1.0)])
def test_rect_refusal_names_the_rectangle(bounds):
    x1, x2, y1, y2 = bounds
    with pytest.raises(ValueError) as exc:
        AxisRect(x1, x2, y1, y2, 7)
    assert str(exc.value) == (f"degenerate rectangle bounds: "
                              f"AxisRect(x1={x1!r}, x2={x2!r}, y1={y1!r}, y2={y2!r}, id=7)")
    with pytest.raises(ValueError, match="degenerate rectangle bounds"):
        AxisRect(x1=x1, x2=x2, y1=y1, y2=y2, id=7)
    with pytest.raises(ValueError, match="degenerate rectangle bounds"):
        AxisRect._make((x1, x2, y1, y2, 7))
    with pytest.raises(ValueError, match="degenerate rectangle bounds"):
        AxisRect(0.0, 5.0, 0.0, 5.0, 7)._replace(x1=x1, x2=x2, y1=y1, y2=y2)


def test_rect_fields_and_construction():
    r = AxisRect(0.0, 2.0, -1.0, 3.0, 5)
    assert r == AxisRect(x1=0.0, x2=2.0, y1=-1.0, y2=3.0, id=5) == AxisRect(0.0, 2.0, -1.0, 3.0, id=5)
    assert list(inspect.signature(AxisRect).parameters) == ["x1", "x2", "y1", "y2", "id"]
    assert (r.x1, r.x2, r.y1, r.y2, r.id) == (0.0, 2.0, -1.0, 3.0, 5)
    assert repr(r) == "AxisRect(x1=0.0, x2=2.0, y1=-1.0, y2=3.0, id=5)"
    with pytest.raises(AttributeError):
        r.x1 = 1.0
    with pytest.raises(AttributeError):
        r.extra = 1   # no per-object __dict__


def test_rect_equality_and_hash_by_fields():
    r = AxisRect(0.0, 2.0, -1.0, 3.0, 5)
    assert r != AxisRect(0.0, 2.0, -1.0, 3.0, 6) and r != AxisRect(0.0, 2.5, -1.0, 3.0, 5)
    assert hash(r) == hash(AxisRect(0.0, 2.0, -1.0, 3.0, 5)) == hash((0.0, 2.0, -1.0, 3.0, 5))
    assert len({r, AxisRect(0.0, 2.0, -1.0, 3.0, 5)}) == 1


def test_contains_is_closed():
    r, sq = AxisRect(0.0, 2.0, -1.0, 3.0, 5), unit_square(0.5, 1.5, 4)
    for p in (Pt(0.0, -1.0), Pt(2.0, 3.0), Pt(1.0, 0.0)):
        assert r.contains(p)
    for p in (Pt(-0.1, 0.0), Pt(1.0, 3.5), Pt(2.01, 3.0)):
        assert not r.contains(p)
    for p in (Pt(0.5, 1.5), Pt(1.5, 2.5), Pt(1.0, 2.0)):
        assert sq.contains(p)
    for p in (Pt(0.4, 2.0), Pt(1.0, 2.6), Pt(1.6, 1.5)):
        assert not sq.contains(p)


def test_inverted_payload_refused_without_the_reader():
    # A payload that bypasses read_workload meets the rectangle's constructor
    # first, and UniverseRectCF.check refuses inverted bounds again before
    # routing, where skeleton_locate would not stop on an inverted range.
    adapter = make_structure("universe", universe=64)
    adapter.insert(0, {"x1": 1, "x2": 5, "y1": 2, "y2": 6})
    for payload in ({"x1": 9, "x2": 3, "y1": 0, "y2": 4}, {"x1": 0, "x2": 4, "y1": 8, "y2": 2}):
        with pytest.raises(ValueError, match="degenerate rectangle bounds"):
            adapter.to_object(1, payload)
        with pytest.raises(ValueError, match="degenerate rectangle bounds"):
            adapter.insert(1, payload)
    assert len(adapter) == 1 and adapter.structure.audit() is None
    assert list(adapter.colors()) == [0]


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_pair_encoding_roundtrip(a, b):
    assert pair_decode(pair_encode(a, b)) == (a, b)
