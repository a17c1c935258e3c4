"""read_workload against the reader that runs json.loads line by line: the
same events, or a ParseError with the same text, on any bytes."""

import json
import os
import tempfile

from hypothesis import example, given, strategies as st

from cfcolor import harness
from cfcolor.harness import generate_workload, read_workload, write_workload
import reference

VALID = [json.dumps(ev, sort_keys=True) for kind, params in (
    ("unit_square", {}), ("bounded_rect", {"c": 3.0}), ("point_1d", {}))
    for ev in generate_workload(kind, 3, 0.4, seed=2, **params)]
ODD = [
    '{"op": "insert", "id": 1}',                      # insert without object
    '{"op": "delete", "id": true}',                   # id not an int
    '{"op": "delete", "id": 1.0}',
    '{"op": "noop", "id": 1}',
    '[1, 2]', '"text"', '7', 'null', '{}',            # not events
    '{"op": "delete", "id": 2} {"op": "delete", "id": 3}',   # trailing data
    '{"op": "delete", "id": 2}\x0bx',
    '{"op": "delete", "id": 2, "note": "\\ud800"}',  # an escaped lone surrogate
    '{"op": "delete", "id": 2, "note": "\xe9\u2028"}',
    '{"op": "insert", "id": 4, "object": {"kind": "point_1d", "x": NaN}}',
    '{"op": "insert", "id": 4, "object": {"kind": "point_1d", "x": [1]}}',
    '{"op": "insert", "id": 4, "object": "square"}',
    '[' * 100_000,                                    # deeper than the recursion limit
    '{"a": ' * 50 + '1' + '}' * 50,
    'not json', '{"op": "delete", "id": 2', '',
]
# ASCII whitespace bytes.strip() removes, and characters str.strip() would
# also remove but bytes.strip() keeps
PAD = " \t\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\ufeff"
RAW = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00", b"\xe2\x82",
       b"\r\n", b"\x80abc"]

line = st.builds(lambda a, body, b: (a + body + b).encode("utf-8", "surrogatepass"),
                 st.text(PAD, max_size=2), st.sampled_from(VALID + ODD) | st.text(max_size=6),
                 st.text(PAD, max_size=2))
piece = line | st.sampled_from(RAW) | st.binary(max_size=4)


def _outcome(read, data: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "w.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            return "events", read(path)
        except harness.ParseError as exc:
            return "ParseError", str(exc)


@given(pieces=st.lists(st.lists(piece, min_size=1, max_size=2).map(b"".join), max_size=6),
       newline_at_end=st.booleans())
@example(pieces=[VALID[0].encode(), b"\xff" + VALID[1].encode()], newline_at_end=True)
@example(pieces=[b"\xef\xbb\xbf" + VALID[0].encode(), VALID[1].encode()], newline_at_end=True)
@example(pieces=[VALID[0].encode(), b"\xef\xbb\xbf" + VALID[1].encode()], newline_at_end=False)
@example(pieces=[VALID[0].encode(), (VALID[1] + ' {"x": 1}').encode()], newline_at_end=True)
@example(pieces=[("\x0b\x0c" + VALID[0] + "\x0c").encode(), VALID[1].encode()],
         newline_at_end=True)
@example(pieces=[("\xa0" + VALID[0]).encode(), VALID[1].encode()], newline_at_end=True)
@example(pieces=[(VALID[0] + "\u2028").encode(), VALID[1].encode()], newline_at_end=True)
@example(pieces=[VALID[0].encode(), b"[" * 100_000], newline_at_end=True)
@example(pieces=[VALID[0].encode(), b"[1, 2]"], newline_at_end=True)
@example(pieces=[VALID[0].encode(), VALID[1].encode("utf-16-le")], newline_at_end=True)
def test_read_workload_matches_the_line_by_line_reader(pieces, newline_at_end):
    data = b"\n".join(pieces) + (b"\n" if newline_at_end else b"")
    assert _outcome(read_workload, data) == _outcome(reference.read_workload, data)


def test_a_plain_workload_is_read_in_one_pass(tmp_path, monkeypatch):
    """A UTF-8 file without NUL bytes or a BOM never takes the line-by-line
    path, whether its events are valid or not."""
    def refuse(data):
        raise AssertionError("read line by line")

    events = generate_workload("bounded_rect", 200, 0.3, seed=3, c=3.0)
    path = tmp_path / "w.jsonl"
    write_workload(events, str(path))
    monkeypatch.setattr(harness, "_read_lines", refuse)
    assert read_workload(str(path)) == events
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(' \x0c{"op": "delete", "id": "7"}\n')
    assert _outcome(read_workload, path.read_bytes()) == (
        "ParseError", f"line {len(events) + 1}: id must be an int, got '7'")
