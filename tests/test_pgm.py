"""Binary PGM reading and writing."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gslda_cascade.pgm import read_pgm, write_pgm

# Header grammar read_pgm accepts: magic, width, height, maxval separated by
# whitespace or '#' comments, then one whitespace byte before the pixels.
_SEP = rb"(?:\s|#[^\n]*)*"
_HEADER = re.compile(rb"P5" + _SEP + rb"([^\s#]+)" + _SEP + rb"([^\s#]+)" + _SEP + rb"([^\s#]+)\s")


def header_shape(data: bytes):
    """(h, w) as an independent parse of the header declares them."""
    m = _HEADER.match(data)
    return int(m.group(2)), int(m.group(1))


@given(st.integers(1, 12), st.integers(1, 12), st.data())
@settings(max_examples=40, deadline=None)
def test_round_trip_is_bit_exact(tmp_path_factory, h, w, data):
    image = np.array(data.draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w)),
                     dtype=np.uint8).reshape(h, w)
    path = tmp_path_factory.mktemp("pgm") / "im.pgm"
    write_pgm(path, image)
    got = read_pgm(path)
    assert got.dtype == np.uint8
    assert np.array_equal(got, image)


def test_header_comments(tmp_path):
    path = tmp_path / "im.pgm"
    pixels = bytes([0, 9, 32, 128, 200, 255])
    path.write_bytes(b"P5\n# made by hand\n3 # width\n2\n#maxval next\n255\n" + pixels)
    got = read_pgm(path)
    assert got.dtype == np.uint8
    assert np.array_equal(got, np.array([[0, 9, 32], [128, 200, 255]], dtype=np.uint8))


@pytest.mark.parametrize("header", [b"P5\n-1 1\n255\n", b"P5\n0 4\n255\n", b"P5\n3 -2\n255\n"],
                         ids=["negative-width", "zero-width", "negative-height"])
def test_size_below_one_rejected(tmp_path, header):
    path = tmp_path / "im.pgm"
    path.write_bytes(header + bytes(6))
    with pytest.raises(ValueError, match="bad image size"):
        read_pgm(path)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_files_fail_cleanly(tmp_path_factory, h, w, data):
    """A truncated or mutated file raises ValueError or yields the shape its
    header declares, as uint8."""
    raw = bytearray(b"P5\n# c\n%d %d\n255\n" % (w, h) + bytes(h * w))
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 4), label="mutations")):
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            raw[at] = data.draw(st.integers(0, 255), label="byte")
    path = tmp_path_factory.mktemp("pgm") / "im.pgm"
    path.write_bytes(bytes(raw))
    try:
        got = read_pgm(path)
    except ValueError:
        return
    assert got.dtype == np.uint8
    assert got.shape == header_shape(bytes(raw))
