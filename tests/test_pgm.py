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


@pytest.mark.parametrize("image", [np.array([[1.7]]), np.full((2, 3), 7.0), np.array([[1, 2]], dtype=object),
                                   np.zeros((0, 3), dtype=np.uint8), np.zeros((2, 0), dtype=np.int64)],
                         ids=["float", "whole-float", "object", "no-rows", "no-columns"])
def test_non_integer_or_empty_images_rejected(tmp_path, image):
    # [[1.7]] was written as 1, which no round trip gives back, and an empty
    # image failed inside image.min().
    path = tmp_path / "im.pgm"
    with pytest.raises(ValueError):
        write_pgm(path, image)
    assert not path.exists()


def test_header_comments(tmp_path):
    path = tmp_path / "im.pgm"
    pixels = bytes([0, 9, 32, 128, 200, 255])
    path.write_bytes(b"P5\n# made by hand\n3 # width\n2\n#maxval next\n255\n" + pixels)
    got = read_pgm(path)
    assert got.dtype == np.uint8
    assert np.array_equal(got, np.array([[0, 9, 32], [128, 200, 255]], dtype=np.uint8))


@pytest.mark.parametrize("header", [
    b"P5\t3\t2\t255\n",  # tabs
    b"P5\r\n3\r\n2\r\n255\n",  # CRLF between the tokens
    b"P5\x0b3\x0c2 \n\t 255 ",  # vertical tab, form feed, runs of mixed whitespace
    b"P5#magic\n3\n# between width and height\r\n2 #x\n255\n",  # comments between tokens, CRLF-ended too
    b"P5\n#\n#\n3 2 255\r",  # empty comments; a CR as the one byte after maxval
], ids=["tabs", "crlf", "vt-ff-runs", "comments", "empty-comments"])
def test_header_whitespace_and_comment_forms(tmp_path, header):
    path = tmp_path / "im.pgm"
    pixels = bytes([0, 9, 32, 128, 200, 255])
    path.write_bytes(header + pixels)
    assert header_shape(header + pixels) == (2, 3)
    assert np.array_equal(read_pgm(path), np.array([[0, 9, 32], [128, 200, 255]], dtype=np.uint8))


@pytest.mark.parametrize("header", [b"P5 3#c\n2 255\n", b"P5 3 2#c\n255\n"], ids=["after-width", "after-height"])
def test_comment_glued_to_a_size_token(tmp_path, header):
    # A '#' that touches the width or height starts a comment, to the line's end.
    path = tmp_path / "im.pgm"
    pixels = bytes([0, 9, 32, 128, 200, 255])
    path.write_bytes(header + pixels)
    assert header_shape(header + pixels) == (2, 3)
    assert np.array_equal(read_pgm(path), np.array([[0, 9, 32], [128, 200, 255]], dtype=np.uint8))


def test_one_byte_after_maxval(tmp_path):
    # Exactly one whitespace byte ends the header: after "255\r\n" the LF
    # is the first pixel, and a comment after maxval is pixel data too.
    path = tmp_path / "im.pgm"
    path.write_bytes(b"P5 2 1 255\r\n\x07")
    assert read_pgm(path).tolist() == [[10, 7]]
    path.write_bytes(b"P5 2 1 255\n#x")
    assert read_pgm(path).tolist() == [[ord("#"), ord("x")]]


@pytest.mark.parametrize("header, message", [
    (b"P5 3 2\n# no maxval", "invalid literal"),
    (b"P5", "invalid literal"),
    (b"P6 3 2 255\n", "not a binary PGM"),
    (b"P5 3 2 65535\n", "unsupported maxval"),
    (b"P5 3 2 255\n", "pixel data shorter"),
], ids=["no-maxval", "magic-only", "not-p5", "maxval", "short"])
def test_bad_headers_raise_value_error(tmp_path, header, message):
    path = tmp_path / "im.pgm"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=message):
        read_pgm(path)


_SPACE = [b" ", b"\t", b"\n", b"\r\n", b"\x0b", b"\x0c"]


@given(st.lists(st.tuples(st.sampled_from(_SPACE),
                          st.lists(st.sampled_from(_SPACE + [b"#c\n", b"# x\r\n", b"#\n"]), max_size=4)),
                min_size=3, max_size=3),
       st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_any_separators_read_the_declared_image(tmp_path_factory, separators, h, w, data):
    # Runs of whitespace and comments before each token, each run led by a
    # whitespace byte, so that no comment touches the token before it.
    pixels = bytes(data.draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w)))
    raw = b"P5" + b"".join(lead + b"".join(rest) + token
                           for (lead, rest), token in zip(separators, (b"%d" % w, b"%d" % h, b"255")))
    raw += data.draw(st.sampled_from([b" ", b"\n", b"\r", b"\t"])) + pixels
    path = tmp_path_factory.mktemp("pgm") / "im.pgm"
    path.write_bytes(raw)
    assert header_shape(raw) == (h, w)
    assert read_pgm(path).tobytes() == pixels and read_pgm(path).shape == (h, w)


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
