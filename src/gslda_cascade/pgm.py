"""Binary PGM (P5) read/write; 8-bit grayscale, bit-exact round trips."""

from __future__ import annotations

import re

import numpy as np

# The header after the magic: width, height and maxval, each a run of
# non-whitespace bytes after any whitespace and '#' comments (to the end of
# their line).  A '#' ends the width and height tokens, as Netpbm starts a
# comment wherever a '#' stands before the raster; it stays in maxval, whose
# next byte is the one that ends the header.  Every part may be empty, so it
# matches any file that starts with P5; an empty or non-numeric token fails
# int().
_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*)*([^\s#]*)" * 2 + rb"(?:\s|#[^\n]*)*(\S*)")


def write_pgm(path, image) -> None:
    image = np.asarray(image)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("PGM images are nonempty 2-d grayscale")
    if image.dtype.kind not in "biu":  # a float pixel would be truncated, not written
        raise ValueError(f"pixels must be bool or integer, not {image.dtype}")
    if image.min() < 0 or image.max() > 255:
        raise ValueError("pixel values must fit 8 bits")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    header = _HEADER.match(data)
    pos = header.end() + 1  # single whitespace after maxval
    w, h, maxval = (int(t) for t in header.groups())
    if w < 1 or h < 1:
        raise ValueError(f"{path}: bad image size {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    if len(data) - pos < w * h:
        raise ValueError(f"{path}: pixel data shorter than {w}x{h}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return pixels.reshape(h, w).copy()
