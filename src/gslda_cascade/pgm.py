"""Binary PGM (P5) read/write; 8-bit grayscale, bit-exact round trips."""

from __future__ import annotations

import numpy as np


def write_pgm(path, image) -> None:
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("PGM images are 2-d grayscale")
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
    # header: magic, width, height, maxval; '#' comments allowed between tokens
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    w, h, maxval = (int(t) for t in tokens)
    if w < 1 or h < 1:
        raise ValueError(f"{path}: bad image size {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    if len(data) - pos < w * h:
        raise ValueError(f"{path}: pixel data shorter than {w}x{h}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return pixels.reshape(h, w).copy()
