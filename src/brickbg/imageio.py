"""Reading and writing video frames as binary PGM (P5) / PPM (P6) files.

Frame sequences live in a directory as ``frame_000001.pgm`` (or ``.ppm``),
numbered from 1.  Masks are written as PGM with foreground = 255 and
background = 0.  Only 8-bit images (maxval <= 255) are supported.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np


class FrameFormatError(ValueError):
    """Raised for malformed image files or inconsistent frame sequences."""


_FRAME_RE = re.compile(r"(\d+)\.(pgm|ppm)$", re.IGNORECASE)


def _read_header_tokens(data: bytes, count: int):
    """First ``count`` whitespace-separated tokens after the two-byte magic,
    skipping '#' comments; returns (tokens, offset of the byte after the
    single whitespace that terminates the last token)."""
    tokens = []
    i = 2
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise FrameFormatError("truncated header")
        tokens.append(data[start:i])
        if len(tokens) == count:
            if i >= n:
                raise FrameFormatError("missing pixel data")
            i += 1  # exactly one whitespace byte separates header from raster
    return tokens, i


def read_image(path) -> np.ndarray:
    """Read one P5/P6 file.  Returns (H, W) uint8 for P5, (H, W, 3) for P6,
    a read-only view of the raster inside the file's bytes."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FrameFormatError(f"cannot read {path}: {exc}") from None
    if data[:2] not in (b"P5", b"P6"):
        raise FrameFormatError(f"{path}: not a binary PGM/PPM file")
    channels = 1 if data[:2] == b"P5" else 3
    tokens, offset = _read_header_tokens(data, 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FrameFormatError(f"{path}: non-numeric header field") from None
    if width < 1 or height < 1:
        raise FrameFormatError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise FrameFormatError(f"{path}: unsupported maxval {maxval}")
    expect = width * height * channels
    raster = memoryview(data)[offset : offset + expect]
    if len(raster) != expect:
        raise FrameFormatError(f"{path}: expected {expect} pixel bytes, got {len(raster)}")
    arr = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width)
    return arr.reshape(height, width, 3)


def write_image(path, image: np.ndarray):
    """Write a uint8 image; (H, W) or (H, W, 1) as P5, (H, W, 3) as P6."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise FrameFormatError("images must be uint8")
    if image.ndim == 3 and image.shape[2] == 1:
        image = image[:, :, 0]
    if image.ndim == 2:
        magic, channels = b"P5", 1
    elif image.ndim == 3 and image.shape[2] == 3:
        magic, channels = b"P6", 3
    else:
        raise FrameFormatError(f"cannot write image of shape {image.shape}")
    h, w = image.shape[:2]
    header = b"%s\n%d %d\n255\n" % (magic, w, h)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(image))


def frame_index(path) -> int:
    """Frame number encoded in a file name (the trailing digit run)."""
    m = _FRAME_RE.search(Path(path).name)
    if not m:
        raise FrameFormatError(f"{path}: no frame number in file name")
    return int(m.group(1))


def list_frames(directory):
    """Sorted frame paths in a directory, validated to count 1..N."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FrameFormatError(f"{directory}: not a directory")
    paths = [p for p in directory.iterdir() if _FRAME_RE.search(p.name)]
    if not paths:
        raise FrameFormatError(f"{directory}: no PGM/PPM frames found")
    paths.sort(key=frame_index)
    indices = [frame_index(p) for p in paths]
    if indices != list(range(1, len(paths) + 1)):
        raise FrameFormatError(
            f"{directory}: frame numbers must be 1..{len(paths)} with no gaps"
        )
    return paths


def _sequence(source):
    """Image paths of a frame directory, or of a manifest text file listing
    one image path per line (relative paths resolve against the manifest's
    directory), and the shape of the first image, which the loaders read
    again into its row so that they hold no image across their loop."""
    source = Path(source)
    if source.is_dir():
        paths = list_frames(source)
    else:
        try:
            lines = source.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:     # an image file is not a manifest
            raise FrameFormatError(f"cannot read {source}: {exc}") from None
        paths = [
            (source.parent / line.strip())
            for line in lines
            if line.strip() and not line.strip().startswith("#")
        ]
        if not paths:
            raise FrameFormatError(f"{source}: empty manifest")
    return paths, read_image(paths[0]).shape


def _read_like(path, shape) -> np.ndarray:
    """One image of a sequence, refused unless it has the first image's shape."""
    image = read_image(path)
    if image.shape != shape:
        raise FrameFormatError(f"inconsistent frame shapes: {sorted({shape, image.shape})}")
    return image


def load_frames(source) -> np.ndarray:
    """Load a frame sequence as (F, H, W, channels) uint8.

    ``source`` is a directory of numbered frames or a manifest text file
    listing one image path per line (relative paths resolve against the
    manifest's directory).  Each file is read into its row of the result,
    and no other image is held meanwhile.
    """
    paths, shape = _sequence(source)
    channels = shape[2] if len(shape) == 3 else 1
    frames = np.empty((len(paths), *shape[:2], channels), dtype=np.uint8)
    for row, path in zip(frames, paths):
        row[...] = _read_like(path, shape).reshape(row.shape)
    return frames


def check_destination(directory, count: int, channels: int = 1, prefix: str = "frame"):
    """Names of ``count`` numbered frames to write to ``directory``; refuses a
    path that is, or lies under, an existing non-directory, and a directory
    holding a file ``list_frames`` would read that they do not overwrite (a
    higher number, the other extension or another prefix)."""
    directory = Path(directory)
    for path in (directory, *directory.parents):
        if path.exists() and not path.is_dir():
            raise FrameFormatError(f"{directory}: {path} exists and is not a directory")
    ext = "ppm" if channels == 3 else "pgm"
    names = [f"{prefix}_{i:06d}.{ext}" for i in range(1, count + 1)]
    if directory.is_dir():
        kept = sorted({p.name for p in directory.iterdir() if _FRAME_RE.search(p.name)}
                      - set(names))
        if kept:
            raise FrameFormatError(
                f"{directory}: holds {len(kept)} frame files that writing {count} "
                f"frames leaves in place (first {kept[0]}), to be read back above or "
                "among the new ones; use an empty directory"
            )
    return names


def _write_sequence(directory, images, count: int, channels: int, prefix: str):
    """Write ``count`` images as numbered files from 1, once
    ``check_destination`` passes; no file is deleted."""
    directory = Path(directory)
    names = check_destination(directory, count, channels, prefix)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, image in zip(names, images):
        path = directory / name
        write_image(path, image)
        paths.append(path)
    return paths


def write_frames(directory, frames: np.ndarray, prefix: str = "frame"):
    """Write (F, H, W[, 1|3]) uint8 frames as numbered files from 1, once
    ``check_destination`` passes; no file is deleted.  A stack of another
    dtype or shape is refused before the directory is checked or made."""
    frames = np.asarray(frames)
    if frames.dtype != np.uint8:
        raise FrameFormatError(f"frames must be uint8, not {frames.dtype}")
    channels = frames.shape[3] if frames.ndim == 4 else 1
    if frames.ndim not in (3, 4) or channels not in (1, 3) or 0 in frames.shape:
        raise FrameFormatError(f"cannot write frames of shape {frames.shape}")
    return _write_sequence(directory, frames, len(frames), channels, prefix)


def write_masks(directory, masks: np.ndarray):
    """Write (F, H, W) boolean masks as PGM files (foreground = 255), one
    mask converted at a time.  A stack of another dtype or shape is refused
    before the directory is checked or made."""
    masks = np.asarray(masks)
    if masks.dtype != bool:
        raise FrameFormatError("masks must be boolean")
    if masks.ndim != 3 or 0 in masks.shape:
        raise FrameFormatError(f"cannot write masks of shape {masks.shape}")
    gray = (np.where(mask, np.uint8(255), np.uint8(0)) for mask in masks)
    return _write_sequence(directory, gray, len(masks), 1, "mask")


def load_masks(source) -> np.ndarray:
    """Load a mask sequence as (F, H, W) bool (any non-zero channel =
    foreground), each file converted into its row of the result."""
    paths, shape = _sequence(source)
    masks = np.empty((len(paths), *shape[:2]), dtype=bool)
    for mask, path in zip(masks, paths):
        np.any(_read_like(path, shape).reshape(*shape[:2], -1), axis=-1, out=mask)
    return masks
