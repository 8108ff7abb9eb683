"""Binary PGM/PPM frame I/O."""

import re
import tracemalloc

import numpy as np
import pytest

from brickbg.imageio import (
    FrameFormatError,
    frame_index,
    list_frames,
    load_frames,
    load_masks,
    read_image,
    write_frames,
    write_image,
    write_masks,
)


@pytest.fixture
def gray(rng):
    return rng.integers(0, 256, size=(6, 9), dtype=np.uint8)


@pytest.fixture
def color(rng):
    return rng.integers(0, 256, size=(6, 9, 3), dtype=np.uint8)


# --- single images ----------------------------------------------------------


def test_p5_round_trip(tmp_path, gray):
    path = tmp_path / "img.pgm"
    write_image(path, gray)
    back = read_image(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, gray)


def test_p6_round_trip(tmp_path, color):
    path = tmp_path / "img.ppm"
    write_image(path, color)
    back = read_image(path)
    assert back.shape == (6, 9, 3)
    assert np.array_equal(back, color)


def test_single_channel_axis_written_as_p5(tmp_path, gray):
    path = tmp_path / "img.pgm"
    write_image(path, gray[:, :, None])
    assert np.array_equal(read_image(path), gray)


def test_write_image_validates(tmp_path, gray):
    with pytest.raises(FrameFormatError, match="uint8"):
        write_image(tmp_path / "x.pgm", gray.astype(np.float64))
    with pytest.raises(FrameFormatError, match="shape"):
        write_image(tmp_path / "x.pgm", np.zeros((4, 4, 2), dtype=np.uint8))


def test_header_comments_and_whitespace(tmp_path):
    raster = bytes(range(6))
    data = b"P5 # magic comment\n# full comment line\n 3\t2 # dims\n255\n" + raster
    path = tmp_path / "weird.pgm"
    path.write_bytes(data)
    img = read_image(path)
    assert img.shape == (2, 3)
    assert np.array_equal(img.reshape(-1), np.frombuffer(raster, np.uint8))


@pytest.mark.parametrize("header", [b"P5\n3#c\n2 255\n", b"P5\n3 2\n255#c\n"],
                         ids=["after-width", "after-maxval"])
def test_header_comment_right_after_a_token(tmp_path, header):
    """A '#' ends a token as whitespace does; a comment after maxval ends at
    its newline, and that newline is the byte before the raster.  Both used
    to be read as part of the token: "non-numeric header field"."""
    raster = bytes([10, 1, 2, 3, 4, 5])
    path = tmp_path / "comment.pgm"
    path.write_bytes(header + raster)
    assert np.array_equal(read_image(path), np.frombuffer(raster, np.uint8).reshape(2, 3))


def test_raster_above_maxval_is_refused(tmp_path):
    """A raster byte above the header's maxval used to be returned as is."""
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5\n2 1\n15\n\x00\xc8")
    with pytest.raises(FrameFormatError, match=r"over\.pgm: raster value 200 above maxval 15"):
        read_image(path)
    path.write_bytes(b"P5\n2 1\n15\n\x00\x0f")          # maxval itself is in range
    assert read_image(path).tolist() == [[0, 15]]


def test_raster_starts_after_single_whitespace(tmp_path):
    # The byte right after the maxval terminator belongs to the raster even
    # when it looks like whitespace (pixel value 10 == newline).
    raster = bytes([10, 20, 30, 40])
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + raster)
    assert np.array_equal(read_image(path).reshape(-1), [10, 20, 30, 40])


@pytest.mark.parametrize("data, message", [
    (b"P3\n2 2\n255\n" + bytes(4), "not a binary"),
    (b"P5\n2 two\n255\n" + bytes(4), "non-numeric"),
    (b"P5\n0 2\n255\n", "bad dimensions"),
    (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
    (b"P5\n2 2\n255\n" + bytes(3), "pixel bytes"),
    (b"P5\n2 2", "truncated header|missing pixel data"),
    (b"P5\n2 2\n255", "missing pixel data"),
])
def test_read_image_rejects_malformed(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(FrameFormatError, match=message):
        read_image(path)


def test_errors_name_the_file(tmp_path):
    path = tmp_path / "broken.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(2))
    with pytest.raises(FrameFormatError, match="broken.pgm"):
        read_image(path)
    with pytest.raises(FrameFormatError, match="missing.pgm"):
        read_image(tmp_path / "missing.pgm")


# --- sequences ----------------------------------------------------------------


def test_frame_index():
    assert frame_index("frame_000123.pgm") == 123
    assert frame_index("mask_7.PPM") == 7
    with pytest.raises(FrameFormatError):
        frame_index("readme.txt")


def test_write_and_list_frames(tmp_path, rng):
    frames = rng.integers(0, 256, size=(4, 5, 7), dtype=np.uint8)
    paths = write_frames(tmp_path / "seq", frames)
    assert [p.name for p in paths] == [
        f"frame_{i:06d}.pgm" for i in range(1, 5)
    ]
    listed = list_frames(tmp_path / "seq")
    assert listed == paths


def test_load_frames_round_trip(tmp_path, rng):
    frames = rng.integers(0, 256, size=(3, 4, 6, 3), dtype=np.uint8)
    write_frames(tmp_path / "seq", frames)
    back = load_frames(tmp_path / "seq")
    assert back.shape == (3, 4, 6, 3)
    assert np.array_equal(back, frames)


def test_gray_sequence_gets_channel_axis(tmp_path, rng):
    frames = rng.integers(0, 256, size=(2, 4, 4), dtype=np.uint8)
    write_frames(tmp_path / "seq", frames)
    back = load_frames(tmp_path / "seq")
    assert back.shape == (2, 4, 4, 1)
    assert np.array_equal(back[..., 0], frames)


def test_list_frames_rejects_gaps(tmp_path, gray):
    seq = tmp_path / "seq"
    seq.mkdir()
    write_image(seq / "frame_000001.pgm", gray)
    write_image(seq / "frame_000003.pgm", gray)
    with pytest.raises(FrameFormatError, match="no gaps"):
        list_frames(seq)


def test_list_frames_rejects_empty_or_missing(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FrameFormatError, match="no PGM/PPM"):
        list_frames(empty)
    with pytest.raises(FrameFormatError, match="not a directory"):
        list_frames(tmp_path / "nowhere")


@pytest.mark.parametrize("load", [load_frames, load_masks], ids=lambda f: f.__name__)
@pytest.mark.parametrize("mix", ["size", "channels"])
@pytest.mark.parametrize("listing", ["directory"])       # the one sequence kind
def test_load_frames_inconsistent_shapes(tmp_path, gray, load, mix, listing):
    """Both loaders refuse a frame directory whose images differ in size or
    in P5/P6 kind, naming the two shapes."""
    other = gray[:4] if mix == "size" else np.repeat(gray[..., None], 3, axis=2)
    sub = tmp_path / "imgs"
    sub.mkdir()
    write_image(sub / "frame_000001.pgm", gray)
    write_image(sub / f"frame_000002.{'pgm' if other.ndim == 2 else 'ppm'}", other)
    shapes = sorted({gray.shape, other.shape})
    with pytest.raises(FrameFormatError, match=re.escape(f"inconsistent frame shapes: {shapes}")):
        load(sub)


def test_loaders_hold_the_sequence_once(tmp_path, rng):
    """Each file is read into its row of the result, so the traced peak stays
    below the result plus two files' rasters.  Loading into a per-file list
    and stacking it (and, for masks, building a uint8 stack first) peaked
    at about twice the result."""
    for channels in (1, 3):
        frames = rng.integers(0, 256, size=(40, 120, 160, channels), dtype=np.uint8)
        write_frames(tmp_path / f"c{channels}", frames)
        raster = frames[0].nbytes
        for load in (load_frames, load_masks):
            tracemalloc.start()
            try:
                out = load(tmp_path / f"c{channels}")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < out.nbytes + 2 * raster, (load.__name__, channels, peak, out.nbytes)


# --- masks ---------------------------------------------------------------------


def test_mask_round_trip(tmp_path, rng):
    masks = rng.random(size=(3, 5, 8)) > 0.5
    paths = write_masks(tmp_path / "masks", masks)
    assert all(p.name.startswith("mask_") for p in paths)
    stored = read_image(paths[0])
    assert set(np.unique(stored)) <= {0, 255}
    back = load_masks(tmp_path / "masks")
    assert back.dtype == np.bool_
    assert np.array_equal(back, masks)


def test_rewrite_refuses_stale_higher_frames(tmp_path):
    """A shorter rerun into the same directory must not leave the old
    higher-numbered frames to be read back as part of the new sequence."""
    seq = tmp_path / "m"
    write_masks(seq, np.ones((8, 4, 4), dtype=bool))
    with pytest.raises(FrameFormatError, match="above"):
        write_masks(seq, np.zeros((5, 4, 4), dtype=bool))
    back = load_masks(seq)                      # nothing written, nothing deleted
    assert back.shape == (8, 4, 4) and back.all()
    write_masks(seq, np.zeros((8, 4, 4), dtype=bool))   # same count overwrites
    assert not load_masks(seq).any()
    with pytest.raises(FrameFormatError):                   # other prefixes count too
        write_frames(seq, np.zeros((2, 4, 4), dtype=np.uint8))


def test_rewrite_refuses_mixed_and_foreign_frame_files(tmp_path):
    """A gray run rewritten in colour used to leave ``frame_N.pgm`` beside
    ``frame_N.ppm``, and masks written into a frame directory sat beside
    the frames: either way ``list_frames`` then failed on the mix."""
    seq = tmp_path / "f"
    write_frames(seq, np.zeros((4, 6, 6), dtype=np.uint8))
    with pytest.raises(FrameFormatError, match="frame_000001.pgm"):
        write_frames(seq, np.zeros((4, 6, 6, 3), dtype=np.uint8))
    with pytest.raises(FrameFormatError, match="frame_000001.pgm"):
        write_masks(seq, np.zeros((4, 6, 6), dtype=bool))
    assert load_frames(seq).shape == (4, 6, 6, 1)           # nothing written
    (seq / "notes.txt").write_text("not a frame")           # list_frames skips it
    write_frames(seq, np.full((4, 6, 6), 7, dtype=np.uint8))
    assert (load_frames(seq) == 7).all()


def test_write_masks_requires_boolean(tmp_path):
    with pytest.raises(FrameFormatError, match="boolean"):
        write_masks(tmp_path / "m", np.zeros((1, 2, 2), dtype=np.uint8))


@pytest.mark.parametrize("write, stack, message", [
    (write_masks, np.zeros((4, 6), dtype=bool), "shape"),
    (write_masks, np.zeros((2, 4, 6, 1), dtype=bool), "shape"),
    (write_masks, np.zeros((0, 4, 6), dtype=bool), "shape"),
    (write_masks, np.zeros((2, 4, 6)), "boolean"),
    (write_frames, np.zeros((2, 4, 6, 2), dtype=np.uint8), "shape"),
    (write_frames, np.zeros((4, 6), dtype=np.uint8), "shape"),
    (write_frames, np.zeros((2, 0, 6), dtype=np.uint8), "shape"),
    (write_frames, np.zeros((2, 4, 6)), "uint8"),
    (write_frames, np.zeros((2, 4, 6), dtype=bool), "uint8"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_malformed_stack_is_refused_before_the_directory(tmp_path, write, stack, message):
    """A stack that is not (F, H, W[, 1|3]) uint8 frames or (F, H, W) bool
    masks is refused before any directory is made: it used to leave an empty
    directory behind, and an (H, W) mask failed only at its first row."""
    target = tmp_path / "new" / "seq"
    with pytest.raises(FrameFormatError, match=message):
        write(target, stack)
    assert not (tmp_path / "new").exists()


def test_write_masks_converts_one_mask_at_a_time(tmp_path, rng):
    """The traced peak stays below three mask frames; converting the whole
    stack to uint8 first held one uint8 frame per mask.  The paths of a
    first write of the same names, held through the traced one, keep those
    names interned, so the traced write cannot be the one to grow the
    interpreter's table of interned strings (a one-off of about 2 MB that
    holds no mask)."""
    masks = rng.random(size=(40, 120, 160)) > 0.5
    warm = write_masks(tmp_path / "warm" / "m", masks)
    target = tmp_path / "m"
    tracemalloc.start()
    try:
        write_masks(target, masks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del warm
    assert peak < 3 * masks[0].size, peak
    assert np.array_equal(load_masks(target), masks)


def test_load_masks_any_nonzero_is_foreground(tmp_path):
    img = np.array([[0, 1], [128, 255]], dtype=np.uint8)
    seq = tmp_path / "m"
    seq.mkdir()
    write_image(seq / "mask_000001.pgm", img)
    masks = load_masks(seq)
    assert np.array_equal(masks[0], [[False, True], [True, True]])


def test_load_masks_from_color_frames(tmp_path):
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[0, 1, 2] = 9                      # single channel lit counts
    seq = tmp_path / "m"
    seq.mkdir()
    write_image(seq / "mask_000001.ppm", img)
    masks = load_masks(seq)
    assert np.array_equal(masks[0], [[False, True], [False, False]])
