"""Per-brick appearance descriptors.

A video is cut into bricks: w x h patches tracked over t consecutive
frames.  Two descriptor flavours are supported:

``cs_stltp``
    Center-symmetric spatio-temporal ternary patterns.  Around every voxel
    four sampling planes are placed, each containing the vertical (y) axis,
    with in-plane second directions stepping through the x-t subspace at
    0, 45, 90 and 135 degrees.  On the 3x3 ring of each plane the four
    center-symmetric neighbour pairs are compared with a tolerant ternary
    sign, giving 16 trits per voxel.  Each voxel's trit vector is quantized
    to one of 48 levels (transition count x sign of the trit sum) and
    pooled into a per-channel histogram of raw counts, four counts per
    voxel (one per plane).

``rgb``
    The raw voxel intensities stacked in (t, y, x, channel) order.

Neighbour lookups clamp to the edges of the supplied frame volume, so the
first/last frames and the image border reuse their nearest voxels;
``bin_volume`` implements the clamp as one edge padding of the volume.
The trit rule needs non-negative intensities and a finite tau >= 0, so
``bin_volume``, the one place it is applied, refuses anything else on
every path.

``bin_volume`` pads the volume by one ``np.pad`` in its own dtype.  A
``uint8`` volume (every frame file the engine reads is 8-bit) is compared in
its own 8-bit domain, against bounds read from two 256-entry tables of the
float64 products rounded to integers, which give the same trits; any other
dtype is made float64 once and scaled once into (1 + tau) and (1 - tau)
copies.  Each of the 13 distinct offsets among the 16 ``PAIR_OFFSETS``
gets its trit formed once per piece, and the trits are folded into int8
transition and sum counts, which become the int8 bins returned.  The whole
volume is one flat run, cut into one contiguous piece per CPU, each piece
one item of ``linalg.parallel_map``.
``brick_descriptor`` returns the (m,) vector of one brick, a per-cell view
of the path the engine runs (``bin_volume`` then ``cell_histograms``).
``cell_histograms`` pools every cell at once through a flat pixel index,
each cell's pixels as positions in one flattened frame
(``pipeline.GridGeometry.pixel_index`` for the grid), over every frame,
and can write the scaled counts straight into a caller's descriptor rows.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import linalg
from .imageio import FrameFormatError

MODE_CS = "cs_stltp"
MODE_RGB = "rgb"
MODES = (MODE_CS, MODE_RGB)

HISTOGRAM_BINS = 48
COUNTS_PER_VOXEL = 4  # one per sampling plane

DEFAULT_TAU = 0.2

# In-plane second directions, as (dx, dt) steps: 0, 45, 90, 135 degrees in
# the x-t subspace.  Every plane also extends along y.
_PLANE_DIRS = ((1, 0), (1, 1), (0, 1), (-1, 1))

# First half of the 3x3 ring, as (a, b) = (in-plane step, y step).  The
# center-symmetric partner of (a, b) is (-a, -b).
_HALF_RING = ((-1, -1), (0, -1), (1, -1), (1, 0))


def _pair_offsets():
    offs = []
    for dx, dt in _PLANE_DIRS:
        for a, b in _HALF_RING:
            offs.append((a * dt, b, a * dx))  # (dt, dy, dx)
    return tuple(offs)


# 16 (dt, dy, dx) displacements of the first pair member, plane-major; the
# second member sits at the negated displacement.
PAIR_OFFSETS = _pair_offsets()

# Offsets that occur more than once in PAIR_OFFSETS: (0, -1, 0), the
# vertical pair, is the (a, b) = (0, -1) ring point of every plane.
_RECURRING = tuple(offset for offset, n in Counter(PAIR_OFFSETS).items() if n > 1)


def bin_volume(volume, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Histogram-bin index (int8) of every voxel in a single-channel volume.

    A voxel's 16 trits compare each ``PAIR_OFFSETS`` pair (p_m at the
    offset, p_s at its negation): +1 where p_m > (1 + tau) p_s, -1 where
    p_m < (1 - tau) p_s, else 0.  Its bin is ``transitions * 3 + sign + 1``,
    ``transitions`` counting adjacent unequal trits in ``PAIR_OFFSETS``
    order (0..15) and ``sign`` the sign of the trit sum.  The rule needs
    non-negative intensities and a finite tau >= 0 (below zero both
    comparisons can hold), so a volume holding a negative value or NaN
    raises ``FrameFormatError``, and a negative or non-finite tau
    ``ValueError``.

    The volume is edge-padded by one ``np.pad`` in its own dtype.  A
    ``uint8`` volume stays ``uint8``: the bounds (1 + tau) p_s and
    (1 - tau) p_s are read from two 256-entry tables of the float64
    products, rounded down (upper) and up (lower) and clipped to 0..255.
    An integer p_m exceeds a real bound exactly when it exceeds its floor,
    and falls below one exactly when it falls below its ceiling, so every
    trit is the one the float64 products give, at 1 byte per operand.  Any
    other dtype is converted once to float64 and scaled once into
    (1 + tau) and (1 - tau) copies, so every product is formed once.

    Flattened, each pair member of a run of voxels is a contiguous slice at
    a fixed shift, which also spans the padding between rows and between
    frames; those voxels are computed and dropped.  The run over the whole
    volume is cut into ``linalg.CPUS`` contiguous pieces (cuts may fall
    mid-row), each one item of ``linalg.parallel_map`` with its own
    buffers, so its bins do not depend on which runner took it.  A
    ``uint8`` piece looks up the bounds of the stretch it reads (its run
    and one padded frame, row and voxel either side) on its runner.  Each
    distinct offset's trit is formed once per piece into a reused int8
    buffer; an offset that recurs in ``PAIR_OFFSETS`` keeps its trit held
    for its later places in the chain.  Every trit is folded into the
    piece's slice of int8 transition and sum counts as soon as it is in
    place, and the piece's bins are formed there, so the volume's bins
    are the run's, cropped in one copy.
    """
    volume = np.asarray(volume)
    if volume.ndim != 3 or not volume.size:
        raise ValueError(f"expected a non-empty (t, y, x) volume, got shape {volume.shape}")
    if not 0.0 <= tau < np.inf:                 # NaN fails too, here and below
        raise ValueError(f"tau must be finite and non-negative, got {tau!r}")
    if not volume.min(initial=0) >= 0:
        raise FrameFormatError("cs_stltp intensities must not be negative or NaN")
    nt, ny, nx = volume.shape
    row = nx + 2
    frame = (ny + 2) * row
    flat = np.pad(volume, 1, mode="edge").reshape(-1)
    if flat.dtype == np.uint8:
        levels = np.arange(256, dtype=np.float64)
        tables = (np.minimum(np.floor(levels * (1.0 + tau)), 255).astype(np.uint8),
                  np.maximum(np.ceil(levels * (1.0 - tau)), 0).astype(np.uint8))

        def bounds(segment):    # uint8 indices are all in range: "clip" only skips a check
            return [np.take(table, flat[segment], mode="clip") for table in tables]
    else:
        flat = flat.astype(np.float64, copy=False)
        scaled = (flat * (1.0 + tau), flat * (1.0 - tau))

        def bounds(segment):
            return [copy[segment] for copy in scaled]

    # Every PAIR_OFFSETS shift is at most reach = frame + row + 1 in flat,
    # which is also where voxel (0, 0, 0) sits.  Run position i is voxel i of
    # the volume laid out as (nt, ny + 2, row), at flat[reach + i], and its
    # pairs lie in flat[i : i + 2 * reach + 1].
    reach = frame + row + 1
    span = (nt - 1) * frame + (ny - 1) * row + nx
    run_bins = np.empty(nt * frame, dtype=np.int8)     # transitions, then bins

    def bin_piece(piece):
        a, b = piece
        n = b - a
        upper, lower = bounds(slice(a, b + 2 * reach))
        above = np.empty(n, dtype=bool)
        below = np.empty(n, dtype=bool)
        differs = np.empty(n, dtype=bool)
        # Alternating buffers, so a trit is never formed over its predecessor.
        scratch = (np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int8))
        held = {offset: np.empty(n, dtype=np.int8) for offset in _RECURRING}
        transitions = run_bins[a:b]
        transitions[...] = 0
        total = np.zeros(n, dtype=np.int8)
        formed = set()
        previous = None
        for i, offset in enumerate(PAIR_OFFSETS):
            trit = held.get(offset, scratch[i % 2])
            if offset not in formed:
                shift = offset[0] * frame + offset[1] * row + offset[2]
                p_m = flat[reach + a + shift : reach + a + shift + n]
                np.greater(p_m, upper[reach - shift : reach - shift + n], out=above)
                np.less(p_m, lower[reach - shift : reach - shift + n], out=below)
                np.subtract(above.view(np.int8), below.view(np.int8), out=trit)
                formed.add(offset)
            total += trit
            if previous is not None:
                transitions += np.not_equal(trit, previous, out=differs).view(np.int8)
            previous = trit
        transitions *= 3                        # at most 15 * 3 + 1 + 1 = 47
        transitions += np.sign(total, out=total)
        transitions += 1

    cuts = [span * k // linalg.CPUS for k in range(linalg.CPUS + 1)]
    linalg.parallel_map(bin_piece, [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a])
    return np.ascontiguousarray(run_bins.reshape(nt, ny + 2, row)[:, :ny, :nx])


def cell_histograms(bins: np.ndarray, pixel_index: np.ndarray, out=None) -> np.ndarray:
    """Histograms (n, 48), float64, of n cells cut from one bin-index volume.

    ``bins`` is a (t, y, x) volume from ``bin_volume``; row i of
    ``pixel_index`` (n, k) lists cell i's pixels as positions in one frame
    of ``bins`` flattened, and the cell pools them over every frame, so the
    whole grid is gathered by one ``np.take``.  Every voxel adds
    ``COUNTS_PER_VOXEL`` to its bin: the counts are scaled and made float64
    by one ``np.multiply``, exactly, written into ``out`` (any (n, 48)
    float64 block, such as a caller's descriptor columns) if it is given.
    """
    n = pixel_index.shape[0]
    flat = np.take(bins.reshape(bins.shape[0], -1), pixel_index, axis=1).astype(np.intp)
    flat += (np.arange(n) * HISTOGRAM_BINS)[:, None]
    counts = np.bincount(flat.reshape(-1), minlength=n * HISTOGRAM_BINS).reshape(n, HISTOGRAM_BINS)
    return np.multiply(counts, COUNTS_PER_VOXEL, out=out, dtype=np.float64)


def brick_descriptor(
    volume, x0: int, y0: int, width: int, height: int, mode: str = MODE_CS, tau: float = DEFAULT_TAU
) -> np.ndarray:
    """Descriptor (m,) of the width x height brick at (x0, y0) of a volume.

    ``volume`` holds the full frames, (t, y, x) or (t, y, x, c), the brick
    is cut from; cs_stltp reads neighbours from it, so a brick sees across
    its own spatial boundary.
    cs_stltp: 48 raw histogram counts per channel, concatenated channel by
    channel; every voxel contributes four counts to its pattern's bin.  The
    volume is binned in its own dtype, as the engine bins it.
    rgb: voxel intensities as float64, flattened in (t, y, x, channel) order.
    """
    volume = np.asarray(volume)
    if volume.ndim == 3:
        volume = volume[..., None]
    if volume.ndim != 4:
        raise ValueError(f"volume must be (t, y, x[, c]), got {volume.shape}")
    nt, ny, nx, channels = volume.shape
    if width < 1 or height < 1 or nt < 1:
        raise ValueError("brick dimensions must be positive")
    if not (0 <= x0 and x0 + width <= nx):
        raise ValueError("brick x-window outside volume")
    if not (0 <= y0 and y0 + height <= ny):
        raise ValueError("brick y-window outside volume")
    if mode == MODE_RGB:
        return volume[:, y0 : y0 + height, x0 : x0 + width, :].reshape(-1).astype(np.float64)
    if mode != MODE_CS:
        raise ValueError(f"unknown descriptor mode {mode!r}")
    pixels = np.arange(ny * nx).reshape(ny, nx)[y0 : y0 + height, x0 : x0 + width]
    pixel_index = pixels.reshape(1, -1)
    return np.concatenate(
        [cell_histograms(bin_volume(volume[..., c], tau), pixel_index)[0] for c in range(channels)]
    )
