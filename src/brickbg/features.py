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
The trit rule needs non-negative intensities, so ``bin_volume``, the one
place it is applied, refuses negative or NaN input on every path.

``bin_volume`` makes each floating-point product and comparison once per
volume: the padded volume is scaled once into (1 + tau) and (1 - tau)
copies, both members of every pair are slices of these, each of the 13
distinct offsets among the 16 ``PAIR_OFFSETS`` gets its trit formed once
per band of rows, and the trits are folded into int8 transition and sum
counts.  The volume is padded by one ``np.pad`` in its own dtype and made
float64 once, on the calling thread; each half of an output frame's rows
is then one item of ``linalg.parallel_map``.
``brick_descriptor`` returns the (m,) vector of one brick, a per-cell view
of the path the engine runs (``bin_volume`` then ``cell_histograms``).
``cell_histograms`` pools every cell at once through a flat pixel index,
each cell's pixels as positions in one flattened frame
(``pipeline.GridGeometry.pixel_index`` for the grid), over every frame.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import linalg
from .imageio import FrameFormatError

MODE_CS = "cs_stltp"
MODE_RGB = "rgb"
MODES = (MODE_CS, MODE_RGB)

PATTERN_LENGTH = 16
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
    """Histogram-bin index (int16) of every voxel in a single-channel volume.

    A voxel's 16 trits compare each ``PAIR_OFFSETS`` pair (p_m at the
    offset, p_s at its negation): +1 where p_m > (1 + tau) p_s, -1 where
    p_m < (1 - tau) p_s, else 0.  Its bin is ``transitions * 3 + sign + 1``,
    ``transitions`` counting adjacent unequal trits in ``PAIR_OFFSETS``
    order (0..15) and ``sign`` the sign of the trit sum.  The rule needs
    non-negative intensities (below zero both comparisons can hold), so a
    volume holding a negative value or NaN raises ``FrameFormatError``.

    The volume is edge-padded by one ``np.pad`` in its own dtype, converted
    once to float64 (the one place a cs_stltp window becomes float64) and
    scaled once into (1 + tau) and (1 - tau) copies, so every product is
    formed once.  Flattened, each pair member of a run of voxels is a
    contiguous slice of one of these arrays at a fixed shift, which also
    spans the padding columns between rows; those voxels are computed and
    dropped.  The walk runs one band of rows of one output frame at a time,
    over the three padded frames it reads: each output frame is cut into
    two row halves, and each band is one item of ``linalg.parallel_map``
    with its own buffers, so its bins do not depend on which runner took
    it.  Each distinct offset's trit is formed once per band into a reused
    int8 buffer; an offset that recurs in ``PAIR_OFFSETS`` keeps its trit
    held for its later places in the chain.  Every trit is folded into
    int8 transition and sum counts as soon as it is in place, and only the
    bin is widened.
    """
    volume = np.asarray(volume)
    if volume.ndim != 3 or not volume.size:
        raise ValueError(f"expected a non-empty (t, y, x) volume, got shape {volume.shape}")
    if not volume.min(initial=0) >= 0:         # NaN fails too
        raise FrameFormatError("cs_stltp intensities must not be negative or NaN")
    nt, ny, nx = volume.shape
    row = nx + 2
    frame = (ny + 2) * row
    flat = np.pad(volume, 1, mode="edge").astype(np.float64, copy=False).reshape(-1)
    upper = flat * (1.0 + tau)
    lower = flat * (1.0 - tau)
    bins = np.empty(volume.shape, dtype=np.int16)

    def bin_band(band):
        t, y0, y1 = band
        rows = y1 - y0
        span = (rows - 1) * row + nx    # from voxel (y0, 0) to (y1 - 1, nx - 1)
        centre = (t + 1) * frame + (y0 + 1) * row + 1   # voxel (t, y0, 0) in flat
        above = np.empty(span, dtype=bool)
        below = np.empty(span, dtype=bool)
        differs = np.empty(span, dtype=bool)
        # Alternating buffers, so a trit is never formed over its predecessor.
        scratch = (np.empty(span, dtype=np.int8), np.empty(span, dtype=np.int8))
        held = {offset: np.empty(span, dtype=np.int8) for offset in _RECURRING}
        # The counts cover whole padded rows, so they read back as (rows, row);
        # the run slices sum into their first span entries.
        transitions = np.zeros(rows * row, dtype=np.int8)
        total = np.zeros(rows * row, dtype=np.int8)
        run_transitions, run_total = transitions[:span], total[:span]
        formed = set()
        previous = None
        for i, offset in enumerate(PAIR_OFFSETS):
            trit = held.get(offset, scratch[i % 2])
            if offset not in formed:
                shift = offset[0] * frame + offset[1] * row + offset[2]
                p_m = flat[centre + shift : centre + shift + span]
                np.greater(p_m, upper[centre - shift : centre - shift + span], out=above)
                np.less(p_m, lower[centre - shift : centre - shift + span], out=below)
                np.subtract(above.view(np.int8), below.view(np.int8), out=trit)
                formed.add(offset)
            run_total += trit
            if previous is not None:
                run_transitions += np.not_equal(trit, previous, out=differs).view(np.int8)
            previous = trit
        out = bins[t, y0:y1]
        np.multiply(transitions.reshape(rows, row)[:, :nx], 3, out=out, dtype=np.int16)
        out += np.sign(total.reshape(rows, row)[:, :nx])
        out += 1

    # Two bands per frame: a 5x288x352 window bins in 4.8 ms on a 2-core
    # host against 5.4 ms with whole frames, and in 7.0 and 10.6 ms with 4
    # and 8 bands, whose shorter numpy calls hand the GIL back and forth.
    half = (ny + 1) // 2
    linalg.parallel_map(bin_band, [(t, y0, y1) for t in range(nt)
                                   for y0, y1 in ((0, half), (half, ny)) if y1 > y0])
    return bins


def cell_histograms(bins: np.ndarray, pixel_index: np.ndarray) -> np.ndarray:
    """Histograms (n, 48) of n cells cut from one bin-index volume.

    ``bins`` is a (t, y, x) volume from ``bin_volume``; row i of
    ``pixel_index`` (n, k) lists cell i's pixels as positions in one frame
    of ``bins`` flattened, and the cell pools them over every frame, so the
    whole grid is gathered by one ``np.take``.  Every voxel adds
    ``COUNTS_PER_VOXEL`` to its bin.
    """
    n = pixel_index.shape[0]
    flat = np.take(bins.reshape(bins.shape[0], -1), pixel_index, axis=1).astype(np.intp)
    flat += (np.arange(n) * HISTOGRAM_BINS)[:, None]
    counts = np.bincount(flat.reshape(-1), minlength=n * HISTOGRAM_BINS).reshape(n, HISTOGRAM_BINS)
    return counts.astype(np.float64) * COUNTS_PER_VOXEL


def brick_descriptor(
    volume, x0: int, y0: int, width: int, height: int, mode: str = MODE_CS, tau: float = DEFAULT_TAU
) -> np.ndarray:
    """Descriptor (m,) of the width x height brick at (x0, y0) of a volume.

    ``volume`` holds the full frames, (t, y, x) or (t, y, x, c), the brick
    is cut from; cs_stltp reads neighbours from it, so a brick sees across
    its own spatial boundary.
    cs_stltp: 48 raw histogram counts per channel, concatenated channel by
    channel; every voxel contributes four counts to its pattern's bin.
    rgb: voxel intensities flattened in (t, y, x, channel) order.
    """
    volume = np.asarray(volume, dtype=np.float64)
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
        return volume[:, y0 : y0 + height, x0 : x0 + width, :].reshape(-1).copy()
    if mode != MODE_CS:
        raise ValueError(f"unknown descriptor mode {mode!r}")
    pixels = np.arange(ny * nx).reshape(ny, nx)[y0 : y0 + height, x0 : x0 + width]
    pixel_index = pixels.reshape(1, -1)
    return np.concatenate(
        [cell_histograms(bin_volume(volume[..., c], tau), pixel_index)[0] for c in range(channels)]
    )
