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

Patterns and descriptors are plain arrays: ``cs_stltp_pixel`` returns the
16 int8 trits of one voxel and ``brick_descriptor`` the (m,) vector of one
brick, both per-cell views of the path the engine runs (``bin_volume``
then ``cell_histograms``).  ``cell_histograms`` pools every cell at once
through a flat voxel index, each cell's voxels as positions in the
flattened bin volume (``pipeline.GridGeometry.voxel_index`` for the grid).
"""

from __future__ import annotations

import numpy as np

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


def ternary_sign(p_m: float, p_s: float, tau: float) -> int:
    """Tolerant three-way comparison of a neighbour pair.

    +1 when ``p_m`` exceeds ``(1 + tau) * p_s``, -1 when it falls below
    ``(1 - tau) * p_s``, else 0.
    """
    if p_m > (1.0 + tau) * p_s:
        return 1
    if p_m < (1.0 - tau) * p_s:
        return -1
    return 0


def _check_volume(volume) -> np.ndarray:
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 3:
        raise ValueError(f"expected a (t, y, x) volume, got shape {volume.shape}")
    return volume


def cs_stltp_pixel(volume, x: int, y: int, t: int, tau: float = DEFAULT_TAU) -> np.ndarray:
    """16 int8 trits of the voxel at (x, y, t) in a single-channel volume.

    The trits run plane-major: four planes x four center-symmetric pairs.

    ``volume`` is indexed (t, y, x); out-of-range neighbours clamp to the
    nearest edge, including before frame 0.
    """
    volume = _check_volume(volume)
    nt, ny, nx = volume.shape
    if not (0 <= x < nx and 0 <= y < ny and 0 <= t < nt):
        raise ValueError(f"voxel ({x}, {y}, {t}) outside volume {volume.shape}")
    trits = np.empty(PATTERN_LENGTH, dtype=np.int8)
    for i, (dt, dy, dx) in enumerate(PAIR_OFFSETS):
        pm = volume[
            min(max(t + dt, 0), nt - 1),
            min(max(y + dy, 0), ny - 1),
            min(max(x + dx, 0), nx - 1),
        ]
        ps = volume[
            min(max(t - dt, 0), nt - 1),
            min(max(y - dy, 0), ny - 1),
            min(max(x - dx, 0), nx - 1),
        ]
        trits[i] = ternary_sign(pm, ps, tau)
    return trits


def pattern_to_bin(trits) -> int:
    """Quantize a 16-trit pattern to one of 48 histogram bins.

    Bin index is ``transitions * 3 + sign + 1`` where ``transitions``
    counts adjacent unequal trits (0..15) and ``sign`` is the sign of the
    trit sum.  Every trit must be -1, 0 or +1.
    """
    trits = np.asarray(trits, dtype=np.int8)
    if trits.shape != (PATTERN_LENGTH,):
        raise ValueError(f"expected {PATTERN_LENGTH} trits, got {trits.shape}")
    if not np.isin(trits, (-1, 0, 1)).all():
        raise ValueError("trits must be -1, 0 or +1")
    transitions = int(np.count_nonzero(trits[1:] != trits[:-1]))
    s = int(np.sign(trits.sum()))
    return transitions * 3 + s + 1


def bin_volume(volume, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Histogram-bin index of every voxel in a single-channel volume.

    One pass over ``PAIR_OFFSETS``: both members of a pair are slice views
    of the edge-padded volume (every offset is within one voxel on each
    axis), and each pair's trit is folded into the transition count and the
    trit sum as soon as it is formed.
    """
    volume = _check_volume(volume)
    padded = np.pad(volume, 1, mode="edge")

    def at(offset):
        return padded[tuple(slice(1 + o, 1 + o + n) for o, n in zip(offset, volume.shape))]

    transitions = np.zeros(volume.shape, dtype=np.int16)
    total = np.zeros(volume.shape, dtype=np.int16)
    previous = None
    for offset in PAIR_OFFSETS:
        pm = at(offset)
        ps = at(tuple(-o for o in offset))
        trit = (pm > (1.0 + tau) * ps).astype(np.int8) - (pm < (1.0 - tau) * ps)
        if previous is not None:
            transitions += trit != previous
        total += trit
        previous = trit
    return transitions * 3 + np.sign(total) + 1


def cell_histograms(bins: np.ndarray, voxel_index: np.ndarray) -> np.ndarray:
    """Histograms (n, 48) of n cells cut from one bin-index volume.

    ``bins`` is a (t, y, x) volume from ``bin_volume``; row i of
    ``voxel_index`` (n, k) lists cell i's voxels as positions in ``bins``
    flattened, so the whole grid is gathered by one ``np.take``.  Every
    voxel adds ``COUNTS_PER_VOXEL`` to its bin.
    """
    n = voxel_index.shape[0]
    flat = np.take(bins.reshape(-1), voxel_index).astype(np.intp)
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
    voxels = np.arange(nt * ny * nx).reshape(nt, ny, nx)[:, y0 : y0 + height, x0 : x0 + width]
    voxel_index = voxels.reshape(1, -1)
    return np.concatenate(
        [cell_histograms(bin_volume(volume[..., c], tau), voxel_index)[0] for c in range(channels)]
    )
