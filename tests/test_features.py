"""Descriptor layer: ternary comparisons, pattern binning, brick histograms.

The engine's ``bin_volume`` is checked voxel by voxel against the scalar
oracles kept here (``ternary_sign``, ``cs_stltp_pixel`` and
``pattern_to_bin``, which the package does not ship), edge clamping
against an explicit padding oracle, and bin quantization against an
independent reimplementation of the transition/sign rule.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brickbg import linalg
from brickbg.features import (
    COUNTS_PER_VOXEL,
    DEFAULT_TAU,
    HISTOGRAM_BINS,
    PAIR_OFFSETS,
    PATTERN_LENGTH,
    bin_volume,
    brick_descriptor,
)
from brickbg.imageio import FrameFormatError


# --- scalar oracles -------------------------------------------------------


def ternary_sign(p_m, p_s, tau):
    """Tolerant three-way comparison of a neighbour pair: +1 when ``p_m``
    exceeds ``(1 + tau) * p_s``, -1 when it falls below ``(1 - tau) * p_s``,
    else 0."""
    if p_m > (1.0 + tau) * p_s:
        return 1
    if p_m < (1.0 - tau) * p_s:
        return -1
    return 0


def cs_stltp_pixel(volume, x, y, t, tau=DEFAULT_TAU):
    """16 int8 trits of the voxel at (x, y, t) of a (t, y, x) volume,
    plane-major; out-of-range neighbours clamp to the nearest edge."""
    volume = np.asarray(volume, dtype=np.float64)
    nt, ny, nx = volume.shape
    if not (0 <= x < nx and 0 <= y < ny and 0 <= t < nt):
        raise ValueError(f"voxel ({x}, {y}, {t}) outside volume {volume.shape}")

    def clamped(dt, dy, dx):
        return volume[min(max(t + dt, 0), nt - 1),
                      min(max(y + dy, 0), ny - 1),
                      min(max(x + dx, 0), nx - 1)]

    trits = np.empty(PATTERN_LENGTH, dtype=np.int8)
    for i, (dt, dy, dx) in enumerate(PAIR_OFFSETS):
        trits[i] = ternary_sign(clamped(dt, dy, dx), clamped(-dt, -dy, -dx), tau)
    return trits


def pattern_to_bin(trits):
    """Bin ``transitions * 3 + sign + 1`` of a 16-trit pattern: adjacent
    unequal trits (0..15) and the sign of the trit sum."""
    trits = np.asarray(trits, dtype=np.int8)
    if trits.shape != (PATTERN_LENGTH,):
        raise ValueError(f"expected {PATTERN_LENGTH} trits, got {trits.shape}")
    if not np.isin(trits, (-1, 0, 1)).all():
        raise ValueError("trits must be -1, 0 or +1")
    transitions = int(np.count_nonzero(trits[1:] != trits[:-1]))
    return transitions * 3 + int(np.sign(trits.sum())) + 1


def oracle_bins(vol, tau):
    """(t, y, x) int16 bins of a volume, voxel by voxel through the oracles."""
    bins = np.zeros(vol.shape, dtype=np.int16)
    for t, y, x in np.ndindex(*vol.shape):
        bins[t, y, x] = pattern_to_bin(cs_stltp_pixel(vol, x, y, t, tau))
    return bins


def random_volume(seed, t=5, y=6, x=6, low=20.0, high=200.0):
    gen = np.random.default_rng(seed)
    return gen.uniform(low, high, size=(t, y, x))


# --- ternary comparison ------------------------------------------------


def test_ternary_sign_table():
    assert ternary_sign(130.0, 100.0, 0.2) == 1      # above the +20% band
    assert ternary_sign(110.0, 100.0, 0.2) == 0      # inside the band
    assert ternary_sign(75.0, 100.0, 0.2) == -1      # below the -20% band
    assert ternary_sign(120.0, 100.0, 0.2) == 0      # boundary is inclusive
    assert ternary_sign(80.0, 100.0, 0.2) == 0
    assert ternary_sign(1.0, 0.0, 0.2) == 1          # zero reference


@settings(max_examples=125)
@given(st.floats(1e-3, 1e3), st.floats(0.0, 1.0), st.sampled_from((0.5, 0.9, 1.0, 1.1, 2.0)))
def test_ternary_sign_scale_invariance(p_s, tau, ratio):
    # A ratio exactly on a band edge 1 +- tau is a tie: whether the strict
    # comparison holds then depends on how ratio * p_s rounds at each scale
    # (p_s = 218.7303351351855, tau = 0.1, ratio 1.1 differ), so edges are
    # excluded, as acceptance 05 avoids them with continuous data.
    for edge in (1.0 + tau, 1.0 - tau):
        assume(abs(ratio - edge) > 1e-9 * abs(edge))
    a = ternary_sign(ratio * p_s, p_s, tau)
    b = ternary_sign(ratio * p_s * 7.5, p_s * 7.5, tau)
    assert a == b


def test_pattern_validation():
    with pytest.raises(ValueError):
        pattern_to_bin(np.zeros(15, dtype=np.int8))
    with pytest.raises(ValueError):
        pattern_to_bin(np.full(16, 2, dtype=np.int8))


# --- pattern quantization ----------------------------------------------


def oracle_bin(trits):
    transitions = sum(1 for a, b in zip(trits[:-1], trits[1:]) if a != b)
    total = sum(trits)
    sign = (total > 0) - (total < 0)
    return transitions * 3 + sign + 1


def test_pattern_to_bin_examples():
    assert pattern_to_bin([0] * 16) == 1          # uniform brick signature
    assert pattern_to_bin([1] * 16) == 2
    assert pattern_to_bin([-1] * 16) == 0
    alternating = [1, -1] * 8                      # 15 transitions, zero sum
    assert pattern_to_bin(alternating) == 46


@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=16, max_size=16))
def test_pattern_to_bin_matches_oracle(trits):
    got = pattern_to_bin(trits)
    assert got == oracle_bin(trits)
    assert 0 <= got < HISTOGRAM_BINS


# --- per-voxel patterns -------------------------------------------------


def test_pair_offsets_layout():
    assert len(PAIR_OFFSETS) == PATTERN_LENGTH
    assert (0, 0, 0) not in PAIR_OFFSETS
    # every sampling plane contains the vertical axis, so the pure-vertical
    # pair recurs once per plane; the other offsets are plane-specific
    assert PAIR_OFFSETS.count((0, -1, 0)) == 4
    assert len(set(PAIR_OFFSETS)) == 13
    # center-symmetric: the negated offset is never in the list (the partner
    # is implicit), and every offset touches the 3x3x3 neighbourhood
    for dt, dy, dx in PAIR_OFFSETS:
        assert (-dt, -dy, -dx) not in PAIR_OFFSETS
        assert max(abs(dt), abs(dy), abs(dx)) == 1


def test_uniform_volume_gives_zero_trits():
    vol = np.full((5, 4, 4), 57.0)
    trits = cs_stltp_pixel(vol, 2, 2, 2)
    assert (trits == 0).all()


def test_cs_stltp_pixel_bounds_check():
    vol = random_volume(0)
    with pytest.raises(ValueError):
        cs_stltp_pixel(vol, 6, 0, 0)
    with pytest.raises(ValueError):
        cs_stltp_pixel(vol, 0, 0, 5)


@given(st.integers(0, 2**31 - 1))
def test_edge_clamping_matches_padding_oracle(seed):
    """A pattern at the boundary equals the interior pattern of the
    edge-replicated volume: clamping is exactly edge padding."""
    vol = random_volume(seed, t=3, y=4, x=4)
    padded = np.pad(vol, 1, mode="edge")
    for (x, y, t) in ((0, 0, 0), (3, 0, 2), (0, 3, 1), (3, 3, 2)):
        direct = cs_stltp_pixel(vol, x, y, t)
        via_pad = cs_stltp_pixel(padded, x + 1, y + 1, t + 1)
        assert np.array_equal(direct, via_pad)


@given(st.integers(0, 2**31 - 1))
def test_bin_volume_matches_scalar_reference(seed):
    """Every voxel, on shapes with unit axes, at several tolerances, and on
    integer-valued volumes whose ratios land exactly on the band edges."""
    gen = np.random.default_rng(seed)
    for shape in ((3, 4, 5), (1, 1, 1), (2, 3, 1), (3, 1, 4), (1, 5, 1)):
        for tau in (0.0, 0.2, 0.5):
            for vol in (gen.uniform(20.0, 200.0, size=shape),
                        gen.integers(0, 6, size=shape).astype(np.float64)):
                bins = bin_volume(vol, tau)
                assert bins.shape == shape and bins.dtype == np.int16
                assert np.array_equal(bins, oracle_bins(vol, tau))


@pytest.mark.parametrize("cpus", [1, 2, 3, 5, 8])
def test_bin_volume_is_the_same_in_any_number_of_shares(monkeypatch, cpus):
    """The whole volume is one run, cut into one contiguous piece per
    runner, each piece one item of ``linalg.parallel_map``; no frame is
    cut into row halves.  Any count of runners gives the one-runner bins,
    for ``uint8`` volumes and float64 ones: at 3 the cuts land mid-row, and
    at 8 the 1x1x2 volume has fewer voxels than runners."""
    gen = np.random.default_rng(6)
    shapes = [(5, rows, 11) for rows in (1, 2, 3, 9)] + [(1, 1, 2)]
    volumes = [gen.integers(0, 8, size=shape).astype(np.uint8) for shape in shapes]
    volumes += [gen.uniform(20.0, 200.0, size=shape) for shape in shapes]
    wholes = [bin_volume(vol) for vol in volumes]
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(linalg, "CPUS", cpus)
    monkeypatch.setattr(linalg, "_POOL", pool)
    try:
        shared = [bin_volume(vol) for vol in volumes]
    finally:
        pool.shutdown()
    for vol, whole, bins in zip(volumes, wholes, shared):
        assert bins.dtype == whole.dtype and np.array_equal(bins, whole), (vol.dtype, vol.shape)
        assert np.array_equal(bins, oracle_bins(vol, DEFAULT_TAU)), (vol.dtype, vol.shape)


def all_pairs_volume():
    """(3, 3, 3 * 65536) uint8 volume of 3x3x3 cubes side by side.  The
    centre of cube k has p_m = k // 256 at each of the 13 distinct
    ``PAIR_OFFSETS`` and p_s = k % 256 at its negation, so every offset
    direction meets every pair of 8-bit values, and the centre's 16 trits
    are all equal."""
    first = np.zeros((3, 3, 3), dtype=bool)
    for dt, dy, dx in PAIR_OFFSETS:
        first[1 + dt, 1 + dy, 1 + dx] = True
    assert first.sum() == 13 and not (first & first[::-1, ::-1, ::-1]).any()
    p_m, p_s = np.divmod(np.arange(256 * 256), 256)
    cubes = np.where(first[:, :, None, :], p_m[:, None], p_s[:, None])     # (3, 3, k, 3)
    return cubes.reshape(3, 3, -1).astype(np.uint8), p_m, p_s


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [0.0, 0.05, 0.2, 1 / 3, 0.5, 0.999, 1.0, 1.5, 2.5, 254.0, 1e300])
def test_uint8_bins_equal_the_float64_bins_for_every_pair(tau):
    """A ``uint8`` volume is compared against bounds from 256-entry tables
    of the float64 products rounded to integers; for every (p_m, p_s) pair
    along every offset, and at tolerances where the bounds leave 0..255,
    it bins as its float64 copy does, which the scalar rule confirms at the
    cube centres (bin 2, 1 or 0 for trits all +1, 0 or -1)."""
    vol, p_m, p_s = all_pairs_volume()
    bins = bin_volume(vol, tau)
    assert np.array_equal(bins, bin_volume(vol.astype(np.float64), tau))
    trit = (p_m > (1.0 + tau) * p_s).astype(int) - (p_m < (1.0 - tau) * p_s)
    assert np.array_equal(bins[1, 1, 1::3], trit + 1)


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float32, np.float64])
def test_bin_volume_returns_int16(dtype):
    vol = np.random.default_rng(4).integers(0, 200, size=(5, 7, 9)).astype(dtype)
    for part in (vol, vol[:1, :1, :1]):
        bins = bin_volume(part)
        assert bins.dtype == np.int16 and bins.shape == part.shape


def ramp(shape, sign):
    """2 ** (sign * L(t, y, x)), L = 2t - 10y + x: every PAIR_OFFSETS
    displacement o has L(o) >= 1, so each pair's ratio p_m / p_s is at
    least 4 (sign +1) or at most 1/4 (sign -1), exactly."""
    t, y, x = np.indices(shape)
    return 2.0 ** (sign * (2 * t - 10 * y + x))


@pytest.mark.parametrize("tau", [0.0, 0.2, 0.5])
def test_crafted_volumes_reach_the_extreme_bins(tau):
    """All 16 trits +1 give bin 2 (no transition, positive sum), all -1
    give bin 0 and all 0 give bin 1, so the int8 sum reaches +-16."""
    shape = (4, 5, 6)
    interior = (slice(1, -1),) * 3
    for sign, trit, want in ((1, 1, 2), (-1, -1, 0)):
        vol = ramp(shape, sign)
        assert (cs_stltp_pixel(vol, 2, 2, 1, tau) == trit).all()
        assert (bin_volume(vol, tau)[interior] == want).all()
        assert np.array_equal(bin_volume(vol, tau), oracle_bins(vol, tau))
    assert (bin_volume(np.full(shape, 31.0), tau) == 1).all()


def test_vertical_pair_on_band_edge_matches_oracle():
    """Intensities g(y) h(t, x) with g(y - 1) / g(y + 1) exactly 1 + tau or
    1 - tau, and h distinct primes: only the vertical pair (0, -1, 0), the
    one offset whose trit is held across the planes, sits on a band edge,
    where the strict comparisons give 0.  The primes span more than a
    factor of 3, so the diagonal pairs beside it take all three trits."""
    tau = 0.5
    g = np.array([81.0, 96.0, 54.0, 64.0, 108.0, 128.0, 72.0])
    primes = [n for n in range(5, 400) if all(n % k for k in range(2, 20))]
    h = np.random.default_rng(6).choice(primes, size=(4, 6), replace=False).astype(np.float64)
    vol = g[None, :, None] * h[:, None, :]
    nt, ny, nx = vol.shape

    def at(t, y, x):
        return vol[min(max(t, 0), nt - 1), min(max(y, 0), ny - 1), min(max(x, 0), nx - 1)]

    on_edge = {}
    for t, y, x in np.ndindex(*vol.shape):
        for dt, dy, dx in PAIR_OFFSETS:
            p_m, p_s = at(t + dt, y + dy, x + dx), at(t - dt, y - dy, x - dx)
            for edge in (1.0 + tau, 1.0 - tau):
                if p_m == edge * p_s:
                    on_edge.setdefault((dt, dy, dx), set()).add(edge)
    assert on_edge == {(0, -1, 0): {1.0 + tau, 1.0 - tau}}
    assert np.array_equal(bin_volume(vol, tau), oracle_bins(vol, tau))


def test_brick_descriptor_refuses_negative_intensities():
    """Below zero the trit rule breaks: with p_s < 0 both p_m > (1 + tau) p_s
    and p_m < (1 - tau) p_s can hold, and ``bin_volume`` then gives 0 where
    the rule gives +1 (17 of 60 voxels of a uniform(-50, 50) 3x4x5 volume
    at tau 0.2 got another bin).  rgb descriptors take any finite value."""
    vol = np.random.default_rng(3).uniform(-50.0, 50.0, size=(5, 8, 8))
    with pytest.raises(ValueError, match="negative"):
        brick_descriptor(vol, 2, 2, 4, 4, "cs_stltp")
    assert np.array_equal(brick_descriptor(vol, 2, 2, 4, 4, "rgb"), vol[:, 2:6, 2:6].reshape(-1))
    assert brick_descriptor(np.abs(vol), 2, 2, 4, 4, "cs_stltp").sum() == 320


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, -0.5])
def test_invalid_tau_is_refused(tau):
    """The trit rule needs a finite tau >= 0: at NaN or inf every voxel used
    to get bin 1, and at -0.5 both comparisons can hold (bins 10-19 on a
    uniform(20, 200) volume), all without notice."""
    vol = random_volume(8)
    for volume in (vol, vol.astype(np.uint8)):
        with pytest.raises(ValueError, match="tau"):
            bin_volume(volume, tau)
        with pytest.raises(ValueError, match="tau"):
            brick_descriptor(volume, 1, 1, 4, 4, "cs_stltp", tau)


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_bin_volume_refuses_negative_and_nan(bad):
    """``bin_volume`` is where the trit rule is applied, so it refuses what
    the rule cannot bin; it used to bin such volumes without notice."""
    vol = np.random.default_rng(5).uniform(0.0, 255.0, size=(5, 6, 7))
    vol[2, 3, 4] = bad
    with pytest.raises(FrameFormatError, match="negative"):
        bin_volume(vol)


# --- brick descriptors --------------------------------------------------


def make_volume(seed, channels=1, t=5, frame=8):
    gen = np.random.default_rng(seed)
    return gen.uniform(20, 200, size=(t, frame, frame, channels))


def centre_descriptor(vol, mode):
    """Descriptor of the 4x4 brick at (2, 2) of an 8x8 volume."""
    return brick_descriptor(vol, 2, 2, 4, 4, mode)


@given(st.integers(0, 2**31 - 1))
def test_histogram_mass_is_four_counts_per_voxel(seed):
    desc = centre_descriptor(make_volume(seed), "cs_stltp")
    assert desc.shape == (HISTOGRAM_BINS,)
    assert desc.sum() == COUNTS_PER_VOXEL * 4 * 4 * 5  # = 320
    assert (desc >= 0).all()
    assert (desc % COUNTS_PER_VOXEL == 0).all()


def test_cs_descriptor_matches_scalar_histogram():
    volume = make_volume(5, channels=2)
    desc = centre_descriptor(volume, "cs_stltp")
    want = np.zeros(2 * HISTOGRAM_BINS)
    for c in range(2):
        vol = volume[..., c]
        for t in range(volume.shape[0]):
            for y in range(2, 6):
                for x in range(2, 6):
                    want[c * HISTOGRAM_BINS + pattern_to_bin(cs_stltp_pixel(vol, x, y, t))] += COUNTS_PER_VOXEL
    assert np.array_equal(desc, want)


def test_histogram_mass_per_channel():
    desc = centre_descriptor(make_volume(7, channels=3), "cs_stltp")
    assert desc.shape == (3 * HISTOGRAM_BINS,)
    per_channel = desc.reshape(3, HISTOGRAM_BINS).sum(axis=1)
    assert (per_channel == 320).all()


def test_multichannel_descriptor_concatenates_channels():
    volume = make_volume(8, channels=3)
    desc = centre_descriptor(volume, "cs_stltp")
    for c in range(3):
        part = centre_descriptor(volume[..., c], "cs_stltp")
        assert np.array_equal(desc[c * HISTOGRAM_BINS : (c + 1) * HISTOGRAM_BINS], part)


def test_uniform_brick_concentrates_in_zero_pattern_bin():
    desc = centre_descriptor(np.full((5, 8, 8, 1), 90.0), "cs_stltp")
    assert desc[1] == 320
    assert desc.sum() == 320


def test_rgb_descriptor_is_flattened_voxels():
    vol = np.arange(5 * 8 * 8 * 3, dtype=np.float64).reshape(5, 8, 8, 3)
    desc = brick_descriptor(vol, 1, 3, 4, 4, "rgb")
    expected = vol[:, 3:7, 1:5, :].reshape(-1)
    assert np.array_equal(desc, expected)


@given(st.integers(0, 2**31 - 1), st.sampled_from([0.5, 0.8, 1.25]))
def test_cs_descriptor_scale_invariance(seed, scale):
    volume = make_volume(seed)
    a = centre_descriptor(volume, "cs_stltp")
    b = centre_descriptor(volume * scale, "cs_stltp")
    assert np.array_equal(a, b)


def test_rgb_descriptor_not_scale_invariant():
    volume = make_volume(3)
    a = centre_descriptor(volume, "rgb")
    b = centre_descriptor(volume * 1.25, "rgb")
    assert not np.array_equal(a, b)


def test_brick_descriptor_validation():
    vol = np.zeros((5, 8, 8))
    # a 3-D volume means one channel
    assert brick_descriptor(vol, 0, 0, 4, 4, "rgb").shape == (5 * 4 * 4,)
    assert brick_descriptor(vol, 0, 0, 4, 4, "cs_stltp").shape == (HISTOGRAM_BINS,)
    for mode in ("cs_stltp", "rgb"):
        with pytest.raises(ValueError):
            brick_descriptor(vol, 6, 0, 4, 4, mode)       # x-window outside
        with pytest.raises(ValueError):
            brick_descriptor(vol, 0, 5, 4, 4, mode)       # y-window outside
        with pytest.raises(ValueError):
            brick_descriptor(vol, -1, 0, 4, 4, mode)      # negative origin
        with pytest.raises(ValueError):
            brick_descriptor(vol, 0, 0, 0, 4, mode)       # empty width
        with pytest.raises(ValueError):
            brick_descriptor(vol, 0, 0, 4, 0, mode)       # empty height
        with pytest.raises(ValueError):
            brick_descriptor(np.zeros((0, 8, 8)), 0, 0, 4, 4, mode)   # no frames
        with pytest.raises(ValueError):
            brick_descriptor(np.zeros((8, 8)), 0, 0, 4, 4, mode)      # 2-D
        with pytest.raises(ValueError):
            brick_descriptor(np.zeros((5, 8, 8, 1, 1)), 0, 0, 4, 4, mode)  # 5-D


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        centre_descriptor(make_volume(4), "hsv")
