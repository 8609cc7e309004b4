"""Data pipeline tests: frame codecs, color conversion, optical flow against
known motions, crop geometry, the pair stream's draws, splits, and the
synthetic dataset generator."""

import hashlib
import shutil
import sys
import threading
import warnings

import numpy as np
import pytest

from astpn import datapipe
from astpn.datapipe import (
    CROP_MARGIN,
    DatasetError,
    FLOW_DAMPING,
    FLOW_MAX_PX,
    FLOW_WINDOW_RADIUS,
    ChannelStack,
    RawSequence,
    SequenceSample,
    SequenceView,
    channel_stats,
    crop_view,
    identity_labels,
    load_dataset,
    lucas_kanade_flow,
    make_split,
    pair_stream,
    pick_cameras,
    preprocess_dataset,
    read_frame,
    read_ppm,
    rgb_to_yuv,
    standardize_channels,
    synth_dataset,
    write_ppm,
    write_split_files,
)
from astpn.evalkit import eval_sequence
from astpn.model import LossConfig, extract_feature, init_params
from astpn.tensor import _cpu_runs


# ---- reference implementations: the straightforward forms that the
# preprocessing must match bit for bit ----


def ref_box_sum(img, radius):
    h, w = img.shape[-2:]
    ii = np.zeros(img.shape[:-2] + (h + 1, w + 1))
    ii[..., 1:, 1:] = img.cumsum(axis=-2).cumsum(axis=-1)
    r0 = np.clip(np.arange(h) - radius, 0, h)[:, None]
    r1 = np.clip(np.arange(h) + radius + 1, 0, h)[:, None]
    c0 = np.clip(np.arange(w) - radius, 0, w)
    c1 = np.clip(np.arange(w) + radius + 1, 0, w)
    return ii[..., r1, c1] - ii[..., r0, c1] - ii[..., r1, c0] + ii[..., r0, c0]


def ref_flow(prev, nxt):
    gy, gx = np.gradient(prev, axis=(-2, -1))
    gt = nxt - prev
    sxx = ref_box_sum(gx * gx, FLOW_WINDOW_RADIUS) + FLOW_DAMPING
    syy = ref_box_sum(gy * gy, FLOW_WINDOW_RADIUS) + FLOW_DAMPING
    sxy = ref_box_sum(gx * gy, FLOW_WINDOW_RADIUS)
    sxt = ref_box_sum(gx * gt, FLOW_WINDOW_RADIUS)
    syt = ref_box_sum(gy * gt, FLOW_WINDOW_RADIUS)
    det = sxx * syy - sxy * sxy
    u = (-syy * sxt + sxy * syt) / det
    v = (sxy * sxt - sxx * syt) / det
    return np.clip(np.stack([u, v], axis=-3) / FLOW_MAX_PX, -1.0, 1.0)


def ref_yuv(frame):
    f = np.asarray(frame, dtype=np.float64)
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    return np.stack([y, 0.492 * (b - y), 0.877 * (r - y)])


def ref_preprocess(raw):
    yuv = np.stack([ref_yuv(f) for f in raw.frames])
    std = np.empty_like(yuv)
    for c in range(3):
        channel = yuv[:, c]
        sd = channel.std()
        std[:, c] = 0.0 if sd < 1e-12 else (channel - channel.mean()) / sd
    lum = yuv[:, 0]
    if len(lum) > 1:
        flows = ref_flow(lum[:-1], lum[1:])
        flows = np.concatenate([flows, flows[-1:]])
    else:
        flows = np.zeros((1, 2) + lum.shape[1:])
    return np.concatenate([std, flows], axis=1)


def ref_view(raw, idx, top, left, mirror):
    """ref_preprocess cut by the crop rule that crop_view once applied to
    the whole preprocessed stack: frames idx, cropped from (top, left),
    then flipped left to right with the horizontal flow negated."""
    full = ref_preprocess(raw)
    h, w = full.shape[2:]
    out = full[idx][:, :, top:top + h - CROP_MARGIN, left:left + w - CROP_MARGIN]
    if mirror:
        out = out[:, :, :, ::-1].copy()
        out[:, 3] = -out[:, 3]
    return out


def random_raw(rng, n, hw, pid="p", cam="c"):
    return RawSequence(pid, cam, list(rng.integers(0, 256, size=(n,) + hw + (3,), dtype=np.uint8)))


def sample_of(raw):
    return preprocess_dataset([raw])[0]


def smooth_image(rng, h, w):
    """A low-frequency test pattern; flow estimation needs smooth gradients."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    img = (np.sin(2 * np.pi * xx / w) * np.cos(2 * np.pi * yy / h)
           + 0.5 * np.sin(4 * np.pi * (xx + yy) / (h + w)))
    return 128.0 + 80.0 * img / np.abs(img).max()


# ---- PPM codec ----


def test_ppm_roundtrip_is_exact(tmp_path, rng):
    rgb = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    path = tmp_path / "frame.ppm"
    write_ppm(path, rgb)
    np.testing.assert_array_equal(read_ppm(path), rgb)


def test_ppm_header_with_comments(tmp_path):
    rgb = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6 # comment\n# another\n2 2\n255\n" + rgb.tobytes())
    np.testing.assert_array_equal(read_ppm(path), rgb)


def test_ppm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(DatasetError, match="magic"):
        read_ppm(path)


def test_ppm_rejects_short_raster(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + bytes(5))
    with pytest.raises(DatasetError, match="raster"):
        read_ppm(path)


def test_read_frame_rejects_unknown_suffix(tmp_path):
    path = tmp_path / "frame.bmp"
    path.write_bytes(b"")
    with pytest.raises(DatasetError, match="format"):
        read_frame(path)


def test_ppm_rejects_empty_image(tmp_path):
    path = tmp_path / "empty.ppm"
    path.write_bytes(b"P6\n0 4\n255\n")
    with pytest.raises(DatasetError, match="0x4"):
        read_ppm(path)


def test_read_frame_of_a_directory_names_the_path(tmp_path):
    path = tmp_path / "zz.ppm"
    path.mkdir()
    with pytest.raises(DatasetError, match="zz.ppm: cannot read frame"):
        read_frame(path)


def test_read_frame_png_roundtrip(tmp_path, rng):
    PIL = pytest.importorskip("PIL.Image")
    rgb = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
    path = tmp_path / "frame.png"
    PIL.fromarray(rgb).save(path)
    np.testing.assert_array_equal(read_frame(path), rgb)


# ---- dataset walking ----


def test_load_dataset_structure(synth_root):
    seqs = load_dataset(synth_root)
    assert len(seqs) == 16
    assert {s.person_id for s in seqs} == {f"p{i:03d}" for i in range(8)}
    assert all(len(s.frames) == 16 for s in seqs)
    assert all(s.frames[0].shape == (24, 16, 3) for s in seqs)
    # lexicographic file order is temporal order
    for s in seqs:
        names = sorted((synth_root / s.person_id / s.camera_id).iterdir())
        for frame, name in zip(s.frames, names, strict=True):
            np.testing.assert_array_equal(frame, read_frame(name))


def test_load_dataset_missing_root(tmp_path):
    with pytest.raises(DatasetError, match="does not exist"):
        load_dataset(tmp_path / "nope")


def test_load_dataset_root_that_is_a_file(tmp_path):
    root = tmp_path / "data"
    root.write_text("not a directory\n")
    with pytest.raises(DatasetError, match="is not a directory"):
        load_dataset(root)


def test_load_dataset_warns_on_single_camera(tmp_path, rng):
    rgb = rng.integers(0, 256, size=(10, 10, 3), dtype=np.uint8)
    write_ppm(tmp_path / "solo" / "cam0" / "00000.ppm", rgb)
    with pytest.warns(UserWarning, match="cross-camera"):
        seqs = load_dataset(tmp_path)
    assert len(seqs) == 1


def test_load_dataset_rejects_mixed_frame_sizes(tmp_path, rng):
    big = rng.integers(0, 256, size=(12, 10, 3), dtype=np.uint8)
    small = rng.integers(0, 256, size=(10, 10, 3), dtype=np.uint8)
    write_ppm(tmp_path / "p0" / "cam0" / "00000.ppm", big)
    write_ppm(tmp_path / "p0" / "cam0" / "00001.ppm", small)
    write_ppm(tmp_path / "p0" / "cam1" / "00000.ppm", big)
    with pytest.raises(DatasetError, match="differs"):
        load_dataset(tmp_path)



def test_load_dataset_skips_dot_named_directories_and_frames(synth_root, tmp_path):
    # a notebook's checkpoint copy of an identity, a cache inside an
    # identity and a hidden frame file are none of them data
    root = tmp_path / "data"
    shutil.copytree(synth_root, root)
    shutil.copytree(synth_root / "p000", root / ".ipynb_checkpoints")
    shutil.copytree(synth_root / "p001" / "cam0", root / "p001" / ".cache")
    shutil.copy(synth_root / "p002" / "cam0" / "00000.ppm", root / "p002" / "cam0" / ".zz.ppm")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seqs = load_dataset(root)
    expected = load_dataset(synth_root)
    assert [(s.person_id, s.camera_id) for s in seqs] == \
        [(s.person_id, s.camera_id) for s in expected]
    for got, want in zip(seqs, expected):
        assert all(np.array_equal(a, b) for a, b in zip(got.frames, want.frames, strict=True))

# ---- color conversion ----


def test_yuv_white_and_black():
    white = np.full((2, 2, 3), 255, dtype=np.uint8)
    yuv = rgb_to_yuv(white)
    np.testing.assert_allclose(yuv[0], 255.0, rtol=1e-12)  # 0.299+0.587+0.114 = 1
    np.testing.assert_allclose(yuv[1], 0.0, atol=1e-10)
    np.testing.assert_allclose(yuv[2], 0.0, atol=1e-10)
    np.testing.assert_array_equal(rgb_to_yuv(np.zeros((2, 2, 3), dtype=np.uint8)), 0.0)


def test_yuv_of_a_stack_is_the_stack_of_frames_bitwise(rng):
    frames = rng.integers(0, 256, size=(2, 3, 5, 7, 3), dtype=np.uint8)
    out = rgb_to_yuv(frames)
    assert out.shape == (2, 3, 3, 5, 7)
    ref = np.stack([[ref_yuv(f) for f in row] for row in frames])
    assert out.tobytes() == ref.tobytes()
    assert rgb_to_yuv(frames[0, 0]).tobytes() == ref_yuv(frames[0, 0]).tobytes()


def test_yuv_pure_red_weights():
    red = np.zeros((1, 1, 3), dtype=np.uint8)
    red[..., 0] = 255
    yuv = rgb_to_yuv(red)
    assert yuv[0, 0, 0] == pytest.approx(0.299 * 255, rel=1e-12)
    assert yuv[1, 0, 0] == pytest.approx(0.492 * (0 - 0.299 * 255), rel=1e-12)
    assert yuv[2, 0, 0] == pytest.approx(0.877 * (255 - 0.299 * 255), rel=1e-12)


def test_standardize_channels_zero_mean_unit_variance(rng):
    stack = rng.uniform(0, 255, size=(6, 3, 10, 8))
    out = standardize_channels(stack)
    for c in range(3):
        assert abs(out[:, c].mean()) < 1e-10
        assert out[:, c].std() == pytest.approx(1.0, abs=1e-6)


def test_standardize_constant_channel_is_zeroed():
    stack = np.full((4, 2, 5, 5), 37.0)
    stack[:, 1] = np.random.default_rng(0).uniform(0, 255, size=(4, 5, 5))
    out = standardize_channels(stack)
    np.testing.assert_array_equal(out[:, 0], 0.0)
    assert out[:, 1].std() > 0


# ---- optical flow ----


def test_flow_identical_frames_is_exactly_zero(rng):
    img = smooth_image(rng, 20, 24)
    flow = lucas_kanade_flow(img, img)
    np.testing.assert_array_equal(flow, 0.0)


def test_flow_recovers_one_pixel_horizontal_shift(rng):
    img = smooth_image(rng, 24, 32)
    shifted = np.roll(img, 1, axis=1)
    flow = lucas_kanade_flow(img, shifted) * FLOW_MAX_PX
    interior = flow[:, 4:-4, 4:-4]
    assert abs(interior[0].mean() - 1.0) < 0.25  # horizontal component
    assert abs(interior[1].mean()) < 0.25        # no vertical motion


def test_flow_recovers_one_pixel_vertical_shift(rng):
    img = smooth_image(rng, 24, 32)
    shifted = np.roll(img, 1, axis=0)
    flow = lucas_kanade_flow(img, shifted) * FLOW_MAX_PX
    interior = flow[:, 4:-4, 4:-4]
    assert abs(interior[1].mean() - 1.0) < 0.25
    assert abs(interior[0].mean()) < 0.25


def test_flow_direction_flips_with_motion(rng):
    img = smooth_image(rng, 24, 32)
    fwd = lucas_kanade_flow(img, np.roll(img, 1, axis=1))
    back = lucas_kanade_flow(img, np.roll(img, -1, axis=1))
    assert fwd[0, 8:-8, 8:-8].mean() > 0 > back[0, 8:-8, 8:-8].mean()


def test_flow_is_clipped_to_unit_range(rng):
    a = rng.uniform(0, 255, size=(16, 16))
    b = rng.uniform(0, 255, size=(16, 16))
    flow = lucas_kanade_flow(a, b)
    assert flow.max() <= 1.0
    assert flow.min() >= -1.0


def test_flow_flat_frames_give_zero():
    flat = np.full((12, 12), 99.0)
    np.testing.assert_array_equal(lucas_kanade_flow(flat, flat), 0.0)


def test_flow_shape_mismatch():
    with pytest.raises(DatasetError):
        lucas_kanade_flow(np.zeros((4, 4)), np.zeros((5, 4)))


@pytest.mark.parametrize("hw", [(1, 20), (20, 1), (1, 1), (0, 4)])
def test_flow_rejects_frames_under_two_by_two(hw):
    with pytest.raises(DatasetError, match="at least 2x2"):
        lucas_kanade_flow(np.zeros(hw), np.ones(hw))


def test_box_sum_matches_reference_bitwise(rng):
    for lead in ((), (2,), (2, 3)):
        for h in range(1, 13):
            for w in range(1, 13):
                img = rng.standard_normal(lead + (h, w)) * 100.0
                for radius in (1, 2, 3):
                    got = datapipe._box_sum(img, radius)
                    assert got.shape == img.shape
                    assert got.tobytes() == ref_box_sum(img, radius).tobytes(), (lead, h, w, radius)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2), (2, 3, 5), (4, 24, 16), (2, 72, 40),
                                   (17, 9)])
def test_flow_matches_reference_bitwise(rng, shape):
    prev = rng.uniform(0, 255, size=shape)
    nxt = prev + rng.normal(0, 10, size=shape)
    got = lucas_kanade_flow(prev, nxt)
    assert got.tobytes() == ref_flow(prev, nxt).tobytes()


# ---- preprocessing ----


def test_preprocess_sequence_channel_layout(rng):
    frames = [rng.integers(0, 256, size=(16, 12, 3), dtype=np.uint8) for _ in range(4)]
    raw = RawSequence("p0", "cam0", frames)
    sample = preprocess_dataset([raw])[0]
    assert sample.frames.dtype == np.uint8 and sample.frames.shape == (4, 16, 12, 3)
    assert sample.n_frames == 4
    assert sample.frame_hw == (16, 12)
    yuv = np.stack([rgb_to_yuv(f) for f in frames])
    assert sample.stats.tobytes() == channel_stats(yuv).tobytes()
    built = eval_sequence(sample, None).channels()
    assert built.shape == (4, 5, 8, 4)
    np.testing.assert_array_equal(built[:, :3], standardize_channels(yuv)[:, :, 4:12, 4:8])
    # flow reads the luminance of the full frames before standardization
    np.testing.assert_array_equal(built[0, 3:],
                                  lucas_kanade_flow(yuv[0, 0], yuv[1, 0])[:, 4:12, 4:8])


def test_preprocess_last_frame_reuses_previous_flow(rng):
    sample = sample_of(random_raw(rng, 3, (14, 10)))
    built = crop_view(sample, slice(None), 3, 1, False)
    np.testing.assert_array_equal(built[2, 3:], built[1, 3:])
    # a draw that holds the last frame alone still flows from the frame before
    np.testing.assert_array_equal(crop_view(sample, [2], 3, 1, False), built[2:])


def test_preprocess_single_frame_has_zero_flow(rng):
    sample = sample_of(random_raw(rng, 1, (14, 10)))
    np.testing.assert_array_equal(crop_view(sample, [0, 0], 4, 4, False)[:, 3:], 0.0)


@pytest.mark.parametrize("size,n_ids,frames", [((24, 16), 8, 16), ((72, 40), 2, 6)])
def test_preprocess_dataset_matches_reference_bitwise(tmp_path, size, n_ids, frames):
    synth_dataset(tmp_path, n_ids=n_ids, n_cams=2, frames_per_seq=frames, size=size, seed=3)
    raws = load_dataset(tmp_path)
    raws.append(RawSequence("solo", "cam0", raws[0].frames[:1]))
    samples = preprocess_dataset(raws)
    for raw, sample in zip(raws, samples, strict=True):
        assert sample.frames.tobytes() == np.stack(raw.frames).tobytes()
        built = eval_sequence(sample, None).channels()
        assert built.tobytes() == ref_view(raw, slice(None), 4, 4, False).tobytes()
        assert built.shape == (len(raw.frames), 5) + tuple(x - CROP_MARGIN for x in size)


def test_preprocess_dataset_keeps_input_order_and_joins_its_threads(fake_cpus, rng):
    fake_cpus(3)
    raws = [random_raw(rng, 2 + i % 3, (12, 10), pid=f"p{i}") for i in range(7)]
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more workers than cores, switching as often as it can
    try:
        samples = preprocess_dataset(raws)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert [s.person_id for s in samples] == [r.person_id for r in raws]
    for raw, sample in zip(raws, samples):
        assert (eval_sequence(sample, None).channels().tobytes()
                == ref_view(raw, slice(None), 4, 4, False).tobytes())
    assert preprocess_dataset([]) == []


def test_preprocess_dataset_on_one_cpu_starts_no_thread(monkeypatch, fake_cpus, synth_root):
    raws = load_dataset(synth_root)[:3]
    fake_cpus(1)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    samples = preprocess_dataset(raws)
    assert ([eval_sequence(s, None).channels().tobytes() for s in samples]
            == [ref_view(r, slice(None), 4, 4, False).tobytes() for r in raws])


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_cpu_runs_cut_items_into_one_contiguous_run_per_cpu(monkeypatch, fake_cpus, n, cpus):
    fake_cpus(cpus)
    runs = _cpu_runs(n)
    assert len(runs) == max(1, min(cpus, n))
    assert runs[0].start == 0 and runs[-1].stop == n
    assert all(run.step is None for run in runs)
    assert all(a.stop == b.start for a, b in zip(runs, runs[1:]))
    assert [i for run in runs for i in range(n)[run]] == list(range(n))

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    assert preprocess_dataset([]) == []


def test_preprocess_dataset_error_in_a_worker_keeps_its_type(fake_cpus, rng):
    fake_cpus(2)
    raws = [random_raw(rng, 3, (1, 20), pid=f"p{i}") for i in range(4)]
    before = threading.active_count()
    with pytest.raises(DatasetError, match="too small"):
        preprocess_dataset(raws)
    assert threading.active_count() == before


def test_preprocess_keeps_uint8_frames_and_six_floats_without_flow(monkeypatch, synth_root):
    # the stored dataset is its frames' bytes plus 48 bytes a sequence; the
    # float channels, flow included, wait until a view is read
    def no_flow(*args, **kwargs):
        raise AssertionError("preprocessing ran optical flow")

    raws = load_dataset(synth_root)
    monkeypatch.setattr(datapipe, "lucas_kanade_flow", no_flow)
    samples = preprocess_dataset(raws)
    for raw, sample in zip(raws, samples, strict=True):
        arrays = [v for v in vars(sample).values() if isinstance(v, np.ndarray)]
        frame_bytes = sum(f.nbytes for f in raw.frames)
        assert sample.frames.dtype == np.uint8
        assert sum(a.nbytes for a in arrays) <= frame_bytes + 48


def test_by_identity_groups_cameras(synth_index):
    assert len(synth_index) == 8
    for pid, cams in synth_index.items():
        assert sorted(cams) == ["cam0", "cam1"]
        for cam, sample in cams.items():
            assert sample.person_id == pid
            assert sample.camera_id == cam


# ---- crops ----


def test_augment_crops_eight_pixels(rng):
    sample = sample_of(random_raw(rng, 3, (128, 64)))
    assert crop_view(sample, slice(None), 4, 4, False).shape == (3, 5, 120, 56)
    assert crop_view(sample, np.array([2, 0, 2, 1]), 0, 8, True).shape == (4, 5, 120, 56)


def test_augment_test_mode_is_center_crop(rng):
    raw = random_raw(rng, 4, (20, 18))
    sample = sample_of(raw)
    for eval_k, expected in ((None, slice(None)), (1, slice(1)), (3, slice(3))):
        view = eval_sequence(sample, eval_k)
        assert (view.person_id, view.camera_id) == ("p", "c")
        assert view.sample is sample  # nothing is built or copied until it is read
        assert view.channels().tobytes() == ref_view(raw, expected, 4, 4, False).tobytes()


def test_augment_train_offsets_stay_in_range(rng):
    # every offset a draw can give, with and without the mirror, against
    # the crop-then-flip it stands for; left 0 ends the mirrored slice at
    # the frame's first column
    raw = random_raw(rng, 5, (20, 18))
    sample = sample_of(raw)
    idx = np.array([3, 4, 0, 1])
    for top in range(CROP_MARGIN + 1):
        for left in range(CROP_MARGIN + 1):
            for mirror in (False, True):
                assert (crop_view(sample, idx, top, left, mirror).tobytes()
                        == ref_view(raw, idx, top, left, mirror).tobytes()), (top, left, mirror)


def test_augment_mirror_negates_horizontal_flow(rng):
    sample = sample_of(random_raw(rng, 2, (20, 18)))
    stored = sample.frames.copy(), sample.stats.copy()
    center = crop_view(sample, slice(None), 4, 4, False)
    mirrored = crop_view(sample, slice(None), 4, 4, True)
    np.testing.assert_array_equal(mirrored[:, 3], -center[:, 3, :, ::-1])
    np.testing.assert_array_equal(mirrored[:, 4], center[:, 4, :, ::-1])
    np.testing.assert_array_equal(mirrored[:, :3], center[:, :3, :, ::-1])
    assert sample.frames.tobytes() == stored[0].tobytes()
    assert sample.stats.tobytes() == stored[1].tobytes()


def test_augment_rejects_small_frames(rng):
    # a side of at most CROP_MARGIN pixels leaves nothing to crop; the
    # check runs when the sequence is loaded, before any draw
    for hw in ((8, 12), (12, 8), (1, 20), (1, 1)):
        with pytest.raises(DatasetError, match="too small"):
            preprocess_dataset([random_raw(rng, 2, hw)])


# ---- built views against the reference ----


def test_train_draws_match_reference_bitwise(rng):
    raw = random_raw(rng, 10, (24, 16))
    sample = sample_of(raw)
    short = random_raw(rng, 3, (24, 16))
    single = random_raw(rng, 1, (24, 16))
    draws = [
        (raw, np.arange(2, 8)),          # consecutive frames
        (raw, np.arange(4, 10)),         # a window ending on the last frame
        (raw, np.array([9])),            # the last frame alone
        (short, np.arange(16) % 3),      # wrap-around: n < k
        (single, np.zeros(4, dtype=int)),  # a one-frame sequence
    ]
    for source, idx in draws:
        stored = sample if source is raw else sample_of(source)
        for top, left in ((0, 0), (8, 8), (3, 5)):
            for mirror in (False, True):
                view = SequenceView(stored, idx, top, left, mirror)
                built = view.channels()
                assert built.flags.c_contiguous
                assert built.tobytes() == ref_view(source, idx, top, left, mirror).tobytes()
                assert view.channels(slice(1, 3)).tobytes() == built[1:3].tobytes()


def test_eval_views_match_reference_bitwise(rng):
    for n in (1, 2, 7):
        raw = random_raw(rng, n, (20, 14))
        sample = sample_of(raw)
        for eval_k in (None, 1):
            view = eval_sequence(sample, eval_k)
            assert view.n_frames == (n if eval_k is None else 1)
            assert (view.channels().tobytes()
                    == ref_view(raw, slice(eval_k), 4, 4, False).tobytes())


def test_extract_feature_builds_the_same_bytes_on_one_two_and_three_cpus(fake_cpus, rng):
    cfg = LossConfig(spp_bins=((2, 2), (1, 1)))
    params = init_params(0, 2, cfg, feature_dim=8)
    raw = random_raw(rng, 5, (20, 16))
    view = eval_sequence(sample_of(raw), None)
    built = ChannelStack("p", "c", ref_view(raw, slice(None), 4, 4, False))
    for cpus in (1, 2, 3):
        fake_cpus(cpus)
        assert extract_feature(view, params, cfg).tobytes() == \
            extract_feature(built, params, cfg).tobytes(), cpus


# ---- subsequence draws ----


def numbered_index(n):
    """Two identities of two cameras, each a sequence of n frames of 9x9."""
    frames = np.zeros((n, 9, 9, 3), dtype=np.uint8)
    return {pid: {cam: sample_of(RawSequence(pid, cam, list(frames))) for cam in ("c0", "c1")}
            for pid in ("a", "b")}


def test_subsequence_long_enough_is_contiguous():
    stream = pair_stream(numbered_index(20), ["a", "b"], k=16, seed=0)
    starts = set()
    for _ in range(40):
        pair = next(stream)
        for seq in (pair.probe, pair.gallery):
            np.testing.assert_array_equal(np.diff(seq.index), 1)
            starts.add(int(seq.index[0]))
    assert starts == {0, 1, 2, 3, 4}


def test_subsequence_short_wraps_cyclically():
    stream = pair_stream(numbered_index(5), ["a", "b"], k=16, seed=0)
    expected = [i % 5 for i in range(16)]
    for _ in range(4):
        pair = next(stream)
        np.testing.assert_array_equal(pair.probe.index, expected)
        np.testing.assert_array_equal(pair.gallery.index, expected)


def test_subsequence_validates_arguments():
    empty = numbered_index(3)
    empty["a"]["c0"] = SequenceSample("a", "c0", np.zeros((0, 9, 9, 3), dtype=np.uint8),
                                      np.zeros((2, 3)))
    with pytest.raises(DatasetError, match="no frames"):
        next(pair_stream(empty, ["a", "b"], k=4))
    with pytest.raises(ValueError, match="positive"):
        next(pair_stream(numbered_index(3), ["a", "b"], k=0))


# ---- splits ----


def test_split_half_is_disjoint_and_balanced():
    ids = [f"id{i:03d}" for i in range(30)]
    for seed in range(50):
        split = make_split(ids, seed, trial=0)
        assert not set(split.train) & set(split.test)
        assert sorted(split.train + split.test) == sorted(ids)
        assert len(split.train) == 15


def test_split_odd_count_gives_extra_to_train():
    ids = [f"id{i}" for i in range(7)]
    for seed in range(20):
        split = make_split(ids, seed, trial=0)
        assert len(split.train) == 4
        assert len(split.test) == 3


def test_split_depends_on_seed_and_trial():
    ids = [f"id{i:03d}" for i in range(20)]
    a = make_split(ids, seed=0, trial=0)
    b = make_split(ids, seed=0, trial=0)
    assert a.train == b.train
    assert {make_split(ids, seed=0, trial=t).train for t in range(10)} != {a.train}
    assert make_split(ids, seed=1, trial=0).train != a.train


def test_split_mode_all_repeats_every_identity():
    ids = ["b", "a", "c"]
    split = make_split(ids, 0, 0, mode="all")
    assert split.train == ("a", "b", "c")
    assert split.test == ("a", "b", "c")
    with pytest.raises(ValueError):
        make_split(ids, 0, 0, mode="thirds")


def test_write_split_files(tmp_path):
    split = make_split([f"id{i}" for i in range(6)], seed=0, trial=3)
    write_split_files(split, tmp_path)
    train = (tmp_path / "trial_3" / "train.txt").read_text().splitlines()
    test = (tmp_path / "trial_3" / "test.txt").read_text().splitlines()
    assert tuple(train) == split.train
    assert tuple(test) == split.test


# ---- pair stream ----


def test_pair_stream_alternates_and_labels(synth_index):
    ids = sorted(synth_index)
    stream = pair_stream(synth_index, ids, k=16, seed=0)
    labels = identity_labels(ids)
    pairs = [next(stream) for _ in range(4 * len(ids))]
    for i, pair in enumerate(pairs):
        assert pair.same_person == (i % 2 == 0)
        if pair.same_person:
            assert pair.probe.person_id == pair.gallery.person_id
            assert pair.probe_label == pair.gallery_label
        else:
            assert pair.probe.person_id != pair.gallery.person_id
        assert pair.probe_label == labels[pair.probe.person_id]
        assert pair.gallery_label == labels[pair.gallery.person_id]
        assert pair.probe.channels().shape == (16, 5, 16, 8)


def test_pair_stream_epoch_visits_every_identity(synth_index):
    ids = sorted(synth_index)
    stream = pair_stream(synth_index, ids, k=16, seed=1)
    epoch = [next(stream) for _ in range(2 * len(ids))]
    positives = [p for p in epoch if p.same_person]
    assert len(positives) == len(ids)
    assert {p.probe.person_id for p in positives} == set(ids)


def test_pair_stream_probe_and_gallery_cameras_differ(synth_index):
    stream = pair_stream(synth_index, sorted(synth_index), k=16, seed=2)
    for _ in range(32):
        pair = next(stream)
        if pair.same_person:
            assert pair.probe.camera_id != pair.gallery.camera_id


def test_pair_stream_is_seed_deterministic(synth_index):
    ids = sorted(synth_index)

    def digest(seed, n=12):
        stream = pair_stream(synth_index, ids, k=16, seed=seed)
        return [(p.probe.person_id, p.gallery.person_id, p.same_person,
                 float(p.probe.channels().sum())) for p in (next(stream) for _ in range(n))]

    assert digest(0) == digest(0)
    assert digest(0) != digest(5)


def test_pair_stream_two_identities_negative_uses_the_other(synth_index):
    two = {pid: synth_index[pid] for pid in list(sorted(synth_index))[:2]}
    stream = pair_stream(two, sorted(two), k=16, seed=0)
    for _ in range(8):
        pair = next(stream)
        if not pair.same_person:
            assert {pair.probe.person_id, pair.gallery.person_id} == set(two)


def old_chain_draw(sample, k, rng, log):
    """A k-frame draw as a subsequence sampler then a train-mode augmenter
    made it before crop_view, each step its own copy: the oracle for
    pair_stream's draws and for the order it takes numbers from rng. Appends
    (wrapped, mirrored) to log."""
    n = sample.n_frames
    if n >= k:
        start = int(rng.integers(0, n - k + 1))
        frames = sample.frames[np.arange(start, start + k)]
    else:
        frames = sample.frames[np.arange(k) % n]
    off_h = int(rng.integers(0, CROP_MARGIN + 1))
    off_w = int(rng.integers(0, CROP_MARGIN + 1))
    mirror = bool(rng.random() < 0.5)
    log.append((n < k, mirror))
    h, w = frames.shape[2:]
    out = frames[:, :, off_h:off_h + h - CROP_MARGIN, off_w:off_w + w - CROP_MARGIN].copy()
    if mirror:
        out = out[:, :, :, ::-1].copy()
        out[:, 3] = -out[:, 3]
    return out


def oracle_pair_stream(index, ids, k, rng, log):
    """pair_stream's loop over old_chain_draw, yielding (probe, gallery) stacks."""
    while True:
        for i in rng.permutation(len(ids)):
            pid = ids[i]
            cam_a, cam_b = pick_cameras(index[pid], pid, rng)
            yield (old_chain_draw(index[pid][cam_a], k, rng, log),
                   old_chain_draw(index[pid][cam_b], k, rng, log))
            others = [q for q in ids if q != pid]
            other = others[int(rng.integers(0, len(others)))]
            _, other_b = pick_cameras(index[other], other, rng)
            yield (old_chain_draw(index[pid][cam_a], k, rng, log),
                   old_chain_draw(index[other][other_b], k, rng, log))


def test_pair_stream_draws_match_the_old_chain_bitwise(rng):
    # sequences longer than, equal to and shorter than k (which wrap), one
    # identity with three cameras, and two frame sizes; the old chain cuts
    # the reference stacks, pair_stream's views are built from uint8 frames
    lengths = {"a": (24, 16, 5), "b": (16, 3), "c": (20, 24), "d": (5, 30)}
    index, reference = {}, {}
    for pid, ns in lengths.items():
        size = (24, 16) if pid != "c" else (20, 18)
        index[pid], reference[pid] = {}, {}
        for j, n in enumerate(ns):
            raw = random_raw(rng, n, size, pid, f"cam{j}")
            index[pid][raw.camera_id] = sample_of(raw)
            reference[pid][raw.camera_id] = ChannelStack(pid, raw.camera_id, ref_preprocess(raw))
    stored = {(pid, cam): (s.frames.copy(), s.stats.copy()) for pid, cams in index.items()
              for cam, s in cams.items()}
    ids = sorted(index)
    log = []
    for seed in range(25):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        stream = pair_stream(index, ids, k=16, seed=ours)  # default_rng passes a Generator through
        oracle = oracle_pair_stream(reference, ids, 16, theirs, log)
        for _ in range(12):
            pair = next(stream)
            probe, gallery = next(oracle)
            built_probe, built_gallery = pair.probe.channels(), pair.gallery.channels()
            assert built_probe.tobytes() == probe.tobytes()
            assert built_gallery.tobytes() == gallery.tobytes()
            assert built_probe.flags.c_contiguous and built_gallery.flags.c_contiguous
            assert ours.bit_generator.state == theirs.bit_generator.state
    assert {(wrapped, mirrored) for wrapped, mirrored in log} == {
        (False, False), (False, True), (True, False), (True, True)}
    for (pid, cam), (frames, stats) in stored.items():
        assert index[pid][cam].frames.tobytes() == frames.tobytes()
        assert index[pid][cam].stats.tobytes() == stats.tobytes()


def test_pair_stream_needs_two_identities(synth_index):
    one = {pid: synth_index[pid] for pid in list(sorted(synth_index))[:1]}
    with pytest.raises(DatasetError):
        next(pair_stream(one, sorted(one), k=16))


# ---- synthetic data ----


def test_synth_dataset_file_count(tmp_path):
    n = synth_dataset(tmp_path / "d", n_ids=3, n_cams=2, frames_per_seq=4, size=(12, 10))
    assert n == 3 * 2 * 4
    files = sorted((tmp_path / "d").rglob("*.ppm"))
    assert len(files) == n


def test_synth_dataset_is_bitwise_reproducible(tmp_path):
    for name in ("a", "b"):
        synth_dataset(tmp_path / name, n_ids=2, n_cams=2, frames_per_seq=3,
                      size=(12, 10), seed=42)
    for fa in sorted((tmp_path / "a").rglob("*.ppm")):
        fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
        assert fa.read_bytes() == fb.read_bytes(), fa.name


def test_synth_dataset_bytes_are_pinned(tmp_path):
    # every benchmark workload is generated through _box_sum (_smooth_noise):
    # a change to its arithmetic would change the data every figure is made on
    synth_dataset(tmp_path, n_ids=2, n_cams=2, frames_per_seq=3, size=(12, 10), seed=42,
                  signal_frames=2)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.rglob("*.ppm")):
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == "1606aa3873175f627a3e74a46692972629adbbb569c11aaccb7bad96b164a0d6"


def test_synth_dataset_seeds_differ(tmp_path):
    synth_dataset(tmp_path / "s0", n_ids=1, n_cams=1, frames_per_seq=1, size=(12, 10), seed=0)
    synth_dataset(tmp_path / "s1", n_ids=1, n_cams=1, frames_per_seq=1, size=(12, 10), seed=1)
    a = next((tmp_path / "s0").rglob("*.ppm")).read_bytes()
    b = next((tmp_path / "s1").rglob("*.ppm")).read_bytes()
    assert a != b


def test_synth_dataset_motion_yields_nonzero_flow(synth_index):
    flows = [eval_sequence(cams[cam], None).channels()[:, 3:]
             for cams in synth_index.values() for cam in cams]
    mean_abs = np.mean([np.abs(f).mean() for f in flows])
    assert mean_abs > 0.005


def test_synth_dataset_loads_without_warnings(synth_root):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seqs = load_dataset(synth_root)
    assert len(seqs) == 16


def test_synth_sparse_noise_frames_match_across_identities(sparse_root):
    # frames outside the signal positions are identical across identities up
    # to camera gain and pixel noise; verify two identities share a majority
    # of near-identical frames in the same camera
    seqs = {s.person_id: s for s in load_dataset(sparse_root) if s.camera_id == "cam0"}
    a = seqs["p000"].frames
    b = seqs["p001"].frames
    close = sum(
        np.abs(fa.astype(float) - fb.astype(float)).mean() < 4.0
        for fa, fb in zip(a, b)
    )
    assert close >= 12  # 16 frames minus two signal positions per sequence
