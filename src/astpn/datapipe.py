"""Dataset ingestion and preprocessing.

Directory layout: root/<person_id>/<camera_id>/<frame>.ppm with frames
ordered by file name. Binary PPM (P6, maxval 255) is decoded natively; PNG
works too when Pillow is importable. Each sequence is converted to five
channels per frame: YUV color, standardized per channel over the whole
sequence, plus horizontal and vertical dense optical flow scaled to [-1, 1].
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import _at_once, _usable_cpus

FLOW_MAX_PX = 8.0
FLOW_WINDOW_RADIUS = 2  # 5x5 uniform window
FLOW_DAMPING = 1e-4
CROP_MARGIN = 8
FRAME_CHANNELS = 5
SPLIT_MODES = ("half", "all")


class DatasetError(Exception):
    """Raised when frame files or dataset structure cannot be used."""


# ---- artifact and frame file formats ----


def write_atomic(path, data: bytes | str) -> None:
    """Replace the file at path with data (str is written as UTF-8).

    The bytes go to a temporary file in the same directory, which is flushed
    to disk and then renamed over path, so a reader (or a crash) sees the old
    file or the new one, never a part. If any step fails the temporary file
    is removed and the old file is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H,W,3) uint8 array as binary PPM."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DatasetError(f"{path}: expected (H,W,3) pixels, got shape {rgb.shape}")
    h, w = rgb.shape[:2]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def _ppm_token(blob: bytes, pos: int, path) -> tuple[bytes, int]:
    while pos < len(blob):
        c = blob[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == ord("#"):
            while pos < len(blob) and blob[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(blob) and blob[pos] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise DatasetError(f"{path}: truncated PPM header")
    return blob[start:pos], pos


def read_ppm(path) -> np.ndarray:
    """Decode a binary PPM (P6, maxval 255) into an (H,W,3) uint8 array."""
    blob = Path(path).read_bytes()
    magic, pos = _ppm_token(blob, 0, path)
    if magic != b"P6":
        raise DatasetError(f"{path}: not a binary PPM (magic {magic!r})")
    fields = []
    for _ in range(3):
        token, pos = _ppm_token(blob, pos, path)
        if not token.isdigit():
            raise DatasetError(f"{path}: bad PPM header field {token!r}")
        fields.append(int(token))
    w, h, maxval = fields
    if maxval != 255:
        raise DatasetError(f"{path}: unsupported PPM maxval {maxval}")
    if w == 0 or h == 0:
        raise DatasetError(f"{path}: PPM of {w}x{h} pixels holds no image")
    pos += 1  # single whitespace byte after maxval
    raster = blob[pos:pos + w * h * 3]
    if len(raster) != w * h * 3:
        raise DatasetError(f"{path}: PPM raster shorter than {w}x{h} pixels")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3).copy()


def _read_png(path) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as exc:
        raise DatasetError(f"{path}: PNG frames need Pillow installed") from exc
    with Image.open(path) as img:
        return np.asarray(img.convert("RGB"), dtype=np.uint8)


def read_frame(path) -> np.ndarray:
    """Decode one frame file; an entry that cannot be read as a file (a
    directory, say, or one without read permission) is a DatasetError."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".ppm", ".png"):
        raise DatasetError(f"{path}: unsupported frame format {path.suffix!r}")
    try:
        return read_ppm(path) if suffix == ".ppm" else _read_png(path)
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read frame: {exc.strerror or exc}") from exc


# ---- raw dataset ----


@dataclass
class RawSequence:
    person_id: str
    camera_id: str
    frames: list[np.ndarray]


def load_dataset(root) -> list[RawSequence]:
    """Walk root/<person>/<camera>/ and decode every frame, sorted by name.

    Identities with fewer than two cameras load fine but trigger a warning,
    since they cannot form cross-camera pairs. Mixed frame sizes inside one
    sequence are an error.
    """
    root = Path(root)
    if not root.exists():
        raise DatasetError(f"dataset root {root} does not exist")
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    sequences = []
    cams_per_person: dict[str, int] = {}
    for person_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        cam_dirs = sorted(p for p in person_dir.iterdir() if p.is_dir())
        cams_per_person[person_dir.name] = len(cam_dirs)
        for cam_dir in cam_dirs:
            paths = sorted(
                p for p in cam_dir.iterdir()
                if p.suffix.lower() in (".ppm", ".png") and not p.name.startswith(".")
            )
            if not paths:
                continue
            frames = [read_frame(p) for p in paths]
            first = frames[0].shape
            for p, f in zip(paths, frames):
                if f.shape != first:
                    raise DatasetError(
                        f"{p}: frame size {f.shape[:2]} differs from {first[:2]} "
                        f"earlier in the same sequence"
                    )
            sequences.append(RawSequence(
                person_id=person_dir.name,
                camera_id=cam_dir.name,
                frames=frames,
            ))
    for person, n_cams in cams_per_person.items():
        if n_cams < 2:
            warnings.warn(
                f"identity {person} has {n_cams} camera(s); it cannot form "
                f"cross-camera pairs", stacklevel=2,
            )
    return sequences


# ---- color conversion and flow ----


def rgb_to_yuv(frames: np.ndarray) -> np.ndarray:
    """BT.601 YUV from RGB in 0..255: a (H,W,3) frame gives (3,H,W), and a
    (...,H,W,3) stack of frames gives (...,3,H,W), all float64."""
    f = np.asarray(frames)
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    out = np.empty(f.shape[:-3] + (3,) + f.shape[-3:-1])
    y, u, v = out[..., 0, :, :], out[..., 1, :, :], out[..., 2, :, :]
    np.multiply(r, 0.299, out=y, dtype=np.float64)
    np.multiply(g, 0.587, out=u, dtype=np.float64)  # u and v hold terms of y first
    np.multiply(b, 0.114, out=v, dtype=np.float64)
    y += u
    y += v
    np.subtract(b, y, out=u)
    u *= 0.492
    np.subtract(r, y, out=v)
    v *= 0.877
    return out


def standardize_channels(stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-mean unit-variance per channel over a (T,C,H,W) stack, written
    into out (a new array by default) and returned.

    Channels with (numerically) zero variance come back as all zeros.
    """
    out = np.empty_like(stack) if out is None else out
    for c in range(stack.shape[1]):
        channel = stack[:, c]
        std = channel.std()
        if std < 1e-12:
            out[:, c] = 0.0
        else:
            np.subtract(channel, channel.mean(), out=out[:, c])
            out[:, c] /= std
    return out


def _box_sum(img: np.ndarray, radius: int) -> np.ndarray:
    """Sum over a (2r+1)^2 window of the last two axes, truncated at the
    image border; leading axes are independent images.

    The integral image is built padded to (h+2r+1, w+2r+1): zeros above and
    left of it, its last row and column repeated below and right. Each
    window's four corners, truncation included, are then plain slices."""
    h, w = img.shape[-2:]
    d = 2 * radius + 1
    ii = np.empty(img.shape[:-2] + (h + d, w + d))
    ii[..., :radius + 1, :] = 0.0
    ii[..., radius + 1:, :radius + 1] = 0.0
    core = ii[..., radius + 1:h + radius + 1, radius + 1:w + radius + 1]
    np.cumsum(img, axis=-2, out=core)
    np.cumsum(core, axis=-1, out=core)
    ii[..., radius + 1:h + radius + 1, w + radius + 1:] = ii[..., radius + 1:h + radius + 1,
                                                             w + radius:w + radius + 1]
    ii[..., h + radius + 1:, :] = ii[..., h + radius:h + radius + 1, :]
    out = ii[..., d:, d:] - ii[..., :h, d:]
    out -= ii[..., d:, :w]
    out += ii[..., :h, :w]
    return out


def lucas_kanade_flow(prev: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Dense optical flow from prev to nxt, scaled by 1/8 px and clamped.

    Per pixel the classic normal equations are solved over a 5x5 uniform
    window with Tikhonov damping, using central-difference spatial gradients
    of prev and temporal difference nxt - prev. prev and nxt are (H,W)
    frames or equal (N,H,W) stacks of frame pairs, at least 2x2 pixels.
    Returns (2,H,W), or (N,2,H,W) for stacks: horizontal flow first,
    vertical second, both in [-1, 1] (multiply by FLOW_MAX_PX for pixels).
    """
    prev = np.asarray(prev, dtype=np.float64)
    nxt = np.asarray(nxt, dtype=np.float64)
    if prev.shape != nxt.shape or prev.ndim not in (2, 3):
        raise DatasetError(f"flow needs two equal (H,W) frames or (N,H,W) stacks, "
                           f"got {prev.shape} and {nxt.shape}")
    h, w = prev.shape[-2:]
    if h < 2 or w < 2:
        raise DatasetError(f"optical flow needs frames of at least 2x2 pixels, got {h}x{w}")
    gy, gx = np.gradient(prev, axis=(-2, -1))
    products = np.empty((5,) + prev.shape)  # gx*gx, gy*gy, gx*gy, gx*gt, gy*gt
    np.multiply(gx, gx, out=products[0])
    np.multiply(gy, gy, out=products[1])
    np.multiply(gx, gy, out=products[2])
    gt = np.subtract(nxt, prev, out=products[4])
    np.multiply(gx, gt, out=products[3])
    np.multiply(gy, gt, out=products[4])
    sxx, syy, sxy, sxt, syt = _box_sum(products, FLOW_WINDOW_RADIUS)
    sxx += FLOW_DAMPING
    syy += FLOW_DAMPING
    flow = np.empty(prev.shape[:-2] + (2,) + prev.shape[-2:])
    u, v = flow[..., 0, :, :], flow[..., 1, :, :]
    det = sxx * syy
    term = sxy * sxy
    det -= term
    np.negative(syy, out=u)
    u *= sxt
    np.multiply(sxy, syt, out=term)
    u += term
    u /= det
    np.multiply(sxy, sxt, out=v)
    np.multiply(sxx, syt, out=term)
    v -= term
    v /= det
    flow /= FLOW_MAX_PX
    return np.clip(flow, -1.0, 1.0, out=flow)


# ---- preprocessed sequences ----


@dataclass
class SequenceSample:
    """One camera view of one person: (T,5,H,W) float frames.

    Channel order: standardized Y, U, V, then horizontal and vertical flow.
    """

    person_id: str
    camera_id: str
    frames: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_hw(self) -> tuple[int, int]:
        return self.frames.shape[2], self.frames.shape[3]


def _fill_frames(raw: RawSequence, out: np.ndarray) -> None:
    """Write raw's standardized YUV and flow channels into out (T,5,H,W).

    Flow at step t is computed between luminance frames t and t+1; the last
    frame reuses the previous flow field (zero flow for one-frame sequences).
    """
    yuv = rgb_to_yuv(np.stack(raw.frames))
    standardize_channels(yuv, out=out[:, :3])
    lum = yuv[:, 0]
    if len(lum) > 1:
        out[:-1, 3:] = lucas_kanade_flow(lum[:-1], lum[1:])
        out[-1, 3:] = out[-2, 3:]
    else:
        out[:, 3:] = 0.0


def preprocess_dataset(raws: list[RawSequence]) -> list[SequenceSample]:
    """Standardized YUV and optical flow channels of every raw sequence, in
    input order.

    One worker runs per CPU the process may use, never more than there are
    sequences; worker k takes sequences k, k+n, ... (see tensor._at_once).
    The result is bitwise equal to one thread's. Every output array is
    allocated here before the workers start, so the long-lived stacks sit
    together in the heap instead of between the workers' temporaries.
    """
    if not raws:
        return []
    stacks = [np.empty((len(r.frames), FRAME_CHANNELS) + r.frames[0].shape[:2]) for r in raws]
    n = min(_usable_cpus(), len(raws))

    def work(k: int) -> None:
        for i in range(k, len(raws), n):
            _fill_frames(raws[i], stacks[i])

    _at_once([functools.partial(work, k) for k in range(n)])
    return [SequenceSample(r.person_id, r.camera_id, f) for r, f in zip(raws, stacks)]


def by_identity(samples: list[SequenceSample]) -> dict[str, dict[str, SequenceSample]]:
    index: dict[str, dict[str, SequenceSample]] = {}
    for s in samples:
        index.setdefault(s.person_id, {})[s.camera_id] = s
    return index


# ---- crops ----


def crop_view(sample: SequenceSample, frames, top: int, left: int, mirror: bool) -> np.ndarray:
    """The (len(frames), 5, H-8, W-8) stack of sample's frames (an index
    array or a slice), cropped from (top, left), in one gather.

    mirror flips the stack left to right and negates its horizontal flow,
    which flips sign with the image. A slice without mirror gives a view of
    the stored frames, which callers only read; every other call a new array.
    """
    h, w = sample.frame_hw
    if h <= CROP_MARGIN or w <= CROP_MARGIN:
        raise DatasetError(f"frames of {h}x{w} are too small to crop by {CROP_MARGIN}")
    rows = slice(top, top + h - CROP_MARGIN)
    cols = slice(left, left + w - CROP_MARGIN)
    if mirror:
        cols = slice(cols.stop - 1, left - 1 if left else None, -1)
        frames = np.arange(sample.n_frames)[frames]  # a gather: the negation writes a copy
    stack = sample.frames[frames, :, rows, cols]
    if mirror:
        np.negative(stack[:, 3], out=stack[:, 3])
    return stack


# ---- splits and the training pair stream ----


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[str, ...]
    test: tuple[str, ...]
    seed: int
    trial: int


def make_split(ids, seed: int, trial: int, mode: str = "half") -> DatasetSplit:
    """Seeded identity split. mode="half" is the usual disjoint 50/50 split
    (odd counts give the extra identity to train); mode="all" puts every
    identity in both halves, for memorization checks."""
    if mode not in SPLIT_MODES:
        raise ValueError(f"unknown split mode {mode!r}")
    ids = sorted(ids)
    if mode == "all":
        return DatasetSplit(tuple(ids), tuple(ids), seed, trial)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    perm = rng.permutation(len(ids))
    n_train = (len(ids) + 1) // 2
    train = tuple(sorted(ids[i] for i in perm[:n_train]))
    test = tuple(sorted(ids[i] for i in perm[n_train:]))
    return DatasetSplit(train, test, seed, trial)


def write_split_files(split: DatasetSplit, out_dir) -> None:
    out_dir = Path(out_dir) / f"trial_{split.trial}"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "train.txt", "".join(f"{i}\n" for i in split.train))
    write_atomic(out_dir / "test.txt", "".join(f"{i}\n" for i in split.test))


@dataclass
class PairBatch:
    """One training example: a probe/gallery sequence pair with labels."""

    probe: SequenceSample
    gallery: SequenceSample
    same_person: bool
    probe_label: int
    gallery_label: int


def identity_labels(ids) -> dict[str, int]:
    return {pid: i for i, pid in enumerate(sorted(ids))}


def pick_cameras(cams: dict[str, SequenceSample], pid: str, rng) -> tuple[str, str]:
    """Two of an identity's cameras in sorted order: its only two, or a draw
    of two from rng when it has more."""
    names = sorted(cams)
    if len(names) < 2:
        raise DatasetError(f"identity {pid} needs two cameras, found {len(names)}")
    if len(names) == 2:
        return names[0], names[1]
    chosen = sorted(rng.choice(len(names), size=2, replace=False))
    return names[chosen[0]], names[chosen[1]]


def pair_stream(index: dict[str, dict[str, SequenceSample]], train_ids, k: int, seed: int = 0):
    """Endless alternating positive/negative pair generator.

    Each epoch visits the train identities in a fresh random order and yields
    two pairs per identity: a positive (its two cameras) then a negative (its
    first camera against the second camera of a random other identity). Every
    sequence is drawn as k consecutive frames from a uniform random start
    (a sequence shorter than k repeats cyclically from frame 0), a uniform
    crop offset and a mirror coin, in that order, then cut by crop_view.
    """
    if k < 1:
        raise ValueError(f"subsequence length must be positive, got {k}")
    ids = sorted(train_ids)
    if len(ids) < 2:
        raise DatasetError(f"pairing needs at least two identities, got {len(ids)}")
    labels = identity_labels(ids)
    rng = np.random.default_rng(seed)

    def draw(pid: str, cam: str) -> SequenceSample:
        sample = index[pid][cam]
        n = sample.n_frames
        if n == 0:
            raise DatasetError(f"sequence {pid}/{cam} has no frames")
        start = int(rng.integers(0, n - k + 1)) if n >= k else 0
        idx = np.arange(start, start + k) % n
        top = int(rng.integers(0, CROP_MARGIN + 1))
        left = int(rng.integers(0, CROP_MARGIN + 1))
        mirror = bool(rng.random() < 0.5)
        return SequenceSample(pid, cam, crop_view(sample, idx, top, left, mirror))

    while True:
        for i in rng.permutation(len(ids)):
            pid = ids[i]
            cam_a, cam_b = pick_cameras(index[pid], pid, rng)
            yield PairBatch(draw(pid, cam_a), draw(pid, cam_b), True,
                            labels[pid], labels[pid])
            others = [q for q in ids if q != pid]
            other = others[int(rng.integers(0, len(others)))]
            other_a, other_b = pick_cameras(index[other], other, rng)
            yield PairBatch(draw(pid, cam_a), draw(other, other_b), False,
                            labels[pid], labels[other])


# ---- synthetic data ----


def _smooth_noise(rng, h: int, w: int, passes: int = 2) -> np.ndarray:
    img = rng.standard_normal((h, w))
    for _ in range(passes):
        img = _box_sum(img, 1) / 9.0
    img -= img.mean()
    peak = np.abs(img).max()
    return img / peak if peak > 0 else img


def _identity_texture(rng, idx: int, h: int, w: int) -> np.ndarray:
    """A distinct smooth RGB pattern per identity: sinusoid gratings with
    identity-specific frequency and phase, plus a little smooth noise."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    channels = []
    for ch in range(3):
        fx = 2.0 * np.pi * (1 + (idx * 3 + ch) % 4) / w
        fy = 2.0 * np.pi * (1 + (idx * 2 + ch) % 3) / h
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(fx * xx + fy * yy + phase)
        channels.append(127.5 + 70.0 * wave + 30.0 * _smooth_noise(rng, h, w))
    return np.stack(channels, axis=-1)


def synth_dataset(root, n_ids: int = 8, n_cams: int = 2, frames_per_seq: int = 16,
                  size: tuple[int, int] = (24, 16), seed: int = 0,
                  signal_frames: int | None = None) -> int:
    """Write a synthetic PPM dataset under root and return the file count.

    Each identity is a moving textured pattern (1 px/frame drift, so optical
    flow is real); each camera applies its own gain/offset plus pixel noise.
    With signal_frames=n, only n frames per sequence show the identity
    texture; the remaining frames are structureless noise drawn per camera
    and frame index, identical across identities, so they carry no identity
    information at all.
    """
    h, w = size
    root = Path(root)
    seq = np.random.SeedSequence(seed)
    id_seeds = seq.spawn(n_ids)
    shared_noise = None
    if signal_frames is not None:
        shared_noise = []
        for noise_seed in seq.spawn(n_cams):
            noise_rng = np.random.default_rng(noise_seed)
            shared_noise.append([
                127.5 + 60.0 * np.stack(
                    [_smooth_noise(noise_rng, h, w) for _ in range(3)], axis=-1)
                for _ in range(frames_per_seq)
            ])
    n_files = 0
    for i in range(n_ids):
        pid = f"p{i:03d}"
        id_rng = np.random.default_rng(id_seeds[i])
        texture = _identity_texture(id_rng, i, h, w)
        cam_seeds = id_seeds[i].spawn(n_cams)
        for c in range(n_cams):
            cam_rng = np.random.default_rng(cam_seeds[c])
            gain = 1.0 + 0.18 * (c - (n_cams - 1) / 2.0)
            offset = 14.0 * c - 7.0 * (n_cams - 1) / 2.0
            if signal_frames is not None:
                keep = min(signal_frames, frames_per_seq)
                signal_at = set(cam_rng.choice(frames_per_seq, size=keep, replace=False).tolist())
            else:
                signal_at = None
            for t in range(frames_per_seq):
                if signal_at is not None and t not in signal_at:
                    img = shared_noise[c][t]
                else:
                    img = np.roll(texture, shift=(t * (1 + i % 2), t), axis=(0, 1))
                img = img * gain + offset + cam_rng.normal(0.0, 2.0, img.shape)
                rgb = np.clip(np.rint(img), 0, 255).astype(np.uint8)
                write_ppm(root / pid / f"cam{c}" / f"{t:05d}.ppm", rgb)
                n_files += 1
    return n_files
