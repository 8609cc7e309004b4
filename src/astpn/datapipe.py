"""Dataset ingestion and preprocessing.

Directory layout: root/<person_id>/<camera_id>/<frame>.ppm with frames
ordered by file name. Binary PPM (P6, maxval 255) is decoded natively; PNG
works too when Pillow is importable. A loaded sequence keeps its uint8
frames and the statistics of its YUV channels. The network's five channels
per frame, YUV color standardized per channel over the whole sequence plus
horizontal and vertical dense optical flow scaled to [-1, 1], are built
only when a drawn view of the sequence is read (crop_view).
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import _at_once, _cpu_runs

FLOW_MAX_PX = 8.0
FLOW_WINDOW_RADIUS = 2  # 5x5 uniform window
FLOW_DAMPING = 1e-4
# Frames of flow computed at once hold about this many pixels (at least one
# frame): their products, integral image and box sums, some 15 float64 planes,
# then take about 1 MiB, and stay in a core's L2 cache.
FLOW_BLOCK_PIXELS = 2**13
CROP_MARGIN = 8
FRAME_CHANNELS = 5
SPLIT_MODES = ("half", "all")


class DatasetError(Exception):
    """Raised when frame files or dataset structure cannot be used."""


# ---- artifact and frame file formats ----


def make_dir(path) -> None:
    """Make the directory path and its parents unless it exists. Here and in
    every write below, a refusal of the file system is a DatasetError naming path."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DatasetError(f"{path}: cannot make the directory: {exc.strerror or exc}") from exc


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
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise DatasetError(f"{path}: cannot write: {exc.strerror or exc}") from exc
        raise


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H,W,3) uint8 array as binary PPM."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DatasetError(f"{path}: expected (H,W,3) pixels, got shape {rgb.shape}")
    h, w = rgb.shape[:2]
    make_dir(Path(path).parent)
    try:
        with open(path, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.tobytes())
    except OSError as exc:
        raise DatasetError(f"{path}: cannot write: {exc.strerror or exc}") from exc


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
    Directories and frame files whose names start with "." (such as
    .ipynb_checkpoints or .cache) are skipped.

    Identities with fewer than two cameras load fine but trigger a warning,
    since they cannot form cross-camera pairs. Mixed frame sizes inside one
    sequence are an error.
    """
    root = Path(root)
    if not root.exists():
        raise DatasetError(f"dataset root {root} does not exist")
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")

    def subdirs(path):
        return sorted(p for p in path.iterdir() if p.is_dir() and not p.name.startswith("."))

    sequences = []
    cams_per_person: dict[str, int] = {}
    for person_dir in subdirs(root):
        cam_dirs = subdirs(person_dir)
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


def channel_stats(stack: np.ndarray) -> np.ndarray:
    """(2, C): the mean and the std of each channel of a (T,C,H,W) stack,
    each over the whole stack."""
    channels = [stack[:, c] for c in range(stack.shape[1])]
    return np.array([[channel.mean() for channel in channels],
                     [channel.std() for channel in channels]])


def standardize_channels(stack: np.ndarray, out: np.ndarray | None = None,
                         stats: np.ndarray | None = None) -> np.ndarray:
    """(x - mean) / std per channel of a (T,C,H,W) stack, written into out
    (a new array by default) and returned.

    stats holds the mean and std row of channel_stats; by default the
    stack's own, which gives zero mean and unit variance per channel.
    Channels with (numerically) zero variance come back as all zeros.
    """
    mean, std = channel_stats(stack) if stats is None else stats
    out = np.empty_like(stack) if out is None else out
    for c in range(stack.shape[1]):
        if std[c] < 1e-12:
            out[:, c] = 0.0
        else:
            np.subtract(stack[:, c], mean[c], out=out[:, c])
            out[:, c] /= std[c]
    return out


def _box_sum(img: np.ndarray, radius: int) -> np.ndarray:
    """Sum over a (2r+1)^2 window of the last two axes, truncated at the
    image border; leading axes are independent images.

    The integral image is built padded to (h+2r+1, w+2r+1): zeros above and
    left of it, its last row and column repeated below and right. Each
    window's four corners, truncation included, are then plain slices. The
    corners are combined over one contiguous span of the whole buffer,
    which also covers the 2r+1 padding rows and columns that each plane's
    windows skip; the result is a view of its h rows and w columns."""
    h, w = img.shape[-2:]
    d = 2 * radius + 1
    row = w + d
    ii = np.empty(img.shape[:-2] + (h + d, row))
    ii[..., :radius + 1, :] = 0.0
    ii[..., radius + 1:, :radius + 1] = 0.0
    core = ii[..., radius + 1:h + radius + 1, radius + 1:w + radius + 1]
    np.cumsum(img, axis=-2, out=core)
    np.cumsum(core, axis=-1, out=core)
    ii[..., radius + 1:h + radius + 1, w + radius + 1:] = ii[..., radius + 1:h + radius + 1,
                                                             w + radius:w + radius + 1]
    ii[..., h + radius + 1:, :] = ii[..., h + radius:h + radius + 1, :]
    flat = ii.reshape(-1)
    span = flat.size - d * row - d  # element i's window: flat[i], +d, +d*row, +d*row+d
    out = np.empty(ii.shape)
    body = out.reshape(-1)[:span]
    np.subtract(flat[d * row + d:], flat[d:d + span], out=body)
    body -= flat[d * row:d * row + span]
    body += flat[:span]
    return out[..., :h, :w]


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
    flow = np.empty(prev.shape[:-2] + (2, h, w))
    blocks = flow.reshape(-1, 2, h, w)
    prev, nxt = prev.reshape(-1, h, w), nxt.reshape(-1, h, w)
    step = max(1, FLOW_BLOCK_PIXELS // (h * w))
    for t0 in range(0, len(blocks), step):
        _flow_block(prev[t0:t0 + step], nxt[t0:t0 + step], blocks[t0:t0 + step])
    return flow


def _flow_block(prev: np.ndarray, nxt: np.ndarray, out: np.ndarray) -> None:
    """lucas_kanade_flow of (N,H,W) frame pairs, written into out (N,2,H,W)."""
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
    u, v = out[:, 0], out[:, 1]
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
    out /= FLOW_MAX_PX
    np.clip(out, -1.0, 1.0, out=out)


# ---- preprocessed sequences ----


@dataclass
class SequenceSample:
    """One camera view of one person, as preprocess_dataset keeps it: its
    decoded (T,H,W,3) uint8 frames, and stats, the (2,3) mean and std of
    each YUV channel over the whole sequence (channel_stats). crop_view
    builds the network's five channels from them when a view is read.
    """

    person_id: str
    camera_id: str
    frames: np.ndarray
    stats: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_hw(self) -> tuple[int, int]:
        return self.frames.shape[1], self.frames.shape[2]


@dataclass
class SequenceView:
    """A drawn view of a sample: its frames at index (an int array in draw
    order, repeats allowed), cropped from (top, left), mirrored or not.

    Nothing is built at the draw: channels() builds the view's float
    channels, or those of a run of its frames, each time it is called.
    """

    sample: SequenceSample
    index: np.ndarray
    top: int
    left: int
    mirror: bool

    @property
    def person_id(self) -> str:
        return self.sample.person_id

    @property
    def camera_id(self) -> str:
        return self.sample.camera_id

    @property
    def n_frames(self) -> int:
        return len(self.index)

    @property
    def frames(self) -> np.ndarray:
        """The (k,H,W,3) uint8 frames the view reads."""
        return self.sample.frames[self.index]

    def channels(self, run: slice = slice(None)) -> np.ndarray:
        """The (len, 5, H-8, W-8) float64 channels of the view's frames in run."""
        return crop_view(self.sample, self.index[run], self.top, self.left, self.mirror)


@dataclass
class ChannelStack:
    """A sequence given directly by its (T,C,H,W) float channels, as toy
    problems and tests give one; channels() reads them."""

    person_id: str
    camera_id: str
    frames: np.ndarray

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def channels(self, run: slice = slice(None)) -> np.ndarray:
        return self.frames[run]


def _sample(raw: RawSequence) -> SequenceSample:
    """raw's frames as one uint8 stack, with its YUV statistics.

    Frames must be larger than CROP_MARGIN on both sides, so that a crop
    keeps some pixels (and optical flow gets the 2x2 it needs)."""
    frames = np.stack(raw.frames)
    h, w = frames.shape[1:3]
    if h <= CROP_MARGIN or w <= CROP_MARGIN:
        raise DatasetError(f"sequence {raw.person_id}/{raw.camera_id}: frames of {h}x{w} "
                           f"are too small to crop by {CROP_MARGIN}")
    return SequenceSample(raw.person_id, raw.camera_id, frames, channel_stats(rgb_to_yuv(frames)))


def preprocess_dataset(raws: list[RawSequence]) -> list[SequenceSample]:
    """Every raw sequence as a SequenceSample, in input order: its uint8
    frames plus the statistics of its YUV channels. No flow runs here.

    The sequences are cut into one contiguous run per CPU the process may
    use, never more runs than sequences (tensor._cpu_runs), and the runs go
    through their workers at the same time (tensor._at_once). The result is
    bitwise equal to one thread's.
    """
    def work(run: slice) -> list[SequenceSample]:
        return [_sample(raw) for raw in raws[run]]

    parts = _at_once([functools.partial(work, run) for run in _cpu_runs(len(raws))])
    return [sample for part in parts for sample in part]


def by_identity(samples: list[SequenceSample]) -> dict[str, dict[str, SequenceSample]]:
    index: dict[str, dict[str, SequenceSample]] = {}
    for s in samples:
        index.setdefault(s.person_id, {})[s.camera_id] = s
    return index


# ---- crops ----


def crop_view(sample: SequenceSample, frames, top: int, left: int, mirror: bool) -> np.ndarray:
    """The (len(frames), 5, H-8, W-8) float64 stack of sample's frames (an
    index array or a slice), cropped from (top, left), built from its uint8
    frames: YUV standardized by the sample's whole-sequence stats, then
    horizontal and vertical optical flow.

    Frame t's flow runs on full frames, from t to t+1; the last frame reuses
    the flow before it, and a one-frame sample has zero flow. Each frame and
    each frame pair a draw needs is converted once, however often the draw
    repeats it. mirror flips the stack left to right and negates its
    horizontal flow, which flips sign with the image. Every call returns a
    new array, bitwise the crop of the stack that standardizing and flowing
    the whole sequence at once would give.
    """
    n = sample.n_frames
    idx = np.arange(n)[frames]
    h, w = sample.frame_hw
    rows = slice(top, top + h - CROP_MARGIN)
    cols = slice(left, left + w - CROP_MARGIN)
    if mirror:
        cols = slice(cols.stop - 1, left - 1 if left else None, -1)
    flow_at = np.minimum(idx, n - 2)  # the first frame of each frame's flow pair
    firsts = np.unique(flow_at) if n > 1 else idx[:0]
    need = np.union1d(idx, np.concatenate([firsts, firsts + 1]))
    yuv = rgb_to_yuv(sample.frames[need])
    out = np.empty((len(idx), FRAME_CHANNELS, h - CROP_MARGIN, w - CROP_MARGIN))
    standardize_channels(yuv[np.searchsorted(need, idx), :, rows, cols], out=out[:, :3],
                         stats=sample.stats)
    if n > 1:
        at = np.searchsorted(need, firsts)  # frame firsts + 1 sits at at + 1
        flow = lucas_kanade_flow(yuv[at, 0], yuv[at + 1, 0])
        out[:, 3:] = flow[np.searchsorted(firsts, flow_at), :, rows, cols]
    else:
        out[:, 3:] = 0.0
    if mirror:
        np.negative(out[:, 3], out=out[:, 3])
    return out


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
    make_dir(out_dir)
    write_atomic(out_dir / "train.txt", "".join(f"{i}\n" for i in split.train))
    write_atomic(out_dir / "test.txt", "".join(f"{i}\n" for i in split.test))


@dataclass
class PairBatch:
    """One training example: a probe/gallery sequence pair with labels."""

    probe: SequenceView
    gallery: SequenceView
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
    crop offset and a mirror coin, in that order, as a SequenceView: its
    channels are built when the model reads it.
    """
    if k < 1:
        raise ValueError(f"subsequence length must be positive, got {k}")
    ids = sorted(train_ids)
    if len(ids) < 2:
        raise DatasetError(f"pairing needs at least two identities, got {len(ids)}")
    labels = identity_labels(ids)
    rng = np.random.default_rng(seed)

    def draw(pid: str, cam: str) -> SequenceView:
        sample = index[pid][cam]
        n = sample.n_frames
        if n == 0:
            raise DatasetError(f"sequence {pid}/{cam} has no frames")
        start = int(rng.integers(0, n - k + 1)) if n >= k else 0
        idx = np.arange(start, start + k) % n
        top = int(rng.integers(0, CROP_MARGIN + 1))
        left = int(rng.integers(0, CROP_MARGIN + 1))
        mirror = bool(rng.random() < 0.5)
        return SequenceView(sample, idx, top, left, mirror)

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
