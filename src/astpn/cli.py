"""Command line front end: train, eval, extract, gradcheck, synth.

Configuration comes from a JSON file (--config) overridden by explicit flags;
every run writes the resolved configuration next to its outputs. Exit codes:
0 success, 1 usage error, 2 data or checkpoint error, 3 failed check (a
gradcheck failure, or training that reached a non-finite loss or parameter;
no checkpoint with a non-finite value is written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .datapipe import (
    CROP_MARGIN,
    SPLIT_MODES,
    DatasetError,
    by_identity,
    load_dataset,
    make_dir,
    make_split,
    pair_stream,
    preprocess_dataset,
    synth_dataset,
    write_atomic,
    write_split_files,
)
from .evalkit import REPORT_RANKS, CmcCurve, compute_cmc, emit_report, eval_sequence
from .gradcheck import run_gradcheck
from .layers import RNN_OUTPUTS
from .model import (
    TENSOR_NAMES,
    VARIANTS,
    CheckpointError,
    LossConfig,
    extract_feature,
    init_params,
    load_checkpoint,
    rnn_input_dim,
    save_checkpoint,
    sgd_step,
    total_loss,
)
from .tensor import Graph, ShapeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

# the allowed values of RunConfig's choice fields, each set kept beside the
# code that branches on it
FIELD_CHOICES = {"variant": VARIANTS, "rnn_output": RNN_OUTPUTS, "split_mode": SPLIT_MODES}


@dataclass
class RunConfig:
    data_root: str | None = None
    out: str = "runs/run"
    seed: int = 0
    trials: int = 10
    trial: int = 0
    k: int = 16
    margin: float = LossConfig.margin
    feature_dim: int = 128
    lr: float = 0.001
    epochs: int = 700
    variant: str = LossConfig.variant
    rnn_output: str = LossConfig.rnn_output
    use_identity_loss: bool = LossConfig.use_identity_loss
    spp_bins: list | None = None  # None means LossConfig's bins
    split_mode: str = "half"
    save_every: int = 0
    lr_decay_every: int = 0
    lr_decay_factor: float = 1.0
    single_shot: bool = False
    cross_dataset: str | None = None
    fraction: float = 0.5
    checkpoint: str | None = None

    def __post_init__(self):
        if self.spp_bins is None:
            self.spp_bins = [list(b) for b in LossConfig.spp_bins]
        # a value may come from a flag or from --config: either way a data error
        checks = (("seed", self.seed >= 0, ">= 0"),
                  ("trials", self.trials >= 1, ">= 1"), ("trial", self.trial >= 0, ">= 0"),
                  ("k", self.k >= 1, ">= 1"), ("feature_dim", self.feature_dim >= 1, ">= 1"),
                  ("fraction", 0 < self.fraction <= 1, "in (0, 1]"),
                  ("lr", 0 < self.lr < math.inf, "positive and finite"),
                  ("lr_decay_factor", 0 < self.lr_decay_factor < math.inf,
                   "positive and finite"),
                  ("epochs", self.epochs >= 0, ">= 0"),
                  ("save_every", self.save_every >= 0, ">= 0"),
                  ("lr_decay_every", self.lr_decay_every >= 0, ">= 0"))
        for name, ok, bound in checks:
            if not ok:
                raise DatasetError(f"{name} must be {bound}, got {getattr(self, name)}")
        if self.split_mode not in SPLIT_MODES:
            raise DatasetError(f"split_mode must be one of {', '.join(SPLIT_MODES)}, "
                               f"got {self.split_mode!r}")
        bins = self.spp_bins
        if not (bins and all(isinstance(b, (list, tuple)) and len(b) == 2
                             and all(type(n) is int and n >= 1 for n in b) for b in bins)):
            raise DatasetError(f"spp_bins must be a non-empty list of [int, int] pairs "
                               f"of at least 1, got {bins!r}")
        try:
            self.loss_config()  # LossConfig checks the fields it takes
        except ValueError as exc:  # ShapeError included
            raise DatasetError(str(exc)) from exc

    def loss_config(self) -> LossConfig:
        return LossConfig(
            margin=self.margin,
            variant=self.variant,
            use_identity_loss=self.use_identity_loss,
            rnn_output=self.rnn_output,
            spp_bins=tuple(tuple(b) for b in self.spp_bins),
        )


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _field_kinds(name: str) -> tuple[type, ...]:
    """The types a RunConfig field admits, NoneType last for an optional one."""
    hint = _FIELD_TYPES[name]
    return typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)


def _check_json_types(loaded: dict, source: str) -> None:
    """Reject config values whose JSON type does not fit the RunConfig field:
    a bool is not an int, and an int is a float."""
    for name, value in loaded.items():
        hint = _FIELD_TYPES[name]
        kinds = _field_kinds(name)
        if float in kinds:
            kinds += (int,)
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise DatasetError(f"{source}: {name} must be {getattr(hint, '__name__', hint)}, "
                               f"got {value!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then explicit flags."""
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise DatasetError(f"config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise DatasetError(f"config file {config_path}: top level is not a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(loaded) - known
        if unknown:
            raise DatasetError(f"config file {config_path}: unknown keys {sorted(unknown)}")
        _check_json_types(loaded, f"config file {config_path}")
        values.update(loaded)
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    return RunConfig(**values)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_resolved_config(cfg: RunConfig, out_dir: Path) -> None:
    make_dir(out_dir)
    write_atomic(out_dir / "config.json",
                 json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n")


def _load_index(root):
    """Index a dataset root by identity; also list the identities seen by two
    or more cameras. Every sequence must share one frame size."""
    if not root:
        raise DatasetError("no dataset root given (set --data-root or the config file)")
    samples = preprocess_dataset(load_dataset(root))
    if not samples:
        raise DatasetError(f"dataset root {root} holds no sequences")
    sizes = sorted({s.frame_hw for s in samples})
    if len(sizes) > 1:
        raise DatasetError(f"{root}: sequences differ in frame size {sizes}; "
                           "all must share one")
    index = by_identity(samples)
    usable = sorted(pid for pid, cams in index.items() if len(cams) >= 2)
    if not usable:
        raise DatasetError(f"{root}: no identities with two cameras")
    return index, usable


def _frame_hw_after_crop(index) -> tuple[int, int]:
    sample = next(iter(next(iter(index.values())).values()))
    h, w = sample.frame_hw
    return h - CROP_MARGIN, w - CROP_MARGIN


def _save_if_finite(params, path: Path) -> bool:
    """Write a checkpoint unless a parameter holds an inf or a nan."""
    bad = [name for name, t in params.named_tensors().items()
           if not np.isfinite(t.data).all()]
    if bad:
        print(f"error: training diverged: non-finite values in {', '.join(bad)}; "
              f"{path} not written", file=sys.stderr)
        return False
    save_checkpoint(params, path)
    return True


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out_dir = Path(cfg.out)
    write_resolved_config(cfg, out_dir)
    index, usable = _load_index(cfg.data_root)
    split = make_split(usable, cfg.seed, cfg.trial, cfg.split_mode)
    write_split_files(split, out_dir / "splits")

    loss_cfg = cfg.loss_config()
    params = init_params(cfg.seed, len(split.train), loss_cfg,
                         feature_dim=cfg.feature_dim,
                         frame_hw=_frame_hw_after_crop(index))
    stream = pair_stream(index, split.train, cfg.k, seed=cfg.seed)
    pairs_per_epoch = 2 * len(split.train)

    lr = cfg.lr
    log_lines = ["epoch,mean_loss"]
    for epoch in range(cfg.epochs):
        if cfg.lr_decay_every > 0 and epoch > 0 and epoch % cfg.lr_decay_every == 0:
            lr *= cfg.lr_decay_factor
        total = 0.0
        for _ in range(pairs_per_epoch):
            pair = next(stream)
            graph = Graph()
            loss = total_loss(graph, pair, params, loss_cfg)
            value = loss.item()
            if not math.isfinite(value):
                print(f"error: training diverged: epoch {epoch} reached loss {value}",
                      file=sys.stderr)
                return EXIT_CHECK
            graph.backward(loss)
            sgd_step(params, lr)
            total += value
        mean_loss = total / pairs_per_epoch
        log_lines.append(f"{epoch},{mean_loss:.17g}")
        print(f"epoch {epoch}: mean loss {mean_loss:.6f}")
        if cfg.save_every > 0 and (epoch + 1) % cfg.save_every == 0:
            if not _save_if_finite(params, out_dir / f"checkpoint_epoch_{epoch + 1}.astp"):
                return EXIT_CHECK

    write_atomic(out_dir / "train_log.csv", "\n".join(log_lines) + "\n")
    if not _save_if_finite(params, out_dir / "checkpoint.astp"):
        return EXIT_CHECK
    print(f"saved {out_dir / 'checkpoint.astp'}")
    return EXIT_OK


def _load_checked(cfg: RunConfig, command: str, root):
    """What eval and extract read and check before either writes a file: the
    --checkpoint, then the set at root, whose frame size and the
    configuration must imply the checkpoint's rnn.u_in shape. Returns
    (params, index, usable) as _load_index does."""
    if not cfg.checkpoint:
        raise DatasetError(f"{command} needs --checkpoint")
    params = load_checkpoint(cfg.checkpoint)
    index, usable = _load_index(root)
    expected = (cfg.feature_dim, rnn_input_dim(cfg.loss_config(), _frame_hw_after_crop(index)))
    if params["rnn.u_in"].shape != expected:
        raise CheckpointError(f"rnn.u_in has shape {params['rnn.u_in'].shape} but the "
                              f"configuration implies {expected}")
    return params, index, usable


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    if cfg.cross_dataset:
        # a cross-dataset run is one pass over its own root; a config file may
        # still hold the train run's data_root, trials and split_mode
        ignored = [f"--{name.replace('_', '-')}" for name in ("data_root", "trials", "split_mode")
                   if getattr(args, name) is not None]
        if ignored:
            raise DatasetError(f"--cross-dataset evaluates one pass over its own root; "
                               f"it takes no {', '.join(ignored)}")
    root = cfg.cross_dataset or cfg.data_root
    params, index, usable = _load_checked(cfg, "eval", root)
    out_dir = Path(cfg.out)
    write_resolved_config(cfg, out_dir)
    meta = {"config_hash": config_hash(cfg), "seed": cfg.seed}
    if cfg.cross_dataset:
        # one pass over a seeded share of the other set's identities, at least one
        n_eval = max(1, round(cfg.fraction * len(usable)))
        chosen = np.random.default_rng(cfg.seed).choice(len(usable), size=n_eval, replace=False)
        passes = [[usable[i] for i in sorted(chosen)]]
        meta.update(fraction=cfg.fraction, n_identities=n_eval, source=cfg.cross_dataset)
    else:
        passes = [make_split(usable, cfg.seed, trial, cfg.split_mode).test
                  for trial in range(cfg.trials)]
    features = {}  # every pass draws its identities from one index
    curves = [compute_cmc(index, ids, params, cfg.loss_config(),
                          eval_k=1 if cfg.single_shot else None, seed=cfg.seed,
                          features=features) for ids in passes]

    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = out_dir / f"cmc_{Path(root).name or 'dataset'}_{cfg.variant}_{stamp}"
    csv_path, json_path = emit_report(curves, base, meta=meta)
    mean = CmcCurve(np.mean([c.values for c in curves], axis=0), sum(c.n_probes for c in curves))
    for r in REPORT_RANKS:
        print(f"rank-{r}: {mean.rank(r):.4f}")
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    params, index, usable = _load_checked(cfg, "extract", cfg.data_root)
    loss_cfg = cfg.loss_config()
    eval_k = 1 if cfg.single_shot else None
    out_dir = Path(cfg.out)
    write_resolved_config(cfg, out_dir)
    lines = ["person_id,camera_id," + ",".join(f"f{i}" for i in range(cfg.feature_dim))]
    for pid in usable:
        for cam in sorted(index[pid]):
            feat = extract_feature(eval_sequence(index[pid][cam], eval_k), params, loss_cfg)
            lines.append(f"{pid},{cam}," + ",".join(f"{v:.17g}" for v in feat))
    path = out_dir / "features.csv"
    write_atomic(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lines) - 1} sequences)")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = run_gradcheck(seed=args.seed,
                           samples_per_tensor=args.samples,
                           tol=args.tol,
                           corrupt=args.corrupt)
    for name, err in report.worst.items():
        status = "ok" if err < report.tol else "FAIL"
        print(f"{name:20s} max rel err {err:.3e} over {report.checked[name]} elements [{status}]")
    if report.passed:
        print(f"gradcheck passed (worst {report.worst_overall:.3e} < {report.tol:g})")
        return EXIT_OK
    print(f"gradcheck FAILED (worst {report.worst_overall:.3e} >= {report.tol:g})")
    return EXIT_CHECK


def cmd_synth(args: argparse.Namespace) -> int:
    n_files = synth_dataset(
        args.root, n_ids=args.ids, n_cams=args.cams, frames_per_seq=args.frames,
        size=(args.height, args.width), seed=args.seed,
        signal_frames=args.signal_frames,
    )
    print(f"wrote {n_files} frames for {args.ids} identities x {args.cams} cameras "
          f"under {args.root}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _checked(kind: type, ok, bound: str):
    """An argparse type: kind(text), which must pass ok, else a usage error
    saying it must be bound."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type when kind(text) fails
    return parse


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, ">= 1")
_NOT_NEGATIVE = _checked(int, lambda v: v >= 0, ">= 0")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One --field-name flag per RunConfig field, typed by its annotation;
    spp_bins is set in the config file only."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(RunConfig):
        if f.name == "spp_bins":
            continue
        flag, kind = "--" + f.name.replace("_", "-"), _field_kinds(f.name)[0]
        if kind is bool:
            p.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, dest=f.name, type=kind, choices=FIELD_CHOICES.get(f.name))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="astpn",
                     description="video sequence matcher: train, evaluate, inspect")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a dataset split")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint (CMC report)")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_extract = sub.add_parser("extract", help="dump per-sequence features to CSV")
    _add_config_flags(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--seed", type=_NOT_NEGATIVE, default=0)
    p_grad.add_argument("--samples", type=_AT_LEAST_ONE, default=24)
    p_grad.add_argument("--tol", type=_checked(float, lambda v: 0 < v < math.inf,
                                               "positive and finite"), default=1e-4)
    p_grad.add_argument("--corrupt", help="tensor name whose gradient is perturbed",
                        type=_checked(str, lambda v: v in TENSOR_NAMES,
                                      "a model tensor, named as gradcheck lists them"))
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate a synthetic PPM dataset")
    p_synth.add_argument("root")
    for flag, default in (("--ids", 8), ("--cams", 2), ("--frames", 16)):
        p_synth.add_argument(flag, type=_AT_LEAST_ONE, default=default)
    # every reader crops a frame to its height and width less CROP_MARGIN
    croppable = _checked(int, lambda v: v > CROP_MARGIN, f"> {CROP_MARGIN}")
    for flag, default in (("--height", 24), ("--width", 16)):
        p_synth.add_argument(flag, type=croppable, default=default)
    p_synth.add_argument("--seed", type=_NOT_NEGATIVE, default=0)
    p_synth.add_argument("--signal-frames", dest="signal_frames", type=_NOT_NEGATIVE)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, CheckpointError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    raise SystemExit(main())
