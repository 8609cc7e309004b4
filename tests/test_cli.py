"""End-to-end command line tests, driven in-process through main() so exit
codes and emitted artifacts can be asserted directly."""

import argparse
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
import typing
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import astpn
from astpn import evalkit
from astpn.cli import (
    EXIT_CHECK,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    _save_if_finite,
    build_parser,
    config_hash,
    main,
)
from astpn.datapipe import (
    SPLIT_MODES,
    ChannelStack,
    by_identity,
    load_dataset,
    make_split,
    pair_stream,
    preprocess_dataset,
    synth_dataset,
)
from astpn.layers import RNN_OUTPUTS
from astpn.model import (
    VARIANTS,
    LossConfig,
    extract_feature,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    total_loss,
)
from astpn.tensor import Graph


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    assert main(["synth", str(root), "--ids", "8", "--cams", "2", "--frames", "8",
                 "--height", "24", "--width", "16", "--seed", "0"]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def trained_run(cli_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["train", "--data-root", str(cli_data), "--out", str(out),
                 "--epochs", "1", "--feature-dim", "16", "--k", "4", "--seed", "0"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def hard_data(tmp_path_factory):
    """8 identities of which one frame in eight shows the identity, so the
    trained_run checkpoint ranks some true matches below rank 1."""
    root = tmp_path_factory.mktemp("cli") / "hard"
    assert main(["synth", str(root), "--ids", "8", "--frames", "8", "--seed", "0",
                 "--signal-frames", "1"]) == EXIT_OK
    return root


# ---- synth ----


def test_synth_writes_expected_tree(cli_data):
    files = sorted(cli_data.rglob("*.ppm"))
    assert len(files) == 8 * 2 * 8
    assert (cli_data / "p000" / "cam0" / "00000.ppm").exists()


def assert_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and f"error: argument {flag}: must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", [
    ("--ids", "0"), ("--cams", "0"), ("--frames", "0"), ("--height", "0"), ("--width", "-2"),
    ("--signal-frames", "-1"), ("--seed", "-1"),
])
def test_synth_bad_count_is_usage_error(tmp_path, capsys, flag, value):
    root = tmp_path / "data"
    assert_usage_error(capsys, ["synth", str(root), flag, value], flag)
    assert not root.exists()


@pytest.mark.parametrize("flag,value", [("--height", "4"), ("--width", "8")])
def test_synth_frames_too_small_to_crop_are_usage_error(tmp_path, capsys, flag, value):
    # every reader refuses frames of at most CROP_MARGIN pixels on a side
    root = tmp_path / "data"
    assert_usage_error(capsys, ["synth", str(root), flag, value], flag)
    assert not root.exists()


def test_synth_root_that_is_a_file_is_data_error(tmp_path, capsys):
    root = tmp_path / "data"
    root.write_text("not a directory\n")
    assert main(["synth", str(root), "--ids", "1", "--frames", "1"]) == EXIT_DATA
    assert_one_error_line(capsys)
    assert root.read_text() == "not a directory\n"


def test_synth_with_a_file_in_place_of_an_identity_directory_is_data_error(tmp_path, capsys):
    root = tmp_path / "data"
    root.mkdir()
    (root / "p000").write_text("not a directory\n")
    assert main(["synth", str(root), "--ids", "1", "--frames", "1"]) == EXIT_DATA
    assert_one_error_line(capsys)
    assert (root / "p000").read_text() == "not a directory\n"


# ---- train ----


def test_train_zero_epochs_checkpoint_equals_init(cli_data, tmp_path):
    out = tmp_path / "run0"
    code = main(["train", "--data-root", str(cli_data), "--out", str(out),
                 "--epochs", "0", "--feature-dim", "16", "--seed", "3"])
    assert code == EXIT_OK
    params = load_checkpoint(out / "checkpoint.astp")
    split = make_split([f"p{i:03d}" for i in range(8)], seed=3, trial=0)
    expected = init_params(3, len(split.train), LossConfig(),
                           feature_dim=16, frame_hw=(16, 8))
    for name, t in expected.named_tensors().items():
        np.testing.assert_array_equal(params.named_tensors()[name].data, t.data)


def test_train_writes_artifacts(trained_run):
    assert (trained_run / "checkpoint.astp").exists()
    assert (trained_run / "config.json").exists()
    log = (trained_run / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,mean_loss"
    assert len(log) == 2  # one epoch
    epoch, loss = log[1].split(",")
    assert epoch == "0"
    assert float(loss) > 0


def test_train_writes_split_files(trained_run):
    train_ids = (trained_run / "splits" / "trial_0" / "train.txt").read_text().split()
    test_ids = (trained_run / "splits" / "trial_0" / "test.txt").read_text().split()
    assert len(train_ids) == 4
    assert len(test_ids) == 4
    assert not set(train_ids) & set(test_ids)


def test_train_same_seed_is_bitwise_reproducible(cli_data, tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["train", "--data-root", str(cli_data), "--out", str(out),
                     "--epochs", "1", "--feature-dim", "16", "--k", "4", "--seed", "0"])
        assert code == EXIT_OK
        blobs.append((out / "checkpoint.astp").read_bytes())
    assert blobs[0] == blobs[1]


def test_train_lr_step_decay_matches_a_manual_schedule(cli_data, tmp_path):
    # --lr-decay-every 1 --lr-decay-factor 0.5 trains epochs 0, 1, 2 at lr,
    # lr/2 and lr/4; the same loop run by hand writes the same bytes
    argv = ["train", "--data-root", str(cli_data), "--epochs", "3", "--feature-dim", "8",
            "--k", "2", "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "decay"), "--lr-decay-every", "1",
                        "--lr-decay-factor", "0.5"]) == EXIT_OK
    assert main(argv + ["--out", str(tmp_path / "flat")]) == EXIT_OK

    cfg = LossConfig()
    index = by_identity(preprocess_dataset(load_dataset(cli_data)))
    split = make_split(sorted(index), 0, 0, "half")
    params = init_params(0, len(split.train), cfg, feature_dim=8, frame_hw=(16, 8))
    stream = pair_stream(index, split.train, 2, seed=0)
    for lr in (1e-3, 1e-3 / 2, 1e-3 / 4):
        for _ in range(2 * len(split.train)):
            graph = Graph()
            graph.backward(total_loss(graph, next(stream), params, cfg))
            sgd_step(params, lr)
    save_checkpoint(params, tmp_path / "manual.astp")
    decayed = (tmp_path / "decay" / "checkpoint.astp").read_bytes()
    assert decayed == (tmp_path / "manual.astp").read_bytes()
    assert decayed != (tmp_path / "flat" / "checkpoint.astp").read_bytes()


def test_train_save_every_emits_interim_checkpoints(cli_data, tmp_path):
    out = tmp_path / "interim"
    code = main(["train", "--data-root", str(cli_data), "--out", str(out),
                 "--epochs", "2", "--feature-dim", "16", "--k", "4",
                 "--save-every", "1"])
    assert code == EXIT_OK
    assert (out / "checkpoint_epoch_1.astp").exists()
    assert (out / "checkpoint_epoch_2.astp").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_train_divergence_exits_check_and_keeps_only_finite_checkpoints(tmp_path):
    root = tmp_path / "data4"
    assert main(["synth", str(root), "--ids", "4", "--frames", "8", "--seed", "0"]) == EXIT_OK
    out = tmp_path / "diverged"
    # the loss overflows through epochs 0 and 1 and is nan in epoch 2
    code = main(["train", "--data-root", str(root), "--out", str(out), "--lr", "1e6",
                 "--epochs", "3", "--k", "4", "--split-mode", "all",
                 "--feature-dim", "16", "--save-every", "1"])
    assert code == EXIT_CHECK
    assert not (out / "checkpoint.astp").exists()
    saved = sorted(out.glob("*.astp"))
    assert [p.name for p in saved] == ["checkpoint_epoch_1.astp", "checkpoint_epoch_2.astp"]
    for path in saved:
        for t in load_checkpoint(path).named_tensors().values():
            assert np.isfinite(t.data).all()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_with_a_nan_parameter_exits_check_without_a_checkpoint(cli_data, tmp_path,
                                                                      capsys, monkeypatch):
    # a nan kernel makes every conv map nan, which the pyramid pooling must
    # carry to the loss rather than fail on
    def nan_init(*args, **kwargs):
        params = init_params(*args, **kwargs)
        params["conv1.kernel"].data[0, 0, 0, 0] = np.nan
        return params

    monkeypatch.setattr(astpn.cli, "init_params", nan_init)
    out = tmp_path / "nan"
    assert main(["train", "--data-root", str(cli_data), "--out", str(out), "--epochs", "1",
                 "--k", "4", "--feature-dim", "8"]) == EXIT_CHECK
    assert_one_error_line(capsys)
    assert not list(out.glob("*.astp"))


def test_save_if_finite_refuses_non_finite_parameters(tmp_path):
    params = init_params(0, 2, LossConfig(), feature_dim=4)
    assert _save_if_finite(params, tmp_path / "ok.astp")
    params["rnn.w_rec"].data[0, 0] = np.inf
    assert not _save_if_finite(params, tmp_path / "bad.astp")
    assert not (tmp_path / "bad.astp").exists()


def test_mixed_frame_sizes_is_data_error(tmp_path):
    root = tmp_path / "mixed"
    other = tmp_path / "tall"
    assert main(["synth", str(root), "--ids", "3", "--frames", "4"]) == EXIT_OK
    assert main(["synth", str(other), "--ids", "1", "--frames", "4", "--height", "32",
                 "--seed", "1"]) == EXIT_OK
    shutil.copytree(other / "p000", root / "p999")
    code = main(["train", "--data-root", str(root), "--out", str(tmp_path / "run"),
                 "--epochs", "1", "--k", "4", "--split-mode", "all", "--feature-dim", "8",
                 "--variant", "atpn_only"])
    assert code == EXIT_DATA


def test_train_missing_data_root_is_data_error(tmp_path):
    assert main(["train", "--out", str(tmp_path / "x")]) == EXIT_DATA
    assert main(["train", "--data-root", str(tmp_path / "void"),
                 "--out", str(tmp_path / "y")]) == EXIT_DATA


@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_root_that_is_a_file_is_data_error(trained_run, tmp_path, capsys, command):
    root = tmp_path / "data"
    root.write_text("not a directory\n")
    argv = [command, "--out", str(tmp_path / "out"), "--feature-dim", "16"]
    if command == "train":
        argv += ["--data-root", str(root)]
    else:
        argv += ["--checkpoint", str(trained_run / "checkpoint.astp"), "--cross-dataset", str(root)]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "is not a directory" in err and "Traceback" not in err


# ---- config resolution ----


def test_config_file_with_flag_override(cli_data, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data_root": str(cli_data),
        "epochs": 0,
        "feature_dim": 16,
        "out": str(tmp_path / "from_file"),
    }))
    out = tmp_path / "overridden"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_OK
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["epochs"] == 0          # from the file
    assert resolved["out"] == str(out)      # flag wins over the file
    assert resolved["feature_dim"] == 16
    assert resolved["variant"] == "astpn"   # untouched default


def test_config_file_unknown_key_is_data_error(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"step_size": 0.1}))
    assert main(["train", "--config", str(cfg_path)]) == EXIT_DATA


@pytest.mark.parametrize("body", ["{nope", "3", '[["k", 2]]', '"k"'],
                         ids=["broken", "number", "array", "string"])
def test_config_file_invalid_json_is_data_error(tmp_path, capsys, body):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text(body)
    assert main(["train", "--config", str(cfg_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_file_that_is_not_utf8_is_data_error(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.json"
    cfg_path.write_bytes('{"data_root": "données"}'.encode("latin-1"))
    assert main(["train", "--config", str(cfg_path)]) == EXIT_DATA
    assert_one_error_line(capsys)


@pytest.mark.parametrize("command,flags", [
    ("eval", ["--trials", "0"]),
    ("eval", ["--cross-dataset", "{data}", "--fraction", "0"]),
    ("train", ["--k", "0"]),
    ("train", ["--margin", "-1"]),
    ("train", ["--margin", "inf"]),
    ("train", ["--feature-dim", "0"]),
    ("train", ["--trial", "-1"]),
    ("train", ["--lr", "0"]),
    ("train", ["--lr", "nan"]),
    ("train", ["--lr", "inf"]),
    ("train", ["--lr-decay-factor", "nan"]),
    ("train", ["--lr-decay-factor", "-0.5"]),
    ("train", ["--epochs", "-1"]),
    ("train", ["--save-every", "-2"]),
    ("train", ["--lr-decay-every", "-1"]),
    ("train", ["--seed", "-1"]),
    ("train", ["--seed", "-1", "--split-mode", "all"]),
    ("eval", ["--seed", "-1"]),
], ids=["trials", "fraction", "k", "margin", "margin-inf", "feature_dim", "trial", "lr-zero",
        "lr-nan", "lr-inf", "decay-factor-nan", "decay-factor-negative", "epochs", "save-every",
        "decay-every", "seed", "seed-split-all", "seed-eval"])
def test_out_of_range_config_value_is_data_error(cli_data, trained_run, tmp_path, capsys,
                                                 command, flags):
    argv = [command, "--data-root", str(cli_data), "--out", str(tmp_path / "out"),
            "--feature-dim", "16", "--epochs", "0"]
    if command == "eval":
        argv += ["--checkpoint", str(trained_run / "checkpoint.astp")]
    argv += [f.replace("{data}", str(cli_data)) for f in flags]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_out_of_range_value_in_config_file_is_data_error(cli_data, tmp_path):
    cfg_path = tmp_path / "bad_k.json"
    cfg_path.write_text(json.dumps({"k": 0, "epochs": 0, "feature_dim": 16}))
    assert main(["train", "--config", str(cfg_path), "--data-root", str(cli_data),
                 "--out", str(tmp_path / "out")]) == EXIT_DATA


@pytest.mark.parametrize("values", [
    {"lr": float("nan")}, {"lr": -1}, {"lr_decay_factor": 0}, {"epochs": -1},
    {"save_every": -1}, {"lr_decay_every": -3}, {"margin": float("inf")}, {"seed": -1},
], ids=["lr-nan", "lr-negative", "decay-factor-zero", "epochs", "save-every", "decay-every",
        "margin-inf", "seed"])
def test_out_of_range_training_setting_in_config_file_is_data_error(cli_data, tmp_path,
                                                                   capsys, values):
    cfg_path = tmp_path / "bad_setting.json"
    cfg_path.write_text(json.dumps({"epochs": 0, "feature_dim": 16, **values}))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--data-root", str(cli_data),
                 "--out", str(out)]) == EXIT_DATA
    assert_one_error_line(capsys)
    assert not (out / "checkpoint.astp").exists()


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("values", [
    {"k": "4"}, {"epochs": "2"}, {"k": True}, {"k": 4.0}, {"margin": "3"},
    {"use_identity_loss": 1}, {"data_root": 7}, {"spp_bins": "8"},
], ids=["k-str", "epochs-str", "k-bool", "k-float", "margin-str", "bool-int", "root-int",
        "bins-str"])
def test_config_file_value_of_wrong_type_is_data_error(cli_data, tmp_path, capsys, values):
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps({"data_root": str(cli_data), "epochs": 0,
                                    "feature_dim": 16, **values}))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert_one_error_line(capsys)


@pytest.mark.parametrize("values", [
    {"variant": "nope"}, {"split_mode": "x"}, {"rnn_output": "zzz"}, {"spp_bins": [[0, 0]]},
    {"spp_bins": [["a", 1]]}, {"spp_bins": [3]}, {"spp_bins": []},
    {"spp_bins": [[8, 8], [3, 3]]},
], ids=["variant", "split-mode", "rnn-output", "bins-zero", "bins-str", "bins-not-pairs",
        "bins-empty", "bins-not-halving"])
def test_config_file_bad_choice_or_bins_is_data_error(cli_data, tmp_path, capsys, values):
    cfg_path = tmp_path / "choices.json"
    cfg_path.write_text(json.dumps({"data_root": str(cli_data), "epochs": 0,
                                    "feature_dim": 16, **values}))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert_one_error_line(capsys)


def test_config_file_int_for_float_field_is_accepted(cli_data, tmp_path):
    cfg_path = tmp_path / "int_margin.json"
    cfg_path.write_text(json.dumps({"margin": 2, "lr_decay_factor": 1, "epochs": 0,
                                    "feature_dim": 16}))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--data-root", str(cli_data),
                 "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "config.json").read_text())["margin"] == 2


def test_shape_error_in_a_command_is_data_error(cli_data, tmp_path, capsys):
    # an SPP bin finer than the 16x8 crops' conv map fails inside the model
    cfg_path = tmp_path / "fine_bins.json"
    cfg_path.write_text(json.dumps({"spp_bins": [[16, 16]], "epochs": 1, "k": 4,
                                    "feature_dim": 16}))
    assert main(["train", "--config", str(cfg_path), "--data-root", str(cli_data),
                 "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert_one_error_line(capsys)


def test_config_flags_mirror_run_config_fields():
    # one --field-name flag per RunConfig field but the file-only spp_bins,
    # with the field's dest, annotated type and choice set
    hints = typing.get_type_hints(RunConfig)
    choices = {"variant": VARIANTS, "rnn_output": RNN_OUTPUTS, "split_mode": SPLIT_MODES}
    expected = [f.name for f in fields(RunConfig) if f.name != "spp_bins"]
    assert len(expected) == len(fields(RunConfig)) - 1 == 21
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command in ("train", "eval", "extract"):
        actions = [a for a in commands[command]._actions if a.dest not in ("help", "config")]
        assert [a.dest for a in actions] == expected
        for action in actions:
            flag = "--" + action.dest.replace("_", "-")
            kind = typing.get_args(hints[action.dest]) or (hints[action.dest],)
            if kind[0] is bool:
                assert isinstance(action, argparse.BooleanOptionalAction)
                assert action.option_strings == [flag, "--no-" + flag[2:]]
            else:
                assert action.option_strings == [flag]
                assert action.type is kind[0]
            assert action.default is None
            assert action.choices == choices.get(action.dest)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--epochs", "three"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == EXIT_USAGE


# ---- eval ----


def test_eval_emits_valid_reports(cli_data, trained_run, tmp_path):
    out = tmp_path / "eval"
    code = main(["eval", "--data-root", str(cli_data), "--out", str(out),
                 "--checkpoint", str(trained_run / "checkpoint.astp"),
                 "--feature-dim", "16", "--trials", "3", "--seed", "0"])
    assert code == EXIT_OK
    csvs = list(out.glob("cmc_*_astpn_*.csv"))
    jsons = list(out.glob("cmc_*_astpn_*.json"))
    assert len(csvs) == 1 and len(jsons) == 1
    lines = csvs[0].read_text().splitlines()
    assert lines[0] == "rank,mean,std,trial_1,trial_2,trial_3"
    assert len(lines) == 5  # gallery of 4 test identities
    values = np.array([[float(c) for c in l.split(",")[1:]] for l in lines[1:]])
    assert ((0.0 <= values) & (values <= 1.0)).all()
    summary = json.loads(jsons[0].read_text())
    assert summary["n_trials"] == 3
    assert set(summary["rank_means"]) == {"1", "5", "10", "20"}
    assert "config_hash" in summary


def test_eval_single_shot_mode(cli_data, trained_run, tmp_path):
    out = tmp_path / "ss"
    code = main(["eval", "--data-root", str(cli_data), "--out", str(out),
                 "--checkpoint", str(trained_run / "checkpoint.astp"),
                 "--feature-dim", "16", "--trials", "1", "--single-shot"])
    assert code == EXIT_OK
    assert list(out.glob("cmc_*.csv"))
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["single_shot"] is True


def test_eval_cross_dataset_mode(trained_run, tmp_path):
    foreign = tmp_path / "foreign"
    assert main(["synth", str(foreign), "--ids", "6", "--cams", "2", "--frames", "8",
                 "--height", "24", "--width", "16", "--seed", "9"]) == EXIT_OK
    out = tmp_path / "cross"
    code = main(["eval", "--out", str(out),
                 "--checkpoint", str(trained_run / "checkpoint.astp"),
                 "--feature-dim", "16", "--cross-dataset", str(foreign),
                 "--fraction", "0.5", "--seed", "0"])
    assert code == EXIT_OK
    summary = json.loads(next(out.glob("cmc_foreign_*.json")).read_text())
    assert set(summary) == {"rank_means", "n_trials", "n_probes", "gallery_size",
                            "config_hash", "seed", "fraction", "n_identities", "source"}
    resolved = json.loads((out / "config.json").read_text())
    assert summary["config_hash"] == config_hash(RunConfig(**resolved))
    assert (summary["seed"], summary["fraction"], summary["n_identities"]) == (0, 0.5, 3)
    assert summary["source"] == str(foreign)
    assert summary["n_probes"] == [3]


@pytest.mark.parametrize("flag", [["--data-root", "{data}"], ["--trials", "2"],
                                  ["--split-mode", "all"]])
def test_eval_cross_dataset_refuses_a_flag_it_would_ignore(cli_data, trained_run, tmp_path,
                                                           capsys, flag):
    out = tmp_path / "cross"
    code = main(["eval", "--out", str(out), "--checkpoint", str(trained_run / "checkpoint.astp"),
                 "--feature-dim", "16", "--cross-dataset", str(cli_data),
                 *(arg.format(data=cli_data) for arg in flag)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and flag[0] in err and "Traceback" not in err
    assert not out.exists()


def test_eval_cross_dataset_takes_a_train_config(cli_data, trained_run, tmp_path):
    # the train run's config.json holds data_root, trials and split_mode
    resolved = json.loads((trained_run / "config.json").read_text())
    assert resolved["data_root"] == str(cli_data)
    out = tmp_path / "cross"
    code = main(["eval", "--config", str(trained_run / "config.json"), "--out", str(out),
                 "--checkpoint", str(trained_run / "checkpoint.astp"),
                 "--cross-dataset", str(cli_data), "--fraction", "0.5"])
    assert code == EXIT_OK
    summary = json.loads(next(out.glob("cmc_data_*.json")).read_text())
    assert summary["n_trials"] == 1 and summary["source"] == str(cli_data)


def test_eval_prints_the_rank_means_of_its_report(hard_data, trained_run, tmp_path, capsys):
    out = tmp_path / "eval"
    # three trials over 4 test identities each: rank-10 and rank-20 clamp to rank-4
    code = main(["eval", "--data-root", str(hard_data), "--out", str(out),
                 "--checkpoint", str(trained_run / "checkpoint.astp"), "--feature-dim", "16",
                 "--trials", "3", "--split-mode", "half", "--seed", "2"])
    assert code == EXIT_OK
    summary = json.loads(next(out.glob("cmc_*.json")).read_text())
    assert summary["gallery_size"] == 4 and 0 < summary["rank_means"]["1"] < 1
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("rank-")]
    assert printed == [f"rank-{r}: {summary['rank_means'][str(r)]:.4f}" for r in (1, 5, 10, 20)]


def test_eval_cross_dataset_frame_size_is_data_error(tmp_path):
    # an atpn_only checkpoint fixes the frame size through rnn.u_in: one from
    # 24x16 frames cannot run on 32x16 frames, nor on a set of mixed sizes
    params = init_params(0, 2, LossConfig(variant="atpn_only"), feature_dim=8,
                         frame_hw=(16, 8))
    checkpoint = tmp_path / "atpn.astp"
    save_checkpoint(params, checkpoint)
    tall = tmp_path / "tall"
    assert main(["synth", str(tall), "--ids", "2", "--frames", "4", "--height", "32"]) == EXIT_OK
    mixed = tmp_path / "mixed"
    assert main(["synth", str(mixed), "--ids", "2", "--frames", "4"]) == EXIT_OK
    shutil.copytree(tall / "p000", mixed / "p999")
    for root in (tall, mixed):
        code = main(["eval", "--out", str(tmp_path / root.name), "--checkpoint", str(checkpoint),
                     "--feature-dim", "8", "--variant", "atpn_only",
                     "--cross-dataset", str(root), "--fraction", "1.0"])
        assert code == EXIT_DATA


def test_eval_checkpoint_config_mismatch_is_data_error(cli_data, trained_run, tmp_path):
    # checkpoint trained with feature_dim 16; claiming 32 must be rejected
    out = tmp_path / "bad"
    code = main(["eval", "--data-root", str(cli_data), "--out", str(out),
                 "--checkpoint", str(trained_run / "checkpoint.astp"),
                 "--feature-dim", "32", "--trials", "1"])
    assert code == EXIT_DATA


def test_eval_featurises_each_sequence_once_across_trials(cli_data, trained_run, tmp_path,
                                                         monkeypatch):
    calls = Counter()
    original = evalkit.extract_feature

    def counting(seq, params, cfg):
        calls[seq.person_id, seq.camera_id] += 1
        return original(seq, params, cfg)

    monkeypatch.setattr(evalkit, "extract_feature", counting)
    checkpoint = trained_run / "checkpoint.astp"
    out = tmp_path / "memo"
    code = main(["eval", "--data-root", str(cli_data), "--out", str(out),
                 "--checkpoint", str(checkpoint), "--feature-dim", "16",
                 "--trials", "3", "--split-mode", "half", "--seed", "0"])
    assert code == EXIT_OK
    ids = [f"p{i:03d}" for i in range(8)]
    tests = [make_split(ids, 0, trial, "half").test for trial in range(3)]
    distinct = set().union(*tests)
    assert sum(len(t) for t in tests) > len(distinct)  # the trials overlap
    assert calls == Counter({(pid, cam): 1 for pid in distinct for cam in ("cam0", "cam1")})

    # the memo changes no float: evaluating each trial on its own, without
    # it, writes the same CSV
    monkeypatch.setattr(evalkit, "extract_feature", original)
    index = by_identity(preprocess_dataset(load_dataset(cli_data)))
    params = load_checkpoint(checkpoint)
    curves = [evalkit.compute_cmc(index, test, params, LossConfig(), seed=0) for test in tests]
    reference, _ = evalkit.emit_report(curves, tmp_path / "reference" / "cmc")
    assert next(out.glob("cmc_*.csv")).read_bytes() == reference.read_bytes()


def test_eval_featurises_in_one_order_on_the_calling_thread(cli_data, trained_run, tmp_path,
                                                           monkeypatch):
    # a caller that wraps extract_feature, as a benchmark digest of the
    # features in call order does, sees the same calls in every run
    original = evalkit.extract_feature
    runs = []

    def recording(seq, params, cfg):
        feat = original(seq, params, cfg)
        runs[-1].append((threading.get_ident(), seq.person_id, seq.camera_id, feat.tobytes()))
        return feat

    monkeypatch.setattr(evalkit, "extract_feature", recording)
    for run in ("first", "second"):
        runs.append([])
        code = main(["eval", "--data-root", str(cli_data), "--out", str(tmp_path / run),
                     "--checkpoint", str(trained_run / "checkpoint.astp"),
                     "--feature-dim", "16", "--trials", "2", "--split-mode", "half",
                     "--seed", "0"])
        assert code == EXIT_OK
    first, second = runs
    sequences = [(pid, cam) for _, pid, cam, _ in first]
    assert len(sequences) == len(set(sequences)) > 0
    assert {ident for ident, *_ in first + second} == {threading.get_ident()}
    assert first == second


def test_eval_inconsistent_checkpoint_is_data_error(cli_data, tmp_path):
    params = init_params(0, 4, LossConfig(), feature_dim=8)
    params["att.u_att"].data = np.zeros((5, 5))
    checkpoint = tmp_path / "inconsistent.astp"
    save_checkpoint(params, checkpoint)
    code = main(["eval", "--data-root", str(cli_data), "--out", str(tmp_path / "a"),
                 "--checkpoint", str(checkpoint), "--feature-dim", "8", "--trials", "1"])
    assert code == EXIT_DATA
    code = main(["eval", "--out", str(tmp_path / "b"), "--checkpoint", str(checkpoint),
                 "--feature-dim", "8", "--cross-dataset", str(cli_data)])
    assert code == EXIT_DATA


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_checkpoint_is_data_error(cli_data, trained_run, tmp_path, capsys, value):
    # a nan weight would rank every sequence by nan distances and dump rows
    # of nan; the load refuses it, before anything is written
    params = load_checkpoint(trained_run / "checkpoint.astp")
    params["conv1.kernel"].data[0, 0, 0, 0] = value
    checkpoint = tmp_path / "non_finite.astp"
    save_checkpoint(params, checkpoint)
    for command in ("eval", "extract"):
        out = tmp_path / command
        code = main([command, "--data-root", str(cli_data), "--out", str(out),
                     "--checkpoint", str(checkpoint), "--feature-dim", "16", "--trials", "1"])
        assert code == EXIT_DATA, command
        assert not out.exists(), command  # not even config.json
        err = capsys.readouterr().err
        assert "conv1.kernel" in err and "Traceback" not in err, command


def test_frame_entry_that_is_not_a_file_is_data_error(cli_data, trained_run, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(cli_data, data)
    (data / "p000" / "cam0" / "zz.ppm").mkdir()
    code = main(["eval", "--data-root", str(data), "--out", str(tmp_path / "out"),
                 "--checkpoint", str(trained_run / "checkpoint.astp"),
                 "--feature-dim", "16", "--trials", "1"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "zz.ppm" in err and err.count("error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize("kind", ["one-row", "zero-width"])
def test_frames_too_small_for_flow_are_data_error(tmp_path, capsys, kind):
    data = tmp_path / "data"
    if kind == "one-row":
        synth_dataset(data, n_ids=2, frames_per_seq=3, size=(1, 20))
    else:
        for pid in ("p0", "p1"):
            for cam in ("cam0", "cam1"):
                for t in range(2):
                    frame = data / pid / cam / f"{t:05d}.ppm"
                    frame.parent.mkdir(parents=True, exist_ok=True)
                    frame.write_bytes(b"P6\n0 4\n255\n")
    code = main(["train", "--data-root", str(data), "--out", str(tmp_path / "out"),
                 "--epochs", "1", "--feature-dim", "8", "--k", "2"])
    assert code == EXIT_DATA
    assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("hw", [(1, 20), (8, 12)])
def test_frames_too_small_to_crop_end_at_load(tmp_path, capsys, command, hw):
    # flow and the crop run only when a drawn view is read, so loading the
    # set must reject these frames itself: exit 2, one error line, no step
    data = tmp_path / "data"
    synth_dataset(data, n_ids=2, frames_per_seq=3, size=hw)
    checkpoint = tmp_path / "checkpoint.astp"
    save_checkpoint(init_params(0, 2, LossConfig(), feature_dim=8), checkpoint)
    capsys.readouterr()
    extra = {"train": ["--epochs", "1", "--k", "2"],
             "eval": ["--checkpoint", str(checkpoint), "--trials", "1"]}[command]
    code = main([command, "--data-root", str(data), "--out", str(tmp_path / "out"),
                 "--feature-dim", "8", *extra])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert "epoch" not in captured.out
    assert captured.err.count("error:") == 1 and captured.err.startswith("error:")
    assert "too small" in captured.err and "Traceback" not in captured.err


def test_eval_requires_checkpoint(cli_data, tmp_path):
    assert main(["eval", "--data-root", str(cli_data),
                 "--out", str(tmp_path / "x")]) == EXIT_DATA


@pytest.mark.parametrize("command", ["eval", "extract"])
@pytest.mark.parametrize("kind", ["missing", "directory", "repeated"])
def test_unreadable_checkpoint_is_data_error(cli_data, tmp_path, capsys, command, kind):
    checkpoint = tmp_path / "checkpoint.astp"
    if kind == "directory":
        checkpoint.mkdir()
    elif kind == "repeated":  # a second classifier.bias record after the first
        save_checkpoint(init_params(0, 2, LossConfig(), feature_dim=8), checkpoint)
        name = b"classifier.bias"
        record = len(name).to_bytes(4, "little") + name + (1).to_bytes(4, "little")
        record += (2).to_bytes(8, "little") + np.array([7.0, 8.0]).tobytes()
        checkpoint.write_bytes(checkpoint.read_bytes() + record)
    assert main([command, "--data-root", str(cli_data), "--out", str(tmp_path / "out"),
                 "--checkpoint", str(checkpoint)]) == EXIT_DATA
    assert_one_error_line(capsys)


@pytest.mark.parametrize("at,edit", [
    (16, b"\xff"), (32, struct.pack("<4Q", *[2**62] * 4)), (32, struct.pack("<4Q", *[2**32] * 4)),
    (32, struct.pack("<4Q", 0, 2**63, 5, 5)), (32, struct.pack("<4Q", 2**62, 2**62, 0, 5)),
], ids=["name-not-utf8", "extents-2^62", "extents-2^32", "extents-0-2^63", "extents-2^62-0"])
def test_extract_with_a_corrupt_checkpoint_header_is_data_error(cli_data, tmp_path, capsys,
                                                                at, edit):
    # byte edits of the first record, conv1.kernel: its name runs from byte
    # 16, its four extents from byte 32; four extents of 2^62 or of 2^32
    # multiply to 0 modulo 2^64, and a zero extent makes the count 0
    checkpoint = tmp_path / "checkpoint.astp"
    save_checkpoint(init_params(0, 2, LossConfig(), feature_dim=8), checkpoint)
    blob = bytearray(checkpoint.read_bytes())
    blob[at:at + len(edit)] = edit
    checkpoint.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["extract", "--data-root", str(cli_data), "--out", str(tmp_path / "out"),
                 "--checkpoint", str(checkpoint), "--feature-dim", "8"]) == EXIT_DATA
    assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["train", "eval", "extract"])
def test_out_that_is_a_file_is_data_error(cli_data, trained_run, tmp_path, capsys, command):
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    argv = [command, "--data-root", str(cli_data), "--out", str(out), "--feature-dim", "16"]
    if command != "train":
        argv += ["--checkpoint", str(trained_run / "checkpoint.astp")]
    assert main(argv) == EXIT_DATA
    assert_one_error_line(capsys)
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("name,kind", [
    ("checkpoint.astp", "directory"), ("train_log.csv", "directory"), ("splits", "file"),
])
def test_train_with_an_unwritable_artifact_is_data_error(cli_data, tmp_path, capsys, name,
                                                         kind):
    # train_log.csv is written after the last epoch, the checkpoint after it
    out = tmp_path / "out"
    out.mkdir()
    in_the_way = out / name
    in_the_way.mkdir() if kind == "directory" else in_the_way.write_text("in the way\n")
    assert main(["train", "--data-root", str(cli_data), "--out", str(out), "--epochs", "1",
                 "--feature-dim", "16", "--k", "4"]) == EXIT_DATA
    assert_one_error_line(capsys)
    assert in_the_way.is_dir() if kind == "directory" else in_the_way.is_file()
    assert not (out / "checkpoint.astp").is_file()
    assert not list(out.glob(".*.tmp"))  # no temporary file left behind


def test_extract_with_a_directory_at_the_feature_table_is_data_error(cli_data, trained_run,
                                                                       tmp_path, capsys):
    out = tmp_path / "out"
    (out / "features.csv").mkdir(parents=True)
    assert main(["extract", "--data-root", str(cli_data), "--out", str(out), "--feature-dim",
                 "16", "--checkpoint", str(trained_run / "checkpoint.astp")]) == EXIT_DATA
    assert_one_error_line(capsys)
    assert (out / "features.csv").is_dir() and not list(out.glob(".*.tmp"))


# ---- extract ----


def test_extract_writes_feature_table(cli_data, trained_run, tmp_path):
    out = tmp_path / "feat"
    code = main(["extract", "--data-root", str(cli_data), "--out", str(out),
                 "--checkpoint", str(trained_run / "checkpoint.astp"),
                 "--feature-dim", "16"])
    assert code == EXIT_OK
    lines = (out / "features.csv").read_text().splitlines()
    assert lines[0].split(",")[:2] == ["person_id", "camera_id"]
    assert len(lines[0].split(",")) == 2 + 16
    assert len(lines) == 1 + 16  # 8 identities x 2 cameras
    row = lines[1].split(",")
    assert row[0] == "p000" and row[1] == "cam0"
    feats = np.array([float(v) for v in row[2:]])
    assert np.isfinite(feats).all()


def test_extract_single_shot_rows_are_first_frame_features(cli_data, trained_run, tmp_path):
    # extract featurises a sequence as eval does: under --single-shot its
    # centre-cropped first frame
    checkpoint = trained_run / "checkpoint.astp"
    out = tmp_path / "feat_ss"
    code = main(["extract", "--data-root", str(cli_data), "--out", str(out),
                 "--checkpoint", str(checkpoint), "--feature-dim", "16", "--single-shot"])
    assert code == EXIT_OK
    index = by_identity(preprocess_dataset(load_dataset(cli_data)))
    params = load_checkpoint(checkpoint)
    rows = (out / "features.csv").read_text().splitlines()[1:]
    assert len(rows) == 16
    for row in rows:
        pid, cam, *values = row.split(",")
        first = evalkit.eval_sequence(index[pid][cam], None).channels()[:1]
        expected = extract_feature(ChannelStack(pid, cam, first), params, LossConfig())
        np.testing.assert_array_equal(np.array(values, dtype=np.float64), expected)


# ---- gradcheck ----


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck", "--samples", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gradcheck passed" in out
    assert "rnn.u_in" in out


def test_gradcheck_command_detects_corruption(capsys):
    assert main(["gradcheck", "--samples", "2", "--corrupt", "att.u_att"]) == EXIT_CHECK
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [
    ("--corrupt", "nope"), ("--samples", "-3"), ("--samples", "0"), ("--tol", "nan"),
    ("--tol", "inf"), ("--tol", "0"), ("--seed", "-1"),
])
def test_gradcheck_bad_argument_is_usage_error(capsys, flag, value):
    assert_usage_error(capsys, ["gradcheck", flag, value], flag)


# ---- console entry point ----


def source_env():
    """The environment with this checkout's src/ on PYTHONPATH, so a child
    interpreter imports the astpn under test with or without an install."""
    src = os.path.dirname(os.path.dirname(astpn.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_console_script_wiring():
    proc = subprocess.run([sys.executable, "-c",
                           "from astpn.cli import run; run()"],
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == EXIT_USAGE  # no arguments is a usage error
    assert "usage:" in proc.stderr  # not an import failure, which also exits 1


def test_python_dash_m_runs_the_cli(tmp_path):
    # a source checkout runs the CLI without an install: PYTHONPATH=src python -m astpn
    proc = subprocess.run([sys.executable, "-m", "astpn", "synth", str(tmp_path / "d"),
                           "--ids", "2", "--frames", "2"],
                          capture_output=True, text=True, env=source_env(), cwd=tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(list((tmp_path / "d").rglob("*.ppm"))) == 2 * 2 * 2
