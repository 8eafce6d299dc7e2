import argparse
import json
import os

import pytest

import cgnn.cli as cli
from cgnn.cli import build_objects, main, parse_config_file


TINY = ["--set", "synth_steps=2", "--set", "synth_per_step=12",
        "--set", "synth_feature_dim=4", "--set", "synth_structure_shift_step=1",
        "--set", "hidden_dim=8", "--set", "epochs=2", "--set", "fanout=5",
        "--set", "memory_size=10", "--set", "seed=1"]


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# experiment knobs\n"
        "epochs = 5\n"
        "lr=0.2   # step size\n"
        "\n"
        "memory_strategy = hierarchical\n")
    conf = parse_config_file(str(path))
    assert conf == {"epochs": "5", "lr": "0.2",
                    "memory_strategy": "hierarchical"}
    bad = tmp_path / "bad.conf"
    bad.write_text("epochs 5\n")
    with pytest.raises(ValueError) as err:
        parse_config_file(str(bad))
    assert ":1:" in str(err.value)


def test_build_objects_splits_keys():
    spec = build_objects({"epochs": "3", "lambda": "7.5",
                          "synth_steps": "2", "synth_per_step": "10",
                          "model": "online", "split": "0.6",
                          "cohorts": "0,1"})
    assert spec.cfg.epochs == 3
    assert spec.cfg.lam == 7.5
    assert spec.synth.steps == 2
    assert spec.model == "online"
    assert spec.split == 0.6
    assert spec.cohort_steps == (0, 1)


def test_build_objects_rejects_unknown_keys():
    with pytest.raises(ValueError):
        build_objects({"epoch": "3"})
    with pytest.raises(ValueError):
        build_objects({"synth_степс": "3"})


def test_synth_seed_follows_train_seed():
    spec = build_objects({"seed": "42"})
    assert spec.synth.seed == 42
    spec2 = build_objects({"seed": "42", "synth_seed": "7"})
    assert spec2.synth.seed == 7


def test_synthgen_writes_stream(tmp_path, capsys):
    out = str(tmp_path / "stream")
    rc = main(["synthgen", "--out", out, "--seed", "3", "--steps", "2",
               "--per-step", "8", "--dim", "4"])
    assert rc == 0
    for name in ("edges.txt", "features.txt", "labels.txt", "schedule.txt",
                 "manifest.json"):
        assert os.path.exists(os.path.join(out, name)), name
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["nodes"] == 16
    assert manifest["config"]["seed"] == 3


def test_synthgen_has_no_classes_flag(tmp_path, capsys):
    # the generator takes one expected degree per class, which synthgen
    # cannot set, so the class count stays at its default
    with pytest.raises(SystemExit) as err:
        main(["synthgen", "--out", str(tmp_path / "s"), "--classes", "3"])
    assert err.value.code == 2
    assert "unrecognized arguments: --classes" in capsys.readouterr().err


def test_run_command_on_tiny_stream(tmp_path, capsys):
    out = str(tmp_path / "results")
    rc = main(["run", "--out", out] + TINY)
    assert rc == 0
    captured = capsys.readouterr()
    blob = json.loads(captured.out)
    assert "continual" in blob
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_run_command_with_config_file_and_override(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("synth_steps=2\nsynth_per_step=12\nsynth_feature_dim=4\n"
                    "hidden_dim=8\nepochs=2\nfanout=5\nmodel=pretrained\n")
    rc = main(["run", "--config", str(conf), "--set", "model=online"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert list(blob) == ["online"]  # the --set override wins


def _args(**given):
    """Parsed common arguments: the given ones set, every other flag unset."""
    flags = ("config", "data", "out", "model", "seed", "split", "epochs",
             "lr", "fanout", "detector", "threshold_ratio", "threshold_abs",
             "memory_size", "memory_strategy", "alpha", "lam", "regularizer",
             "accumulate_test", "checkpoints", "cohorts")
    return argparse.Namespace(**{**dict.fromkeys(flags), "set": [], **given})


def test_threshold_flags_set_mode_and_value():
    spec = cli._gather(_args(threshold_abs=0.25))
    assert spec.cfg.threshold_mode == "abs"
    assert spec.cfg.threshold_value == 0.25
    with pytest.raises(ValueError) as err:
        cli._gather(_args(threshold_abs=float("nan")))
    assert "absolute threshold" in str(err.value)


def test_flag_beats_set_beats_config_file(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("data_dir=A\n")
    assert cli._gather(_args(config=str(conf))).data_dir == "A"
    assert cli._gather(_args(config=str(conf), set=["data=B"])).data_dir == "B"
    spec = cli._gather(_args(config=str(conf), set=["data=B"], data="C"))
    assert spec.data_dir == "C"


def test_non_integer_cohorts_are_rejected():
    with pytest.raises(ValueError) as err:
        build_objects({"cohorts": "0.5,8"})
    assert "cohort_steps" in str(err.value)


def test_conflicting_threshold_flags_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--threshold-ratio", "0.5", "--threshold-abs", "0.1"])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_run_on_generated_files(tmp_path, capsys):
    stream = str(tmp_path / "stream")
    main(["synthgen", "--out", stream, "--seed", "2", "--steps", "2",
          "--per-step", "10", "--dim", "4"])
    capsys.readouterr()
    rc = main(["run", "--data", stream, "--set", "hidden_dim=8",
               "--set", "epochs=2", "--set", "fanout=5"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert "continual" in blob


def test_ablate_command(tmp_path, capsys):
    rc = main(["ablate", "--axis", "reg_kind"] + TINY)
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["value"] for r in rows] == ["none", "l2", "ewc"]


def test_scale_command(capsys):
    rc = main(["scale", "--axis", "stream_size"] + TINY +
              ["--set", "synth_attribute_shift_step=1"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(r["axis"] == "stream_size" for r in rows)


def test_bad_set_syntax():
    with pytest.raises(ValueError):
        main(["run", "--set", "epochs"])
