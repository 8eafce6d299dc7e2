import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgnn.harness import (ExperimentSpec, TIMING_COLUMNS, make_splits,
                          run_ablation, run_case_study, run_experiment,
                          run_scalability)
from cgnn.metrics import accuracy, confusion, macro_f1
from cgnn.synth import SynthConfig
from cgnn.train import TrainConfig

from conftest import random_stream


def tiny_spec(tmp_path=None, **kw):
    cfg = kw.pop("cfg", None) or TrainConfig(
        hidden_dim=8, fanout=None, lr=0.1, epochs=4, batch_size=16,
        memory_size=20, lam=10.0, seed=1)
    synth = kw.pop("synth", None) or SynthConfig(
        steps=4, per_step=24, feature_dim=6, structure_shift_step=2,
        attribute_shift_step=3, seed=1)
    base = dict(cfg=cfg, synth=synth, cohort_steps=(0, 2))
    if tmp_path is not None:
        base["out_dir"] = str(tmp_path)
    base.update(kw)
    return ExperimentSpec(**base)


def brute_force_f1(y_true, y_pred):
    labels = sorted(set(map(int, y_true)) | set(map(int, y_pred)))
    scores = []
    for lab in labels:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == lab and p == lab)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != lab and p == lab)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == lab and p != lab)
        if tp == 0:
            scores.append(0.0)
        else:
            prec = tp / (tp + fp)
            rec = tp / (tp + fn)
            scores.append(2 * prec * rec / (prec + rec))
    return sum(scores) / len(scores)


def test_accuracy_and_confusion_basics():
    y = np.array([0, 1, 1, 2])
    p = np.array([0, 1, 0, 2])
    assert accuracy(y, p) == pytest.approx(0.75)
    cm = confusion(y, p, [0, 1, 2])
    assert cm[1, 0] == 1 and cm[1, 1] == 1 and cm[0, 0] == 1 and cm[2, 2] == 1
    assert cm.sum() == 4
    with pytest.raises(ValueError):
        accuracy(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        accuracy(np.array([1]), np.array([1, 2]))


def test_macro_f1_against_brute_force_examples():
    cases = [
        ([0, 0, 1, 1], [0, 0, 1, 1]),
        ([0, 0, 1, 1], [1, 1, 0, 0]),
        ([0, 1, 2, 2], [0, 1, 2, 1]),
        ([0, 0, 0, 0], [0, 0, 0, 1]),
    ]
    for y, p in cases:
        got = macro_f1(np.array(y), np.array(p))
        assert got == pytest.approx(brute_force_f1(y, p), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=40))
def test_macro_f1_matches_brute_force(pairs):
    y = np.array([a for a, _b in pairs])
    p = np.array([b for _a, b in pairs])
    assert macro_f1(y, p) == pytest.approx(brute_force_f1(y, p), abs=1e-12)


def test_splits_partition_each_step(rng):
    deltas = random_stream(rng, 3, 11, 0.3, 4)
    train_sets, test_sets = make_splits(deltas, 0.7, seed=5)
    for t, delta in enumerate(deltas):
        ids = {nid for nid, _f, lab in delta.new_nodes if lab is not None}
        assert train_sets[t] | test_sets[t] == ids
        assert train_sets[t] & test_sets[t] == set()
        assert len(train_sets[t]) == int(0.7 * len(ids) + 0.5)
    again = make_splits(deltas, 0.7, seed=5)
    assert again == (train_sets, test_sets)
    other = make_splits(deltas, 0.7, seed=6)
    assert other != (train_sets, test_sets)


def test_run_experiment_outputs(tmp_path):
    spec = tiny_spec(tmp_path)
    rows, summary = run_experiment(spec, models=["continual", "pretrained"])
    csv_path = os.path.join(str(tmp_path), "metrics.csv")
    assert os.path.exists(csv_path)
    blob = json.load(open(os.path.join(str(tmp_path), "summary.json")))
    assert set(blob["models"]) == {"continual", "pretrained"}
    assert blob["kind"] == "experiment"
    models_seen = {r["model"] for r in rows}
    assert models_seen == {"continual", "pretrained"}
    for row in rows:
        assert 0.0 <= row["macro_f1"] <= 1.0
        assert 0.0 <= row["accuracy"] <= 1.0
    # all steps represented for the whole-graph cohort
    steps = sorted(r["step"] for r in rows if r["model"] == "continual"
                   and r["cohort"] == "all")
    assert steps == [0, 1, 2, 3]


def test_metrics_csv_deterministic_modulo_timing(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        run_experiment(tiny_spec(out))
    def strip(path):
        lines = open(os.path.join(str(path), "metrics.csv")).read().splitlines()
        header = lines[0].split(",")
        keep = [i for i, c in enumerate(header) if c not in TIMING_COLUMNS]
        return [",".join(np.array(l.split(","))[keep]) for l in lines]
    assert strip(out_a) == strip(out_b)


def test_separable_stream_reaches_full_accuracy(tmp_path):
    # classes sit far apart in feature space: the model should nail the
    # held-out nodes after a few epochs
    from cgnn.graph import SnapshotDelta

    rng = np.random.default_rng(0)
    nodes = []
    for v in range(40):
        lab = v % 2
        # classes point along different feature axes; a bias-free
        # homogeneous net needs direction, not magnitude, to differ
        base = np.array([0.9, 0.9, 0.1, 0.1] if lab == 0
                        else [0.1, 0.1, 0.9, 0.9])
        nodes.append((v, np.clip(base + rng.normal(0, 0.03, 4), 0, 1), lab))
    edges = tuple((v, v + 2) for v in range(38))
    deltas = [SnapshotDelta(time=0, new_nodes=tuple(nodes),
                            edge_adds=edges)]

    import cgnn.harness as hz
    cfg = TrainConfig(hidden_dim=8, fanout=None, lr=0.5, epochs=40,
                      batch_size=8, memory_size=10, lam=0.0, seed=0)
    train_sets, test_sets = hz.make_splits(deltas, 0.7, 0)
    rows = hz._run_one_model("continual", deltas, 4,
                             tiny_spec(cfg=cfg), train_sets, test_sets)
    whole = [r for r in rows if r["cohort"] == "all"]
    assert whole[0]["accuracy"] == 1.0


def test_case_study_writes_embeddings(tmp_path):
    spec = tiny_spec(tmp_path, cohort_steps=(0, 1))
    rows, summary = run_case_study(spec)
    assert summary["kind"] == "case_study"
    for t in range(4):
        path = os.path.join(str(tmp_path), "embeddings_step%d.csv" % t)
        assert os.path.exists(path)
        lines = open(path).read().splitlines()
        header = lines[0].split(",")
        assert header[0] == "node_id"
        assert len(header) == 1 + 8  # hidden width
    cohort_rows = [r for r in rows if r["cohort"] == "step0"]
    assert len(cohort_rows) == 4  # step-0 cohort tracked at every step


def test_case_study_creates_its_output_directory(tmp_path):
    out = tmp_path / "case" / "study"
    run_case_study(tiny_spec(out))
    assert (out / "embeddings_step0.csv").exists()
    assert (out / "metrics.csv").exists()


def test_ablation_lambda_axis(tmp_path):
    spec = tiny_spec(tmp_path)
    rows = run_ablation(spec, "lambda", values=[0.0, 10.0])
    assert [r["value"] for r in rows] == ["0.0", "10.0"]
    for row in rows:
        assert row["axis"] == "lambda"
        assert 0.0 <= row["macro_f1_avg"] <= 1.0
    blob = json.load(open(os.path.join(str(tmp_path), "summary.json")))
    assert blob["kind"] == "ablation" and blob["axis"] == "lambda"


def test_ablation_view_combo_reduces_correctly(tmp_path):
    spec = tiny_spec()
    rows = run_ablation(spec, "view_combo")
    values = [r["value"] for r in rows]
    assert values == ["none", "data", "model", "both"]


def test_unknown_axis_rejected():
    with pytest.raises(ValueError):
        run_ablation(tiny_spec(), "optimizer")
    # every swept value is checked before the sweep starts
    for axis, good, bad in (("view_combo", "both", "bogus"),
                            ("detector", "bfs", "psychic"),
                            ("lambda", 0.0, -1.0)):
        with pytest.raises(ValueError):
            run_ablation(tiny_spec(), axis, values=[good, bad])
    with pytest.raises(ValueError):
        run_scalability(tiny_spec(), "universe_size")


def test_scalability_rows(tmp_path):
    spec = tiny_spec(tmp_path)
    rows = run_scalability(spec, "network_size", sizes=(2, 4))
    assert len(rows) == 4  # two sizes x two models
    sizes = sorted({r["nodes"] for r in rows})
    assert sizes == [48, 96]
    for row in rows:
        assert row["train_seconds"] >= 0.0
    rows2 = run_scalability(spec, "stream_size", sizes=(24, 48),
                            models=("continual",))
    assert {r["cohort"] for r in rows2} == {24, 48}
    assert all(r["nodes"] == 96 for r in rows2)


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentSpec(cfg=TrainConfig(), synth=None, data_dir=None)
    with pytest.raises(ValueError):
        ExperimentSpec(cfg=TrainConfig(), synth=SynthConfig(),
                       data_dir="somewhere")
    with pytest.raises(ValueError):
        tiny_spec(split=1.5)
    with pytest.raises(ValueError):
        tiny_spec(model="oracle")


def test_data_dir_round_trip(tmp_path):
    from cgnn.synth import build_stream

    stream_dir = str(tmp_path / "stream")
    synth = SynthConfig(steps=3, per_step=16, feature_dim=5,
                        structure_shift_step=2, seed=4)
    build_stream(synth, stream_dir)
    cfg = TrainConfig(hidden_dim=8, fanout=None, epochs=2, seed=1)
    spec_disk = ExperimentSpec(cfg=cfg, data_dir=stream_dir)
    spec_mem = ExperimentSpec(cfg=cfg, synth=synth)
    rows_disk, _ = run_experiment(spec_disk)
    rows_mem, _ = run_experiment(spec_mem)
    for a, b in zip(rows_disk, rows_mem):
        for col in ("model", "step", "cohort", "n", "macro_f1", "accuracy"):
            assert a[col] == b[col]
