import json

import numpy as np
import pytest

from cgnn.graph import load_stream, replay
from cgnn.synth import (SynthConfig, build_stream, gen_step_attributes,
                        gen_step_structure, generate)

from helpers import deltas_equal


def test_default_totals():
    cfg = SynthConfig()
    deltas = generate(cfg)
    assert len(deltas) == 24
    assert sum(len(d.new_nodes) for d in deltas) == 3072
    final = replay(deltas, feature_dim=64)
    assert final.n == 3072
    assert final.feature_dim == 64
    assert final.class_count() == 2
    labels = final.labels_array()
    assert (labels >= 0).all()
    # alternation keeps the classes balanced
    assert int((labels == 0).sum()) == 1536


def test_features_live_in_unit_interval():
    cfg = SynthConfig(steps=4, per_step=32, feature_dim=8)
    final = replay(generate(cfg), feature_dim=8)
    X = final.feature_matrix()
    assert X.min() >= 0.0 and X.max() <= 1.0


def test_er_phase_hits_expected_degree():
    # one 500-node class-1 cohort per seed; sample mean degree near 10
    means = []
    for seed in range(20):
        cfg = SynthConfig(steps=1, per_step=1000, feature_dim=4, seed=seed)
        final = replay(generate(cfg), feature_dim=4)
        labels = final.labels_array()
        ids = np.flatnonzero(labels == 1)
        means.append(np.mean([final.degree(int(v)) for v in ids]))
    assert abs(np.mean(means) - 10.0) / 10.0 < 0.10


def test_er_phase_keeps_classes_apart():
    cfg = SynthConfig(steps=2, per_step=200, feature_dim=4, seed=5)
    final = replay(generate(cfg), feature_dim=4)
    labels = final.labels_array()
    for v in range(final.n):
        for u in final.neighbors(v):
            assert labels[u] == labels[v]  # island phase never crosses


def test_community_phase_rate_ratio():
    # after the structure shift, same-class links happen about
    # p_in/p_out = 20 times more often than cross links
    intra_hits = inter_hits = 0
    intra_tries = inter_tries = 0
    for seed in range(20):
        cfg = SynthConfig(steps=1, per_step=100, feature_dim=4,
                          structure_shift_step=0, seed=seed)
        rng = np.random.default_rng(seed)
        existing = np.arange(1000, dtype=np.int64)
        existing_classes = existing % 2
        new_ids = np.arange(1000, 1100, dtype=np.int64)
        new_classes = new_ids % 2
        edges = gen_step_structure(cfg, 0, existing, existing_classes,
                                   new_ids, new_classes, rng)
        classes = np.concatenate([existing_classes, new_classes])
        for u, v in edges:
            if classes[u] == classes[v]:
                intra_hits += 1
            else:
                inter_hits += 1
        # each new node is offered every earlier node exactly once
        for j in range(100):
            offers = np.arange(1000 + j) % 2
            same = int((offers == (j % 2)).sum())
            intra_tries += same
            inter_tries += len(offers) - same
    ratio = (intra_hits / intra_tries) / (inter_hits / inter_tries)
    assert 20 / 1.5 < ratio < 20 * 1.5


def test_attribute_shift_moves_first_dimension_only():
    cfg = SynthConfig(steps=4, per_step=400, feature_dim=6,
                      attribute_shift_step=2, structure_shift_step=99,
                      seed=11)
    deltas = generate(cfg)
    early = np.concatenate([np.stack([f for _v, f, _l in d.new_nodes])
                            for d in deltas[:2]])
    late = np.concatenate([np.stack([f for _v, f, _l in d.new_nodes])
                           for d in deltas[2:]])
    # clip bound 5 maps mean -1 to 0.4 and mean +1 to 0.6
    assert early[:, 0].mean() == pytest.approx(0.4, abs=0.02)
    assert late[:, 0].mean() == pytest.approx(0.6, abs=0.02)
    for d in range(1, 6):
        assert early[:, d].mean() == pytest.approx(0.5, abs=0.02)
        assert late[:, d].mean() == pytest.approx(0.5, abs=0.02)
    sep = late[:, 0].mean() - early[:, 0].mean()
    assert sep == pytest.approx(0.2, abs=0.03)


def test_generation_is_deterministic():
    cfg = SynthConfig(steps=3, per_step=40, feature_dim=5, seed=9)
    a = generate(cfg)
    b = generate(cfg)
    assert len(a) == len(b)
    for da, db in zip(a, b):
        assert deltas_equal(da, db)
    c = generate(SynthConfig(steps=3, per_step=40, feature_dim=5, seed=10))
    assert not all(deltas_equal(x, y) for x, y in zip(a, c))


def test_stream_files_round_trip(tmp_path):
    cfg = SynthConfig(steps=3, per_step=30, feature_dim=5, seed=2,
                      structure_shift_step=2)
    out = str(tmp_path / "stream")
    paths = build_stream(cfg, out)
    loaded = load_stream(paths["edges"], paths["features"], paths["labels"],
                         paths["schedule"])
    original = generate(cfg)
    assert len(loaded) == len(original)
    for da, db in zip(original, loaded):
        assert deltas_equal(da, db)
    manifest = json.load(open(paths["manifest"]))
    assert manifest["nodes"] == 90
    assert manifest["config"]["seed"] == 2


def test_single_step_stream_is_valid():
    cfg = SynthConfig(steps=1, per_step=16, feature_dim=3)
    deltas = generate(cfg)
    final = replay(deltas, feature_dim=3)
    assert final.n == 16


def test_config_validation():
    for name in ("steps", "per_step", "feature_dim"):
        with pytest.raises(ValueError) as err:
            SynthConfig(**{name: 0})
        assert name in str(err.value)
    assert SynthConfig(steps=1, per_step=1, feature_dim=1).steps == 1


def test_attributes_quantized_to_file_precision():
    cfg = SynthConfig(steps=1, per_step=8, feature_dim=4)
    rng = np.random.default_rng(0)
    feats, _ = gen_step_attributes(cfg, 0, 8, rng)
    assert np.array_equal(feats, np.round(feats, 10))
