import os

import numpy as np
import pytest

import cgnn.train as train
from cgnn.ewc import ewc_penalty, uniform_importance
from cgnn.graph import EgoNet, GraphState, SnapshotDelta, freeze_ego
from cgnn.harness import make_splits
from cgnn.memory import MemoryEntry, ReplayMemory, load_memory
from cgnn.model import GnnParams, load_params, loss_and_grad
from cgnn.synth import generate
from cgnn.train import MODELS, TrainConfig, detect_influenced, run_stream

from conftest import random_stream
from helpers import continual_step
from test_digest import SYNTH


def small_cfg(**kw):
    base = dict(hidden_dim=8, fanout=None, lr=0.05, epochs=3, batch_size=16,
                memory_size=12, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def params_equal(a, b):
    return (a.layer_count == b.layer_count
            and all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(detector="psychic")
    with pytest.raises(ValueError):
        TrainConfig(regularizer="l3")
    with pytest.raises(ValueError):
        TrainConfig(online_scope="everything")
    with pytest.raises(ValueError):
        TrainConfig(threshold_mode="ratio", threshold_value=2.0)
    with pytest.raises(ValueError):
        TrainConfig(threshold_mode="abs", threshold_value=float("nan"))
    for bad in ({"memory_strategy": "bogus"}, {"lam": -5.0},
                {"batch_size": 0}, {"fanout": 0}, {"alpha": -0.5},
                {"epochs": -1}, {"lr": 0.0}, {"lr": -0.1},
                {"memory_size": -1}, {"layers": 0}, {"hidden_dim": 0}):
        with pytest.raises(ValueError) as err:
            TrainConfig(**bad)
        assert next(iter(bad)) in str(err.value)
    # the edges of the legal ranges
    TrainConfig(lam=0.0, batch_size=1, fanout=None, alpha=0.0, epochs=0,
                memory_size=0, layers=1)


def test_empty_delta_with_empty_memory_leaves_params_untouched(rng):
    deltas = random_stream(rng, 1, 10, 0.3, 4)
    cfg = small_cfg(memory_size=0)
    params, mem, _ = run_stream("continual", deltas, cfg, 4)
    before = params.copy()
    g = GraphState.empty(4).apply_delta(deltas[0])
    empty = SnapshotDelta(time=1)
    params2, mem2, g2, report = continual_step(
        params, mem, g, empty, cfg, np.random.default_rng(0))
    assert params_equal(params2, before)
    assert report.trained == 0 and report.influenced == 0
    assert report.per_epoch_loss == []


def test_continual_reduces_to_online_bitwise(rng):
    deltas = random_stream(rng, 4, 12, 0.3, 4)
    cfg_c = small_cfg(lam=0.0, memory_size=0)
    cfg_o = small_cfg(lam=0.0, memory_size=0, online_scope="detector")
    p_c, _, rep_c = run_stream("continual", deltas, cfg_c, 4)
    p_o, _, rep_o = run_stream("online", deltas, cfg_o, 4)
    assert params_equal(p_c, p_o)
    for rc, ro in zip(rep_c, rep_o):
        assert rc.trained == ro.trained
        assert rc.influenced == ro.influenced


def test_lambda_zero_matches_no_regularizer_bitwise(rng):
    deltas = random_stream(rng, 4, 12, 0.3, 4)
    p_a, _, _ = run_stream("continual", deltas, small_cfg(lam=0.0), 4)
    p_b, _, _ = run_stream("continual", deltas,
                           small_cfg(regularizer="none", lam=0.0), 4)
    assert params_equal(p_a, p_b)


def test_same_seed_same_run(rng):
    deltas = random_stream(rng, 3, 12, 0.3, 4)
    cfg = small_cfg()
    p1, m1, r1 = run_stream("continual", deltas, cfg, 4)
    p2, m2, r2 = run_stream("continual", deltas, cfg, 4)
    assert params_equal(p1, p2)
    assert [r.per_epoch_loss for r in r1] == [r.per_epoch_loss for r in r2]
    assert m1.seen == m2.seen


def test_loss_decreases_within_a_step(rng):
    # well separated features so a few epochs visibly help
    feats0 = np.full((8, 3), 0.1) + rng.random((8, 3)) * 0.05
    feats1 = np.full((8, 3), 0.9) - rng.random((8, 3)) * 0.05
    nodes = tuple((i, feats0[i], 0) for i in range(8)) + \
            tuple((8 + i, feats1[i], 1) for i in range(8))
    edges = tuple((i, i + 1) for i in range(7)) + \
            tuple((8 + i, 9 + i) for i in range(7))
    deltas = [SnapshotDelta(time=0, new_nodes=nodes, edge_adds=edges)]
    cfg = small_cfg(epochs=25, lr=0.3)
    _, _, reports = run_stream("continual", deltas, cfg, 3)
    losses = reports[0].per_epoch_loss
    assert losses[-1] < losses[0]


def test_full_batch_reports_the_loss_it_stepped_on(rng):
    deltas = random_stream(rng, 1, 12, 0.3, 4)
    g = GraphState.empty(4).apply_delta(deltas[0])
    fresh = [(g, v, g.label(v)) for v in range(1, g.n)]
    replayed = [(freeze_ego(g, 0, 2), 0, g.label(0))]
    cfg = small_cfg(batch_size=g.n, lam=50.0)
    start = train._init_params(cfg, 4, g.class_count(), 0)
    before = start.copy()
    # anchored away from the start, so the penalty is not zero there
    fisher = uniform_importance(train._init_params(cfg, 4, g.class_count(), 1))
    _params, losses, parts, _sec = train._train_epochs(
        start, fresh, replayed, fisher, cfg, np.random.default_rng(0))
    assert params_equal(start, before)
    per_node, _grads = loss_and_grad(start, replayed + fresh)
    pen = ewc_penalty(start, fisher, cfg.lam)[0]
    assert pen > 0
    assert parts[0] == (float(per_node[1:].sum()), float(per_node[0]), pen)
    assert losses[0] == sum(parts[0])
    assert len(losses) == len(parts) == cfg.epochs


@pytest.mark.parametrize("batch_size", [16, 1 << 30],
                         ids=["minibatch", "fullbatch"])
@pytest.mark.parametrize("model", MODELS)
def test_loss_total_equals_sum_of_parts(rng, model, batch_size):
    deltas = random_stream(rng, 3, 12, 0.35, 4)
    cfg = small_cfg(lam=50.0, batch_size=batch_size)
    _, _, reports = run_stream(model, deltas, cfg, 4)
    saw_penalty = False
    for rep in reports:
        epochs = cfg.epochs if rep.trained + rep.replayed else 0
        assert len(rep.loss_parts) == len(rep.per_epoch_loss) == epochs
        for total, (l_new, l_data, l_model) in zip(rep.per_epoch_loss,
                                                   rep.loss_parts):
            assert total == l_new + l_data + l_model
            assert l_new >= 0 and l_data >= 0 and l_model >= 0
            if model != "continual":
                assert l_data == l_model == 0.0
            saw_penalty = saw_penalty or l_model > 0
    # replay memory plus drift makes the anchor bind
    assert saw_penalty == (model == "continual")


def test_replay_step_plans_each_batch_once(rng, monkeypatch):
    calls = {"prepare_batch": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(train, "prepare_batch",
                        counted("prepare_batch", train.prepare_batch))
    deltas = random_stream(rng, 3, 12, 0.35, 4)
    cfg = small_cfg(lam=50.0)
    _, _, reports = run_stream("continual", deltas, cfg, 4)
    assert reports[-1].replayed > 0
    batches = sum(-(-(r.trained + r.replayed) // cfg.batch_size)
                  for r in reports)
    assert batches > len(reports)  # minibatches at some step
    assert calls == {"prepare_batch": batches}


def test_one_step_stream_all_models_agree(rng):
    deltas = random_stream(rng, 1, 14, 0.3, 4)
    cfg = small_cfg()
    finals = {}
    for model in MODELS:
        params, _, reports = run_stream(model, deltas, cfg, 4)
        finals[model] = params
        assert reports[0].trained == 14
    base = finals["continual"]
    for model in MODELS:
        assert params_equal(finals[model], base), model


def test_pretrained_never_trains_after_first_step(rng):
    deltas = random_stream(rng, 3, 10, 0.3, 4)
    _, _, reports = run_stream("pretrained", deltas, small_cfg(), 4)
    assert reports[0].trained == 10
    for rep in reports[1:]:
        assert rep.trained == 0
        assert rep.per_epoch_loss == []
        assert rep.train_seconds == 0.0


def test_retrained_sees_all_history(rng):
    deltas = random_stream(rng, 3, 10, 0.3, 4)
    _, _, reports = run_stream("retrained", deltas, small_cfg(), 4)
    assert [r.trained for r in reports] == [10, 20, 30]


def test_train_sets_limit_label_use(rng):
    deltas = random_stream(rng, 2, 10, 0.3, 4)
    train_sets = [set(range(0, 10, 2)), set(range(10, 20, 2))]
    _, _, reports = run_stream("retrained", deltas, small_cfg(), 4,
                               train_sets=train_sets)
    assert [r.trained for r in reports] == [5, 10]
    _, _, rep_on = run_stream("online", deltas, small_cfg(), 4,
                              train_sets=train_sets)
    assert [r.trained for r in rep_on] == [5, 5]


def test_new_class_appearing_mid_stream(rng):
    deltas = random_stream(rng, 2, 8, 0.3, 4, classes=2)
    # relabel step 1's nodes to a brand-new class
    d1 = deltas[1]
    deltas[1] = SnapshotDelta(
        time=1,
        new_nodes=tuple((nid, f, 2) for nid, f, _l in d1.new_nodes),
        edge_adds=d1.edge_adds)
    for model in ("continual", "online"):
        params, _, _ = run_stream(model, deltas, small_cfg(), 4)
        assert params.out_dim == 3, model


def test_checkpoint_continuation_is_exact(tmp_path, rng):
    deltas = random_stream(rng, 4, 10, 0.3, 4)
    cfg = small_cfg()
    ckdir = str(tmp_path / "ck")
    p_full, m_full, rep_full = run_stream("continual", deltas, cfg, 4,
                                          checkpoint_dir=ckdir)
    # resume from after step 1
    params1 = load_params(rep_full[1].checkpoint_path)
    mem1 = load_memory(str(tmp_path / "ck" / "step1.mem"))
    p_cont, m_cont, rep_cont = run_stream(
        "continual", deltas, cfg, 4, start_step=2,
        init_params=params1, init_mem=mem1)
    assert params_equal(p_cont, p_full)
    assert m_cont.seen == m_full.seen
    for ra, rb in zip(rep_cont, rep_full[2:]):
        assert ra.step == rb.step
        assert ra.per_epoch_loss == rb.per_epoch_loss
        assert ra.trained == rb.trained


def test_resume_after_an_attribute_shift_is_exact(tmp_path):
    # the digests' stream, whose new nodes' attributes shift at step 6; its
    # ego-nets overlap, so the step-6 memory dump shares rows between entries
    deltas = generate(SYNTH)
    cfg = TrainConfig()
    train_sets, _ = make_splits(deltas, 0.7, cfg.seed)
    ckdir = str(tmp_path / "ck")
    p_full, _, rep_full = run_stream("continual", deltas, cfg,
                                     SYNTH.feature_dim, train_sets=train_sets,
                                     checkpoint_dir=ckdir)
    mem_path = os.path.join(ckdir, "step6.mem")
    with np.load(mem_path) as data:
        count = int(data["entry_count"])
        assert sum(len(data["e%d_feat" % i]) for i in range(count)) < \
            sum(len(data["e%d_nodes" % i]) for i in range(count))
    p_cont, _, rep_cont = run_stream(
        "continual", deltas, cfg, SYNTH.feature_dim, train_sets=train_sets,
        start_step=7, init_params=load_params(rep_full[6].checkpoint_path),
        init_mem=load_memory(mem_path))
    assert [w.tobytes() for w in p_cont.weights] == \
        [w.tobytes() for w in p_full.weights]
    (ra,) = rep_cont
    rb = rep_full[7]
    assert ra.step == rb.step == 7
    assert ra.per_epoch_loss == rb.per_epoch_loss
    assert ra.loss_parts == rb.loss_parts
    assert ra.trained == rb.trained


def test_failed_checkpoint_leaves_earlier_files_intact(tmp_path, rng,
                                                      monkeypatch):
    deltas = random_stream(rng, 1, 10, 0.3, 4)
    params, mem, _ = run_stream("continual", deltas, small_cfg(), 4)
    path = train._checkpoint(params, mem, str(tmp_path), 0)

    def contents():
        return {f: (tmp_path / f).read_bytes() for f in os.listdir(tmp_path)}

    def broken_save(obj, fh):
        fh.write(b"partial")
        raise OSError("disk full")

    before = contents()
    assert sorted(before) == ["step0.ckpt", "step0.mem"]
    monkeypatch.setattr(train, "save_memory", broken_save)
    for step in (0, 1):  # over an earlier checkpoint, then a new step
        with pytest.raises(OSError):
            train._checkpoint(params, mem, str(tmp_path), step)
    after = contents()
    # no partial or temporary file; the earlier memory dump is intact
    assert sorted(after) == ["step0.ckpt", "step0.mem", "step1.ckpt"]
    assert after["step0.mem"] == before["step0.mem"]
    monkeypatch.setattr(train, "save_params", broken_save)
    with pytest.raises(OSError):
        train._checkpoint(params, mem, str(tmp_path), 2)
    assert contents() == after
    assert params_equal(load_params(path), params)
    assert load_memory(str(tmp_path / "step0.mem")).seen == mem.seen


def test_failed_save_creates_no_file(tmp_path):
    path = str(tmp_path / "step0.ckpt")

    def broken_save(obj, fh):
        assert os.listdir(tmp_path) == []  # nothing on disk while it runs
        fh.write(b"partial")
        raise OSError("disk full")

    with pytest.raises(OSError):
        train._atomic_save(broken_save, None, path)
    assert os.listdir(tmp_path) == []


def test_continuation_requires_params():
    deltas = [SnapshotDelta(time=0), SnapshotDelta(time=1)]
    with pytest.raises(ValueError):
        run_stream("continual", deltas, small_cfg(), 4, start_step=1)
    params, _, _ = run_stream("continual", deltas[:1], small_cfg(), 4)
    # a replay model continued without its memory would replay nothing
    with pytest.raises(ValueError, match="memory"):
        run_stream("continual", deltas, small_cfg(), 4, start_step=1,
                   init_params=params)
    run_stream("online", deltas, small_cfg(), 4, start_step=1,
               init_params=params)


def test_continuation_refuses_params_of_another_input_width():
    deltas = [SnapshotDelta(time=0), SnapshotDelta(time=1)]
    wide = GnnParams.init(5, 8, 2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="feature_dim"):
        run_stream("online", deltas, small_cfg(), 4, start_step=1,
                   init_params=wide)


@pytest.mark.parametrize("rebuild", [
    # feature rows one column short of the run's feature_dim
    lambda g, e: EgoNet(e.ego.center, e.ego.depth, np.array(e.ego.nodes),
                        e.ego.edges, e.ego.features[:, :3].copy()),
    # frozen at depth 1 for a 2-layer model
    lambda g, e: freeze_ego(g, e.ego.center, 1),
], ids=["feature_width", "depth"])
def test_continuation_refuses_a_memory_entry_that_does_not_fit(rng, rebuild):
    deltas = random_stream(rng, 2, 10, 0.3, 4)
    params, mem, _ = run_stream("continual", deltas[:1], small_cfg(), 4)
    g0 = GraphState.empty(4).apply_delta(deltas[0])
    label = min(k for k in mem.entries if mem.entries[k])
    entry = mem.entries[label][0]
    mem.entries[label][0] = MemoryEntry(rebuild(g0, entry), label, entry.step)
    with pytest.raises(ValueError, match="center %d and label %d"
                       % (entry.ego.center, label)):
        run_stream("continual", deltas, small_cfg(), 4, start_step=1,
                   init_params=params, init_mem=mem)


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        run_stream("transformer", [], small_cfg(), 4)


def test_detect_influenced_includes_new_nodes(rng):
    deltas = random_stream(rng, 2, 10, 0.4, 4)
    cfg = small_cfg(threshold_mode="abs", threshold_value=1e18)
    params, _, _ = run_stream("continual", deltas[:1], cfg, 4)
    g0 = GraphState.empty(4).apply_delta(deltas[0])
    g1 = g0.apply_delta(deltas[1])
    influenced, _sec = detect_influenced(params, g0, g1, deltas[1], cfg)
    # threshold too high for any score, yet arrivals are always in
    assert influenced == {nid for nid, _f, _l in deltas[1].new_nodes}


def test_detectors_agree_on_trained_counts(rng):
    deltas = random_stream(rng, 3, 10, 0.35, 4)
    counts = {}
    for det in ("naive", "bfs", "approx"):
        cfg = small_cfg(detector=det, threshold_mode="ratio",
                        threshold_value=1.0)
        _, _, reports = run_stream("continual", deltas, cfg, 4)
        counts[det] = [r.influenced for r in reports]
    # ratio 1.0 selects the whole candidate pool whatever the scores are
    assert counts["naive"] == counts["bfs"] == counts["approx"]


def test_memory_fills_over_stream(rng):
    deltas = random_stream(rng, 4, 10, 0.3, 4)
    cfg = small_cfg(memory_size=15)
    _, mem, reports = run_stream("continual", deltas, cfg, 4)
    assert mem.size == 15
    # every trained candidate was offered to the memory, nothing else
    assert sum(mem.seen.values()) == sum(r.trained for r in reports)
    assert sum(mem.seen.values()) >= 40  # at least each step's arrivals
