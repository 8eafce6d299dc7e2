import numpy as np
import pytest

from cgnn.graph import GraphState, SnapshotDelta, freeze_ego
from cgnn.memory import (MemoryEntry, MemoryError_, ReplayMemory, load_memory,
                         node_importance, replace_prob, replay_batch,
                         save_memory, update_memory)

from conftest import make_graph


def labeled_clique(labels, dim=2):
    """Complete graph over len(labels) nodes with the given labels."""
    n = len(labels)
    feats = np.linspace(0.1, 0.9, n * dim).reshape(n, dim)
    delta = SnapshotDelta(
        time=0,
        new_nodes=tuple((v, feats[v], labels[v]) for v in range(n)),
        edge_adds=tuple((u, v) for u in range(n) for v in range(u + 1, n)))
    return GraphState.empty(dim).apply_delta(delta)


def fill(mem, view, ids, seed=0):
    return update_memory(mem, ids, view, 1, np.random.default_rng(seed))


def test_importance_is_disagreeing_neighbor_fraction():
    g = labeled_clique([0, 0, 1, 1])
    # node 0 sees labels 0,1,1 among its three neighbors
    assert node_importance(g, 0) == pytest.approx(2.0 / 3.0)
    g_same = labeled_clique([1, 1, 1])
    assert node_importance(g_same, 0) == 0.0
    g_all_diff = labeled_clique([0, 1, 1])
    assert node_importance(g_all_diff, 0) == 1.0


def test_importance_ignores_unlabeled_neighbors():
    feats = np.full((3, 2), 0.5)
    delta = SnapshotDelta(time=0,
                          new_nodes=((0, feats[0], 0), (1, feats[1], None),
                                     (2, feats[2], 1)),
                          edge_adds=((0, 1), (0, 2)))
    g = GraphState.empty(2).apply_delta(delta)
    assert node_importance(g, 0) == 1.0  # only node 2 counts
    with pytest.raises(MemoryError_):
        node_importance(g, 1)  # center itself unlabeled


def test_importance_no_labeled_neighbors_is_zero():
    feats = np.full((2, 2), 0.5)
    delta = SnapshotDelta(time=0,
                          new_nodes=((0, feats[0], 0), (1, feats[1], None)),
                          edge_adds=((0, 1),))
    g = GraphState.empty(2).apply_delta(delta)
    assert node_importance(g, 0) == 0.0


def test_replace_prob_arithmetic():
    mem = ReplayMemory(capacity=10, strategy="stepwise", alpha=0.0)
    mem.seen[0] = 40
    mem.entries[0] = []
    # 10 slots for the only class; base 5/40, importance 0.6 boosts by 1.6
    assert replace_prob(mem, 0, 0.6) == pytest.approx(10 / 40)
    mem.alpha = 1.0
    assert replace_prob(mem, 0, 0.6) == pytest.approx(10 / 40 * 1.6)
    mem.seen[0] = 4
    assert replace_prob(mem, 0, 0.9) == 1.0  # clamped


def test_replace_prob_random_pools_classes():
    mem = ReplayMemory(capacity=6, strategy="random")
    mem.seen[0] = 10
    mem.seen[1] = 14
    assert replace_prob(mem, 0, 0.0) == pytest.approx(6 / 24)
    assert replace_prob(mem, 1, 1.0) == pytest.approx(6 / 24)


def test_target_slots_largest_remainder():
    mem = ReplayMemory(capacity=10, strategy="hierarchical")
    mem.seen = {0: 55, 1: 30, 2: 15}
    assert mem.target_slots() == {0: 6, 1: 3, 2: 1}
    mem.seen = {0: 98, 1: 1, 2: 1}
    slots = mem.target_slots()
    assert slots[1] >= 1 and slots[2] >= 1  # every seen class keeps a seat
    assert sum(slots.values()) == 10


def test_warm_up_admits_everything():
    g = labeled_clique([0, 1, 0, 1, 0, 1])
    mem = ReplayMemory(capacity=6, strategy="hierarchical")
    mem = fill(mem, g, range(6))
    assert mem.size == 6
    held = {lab: len(entries) for lab, entries in mem.entries.items()}
    assert held == {0: 3, 1: 3}


def test_capacity_zero_counts_without_storing():
    g = labeled_clique([0, 1, 0, 1])

    class NoDraw:
        def __getattr__(self, name):
            raise AssertionError("rng touched with zero capacity")

    mem = ReplayMemory(capacity=0, strategy="stepwise")
    mem = update_memory(mem, range(4), g, 1, NoDraw())
    assert mem.size == 0
    assert mem.seen == {0: 2, 1: 2}


def test_unlabeled_candidates_are_rejected():
    feats = np.full((3, 2), 0.5)
    delta = SnapshotDelta(time=0,
                          new_nodes=((0, feats[0], 0), (1, feats[1], None),
                                     (2, feats[2], 0)),
                          edge_adds=((0, 1), (1, 2)))
    g = GraphState.empty(2).apply_delta(delta)
    with pytest.raises(MemoryError_):
        fill(ReplayMemory(capacity=4, strategy="random"), g, range(3))
    # labeled subset passes cleanly
    mem = fill(ReplayMemory(capacity=4, strategy="random"), g, [0, 2])
    assert mem.size == 2
    assert mem.seen == {0: 2}


def labeled_ring(n, label=0, dim=2):
    feats = np.full((n, dim), 0.5)
    delta = SnapshotDelta(
        time=0,
        new_nodes=tuple((v, feats[v], label) for v in range(n)),
        edge_adds=tuple((v, (v + 1) % n) for v in range(n - 1))
        + ((0, n - 1),))
    return GraphState.empty(dim).apply_delta(delta)


def test_single_class_reservoir_matches_binomial():
    # feed 200 same-class nodes through a 10-slot memory many times; each
    # node's inclusion rate should follow the uniform reservoir binomial
    n, m, trials = 200, 10, 300
    g = labeled_ring(n)
    counts = np.zeros(n)
    for t in range(trials):
        mem = ReplayMemory(capacity=m, strategy="stepwise", alpha=0.0)
        mem = update_memory(mem, range(n), g, 1,
                            np.random.default_rng(1000 + t))
        for e in mem.entries[0]:
            counts[e.ego.center] += 1
    p = m / n
    sigma = np.sqrt(trials * p * (1 - p))
    within = np.abs(counts - trials * p) <= 3 * sigma
    assert within.mean() >= 0.99
    assert abs(counts.mean() - trials * p) <= 3 * sigma / np.sqrt(n)


def test_update_memory_uniformity_small_case(rng):
    # 3-slot memory over a 12-node single-class stream, real updater:
    # every node's long-run inclusion rate should approach 3/12
    labels = [0] * 12
    g = labeled_clique(labels)
    trials = 400
    counts = np.zeros(12)
    for t in range(trials):
        mem = ReplayMemory(capacity=3, strategy="stepwise", alpha=0.0)
        mem = update_memory(mem, range(12), g, 1,
                            np.random.default_rng(5000 + t))
        for entries in mem.entries.values():
            for e in entries:
                counts[e.ego.center] += 1
    p = 3 / 12
    sigma = np.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(counts - trials * p) <= 4 * sigma)


def test_hierarchical_balances_classes_tighter_than_random(rng):
    # two classes, 90/10 skew: hierarchical should hold class counts near
    # its targets with far less variance than the pooled reservoir
    labels = [0] * 45 + [1] * 5
    g = labeled_clique(labels)
    trials = 500
    rand_minor, hier_minor = [], []
    for t in range(trials):
        r1 = np.random.default_rng(t)
        r2 = np.random.default_rng(t)
        mem_r = update_memory(ReplayMemory(10, "random"), range(50), g, 1, r1)
        mem_h = update_memory(ReplayMemory(10, "hierarchical"), range(50),
                              g, 1, r2)
        rand_minor.append(len(mem_r.entries.get(1, [])))
        hier_minor.append(len(mem_h.entries.get(1, [])))
    assert np.var(hier_minor) <= np.var(rand_minor)
    assert np.mean(hier_minor) == pytest.approx(1.0, abs=0.2)


def test_update_is_deterministic_per_seed():
    labels = [i % 3 for i in range(30)]
    g = labeled_clique(labels)
    a = fill(ReplayMemory(8, "stepwise", alpha=1.0), g, range(30), seed=4)
    b = fill(ReplayMemory(8, "stepwise", alpha=1.0), g, range(30), seed=4)
    assert sorted(e.ego.center for v in a.entries.values() for e in v) == \
           sorted(e.ego.center for v in b.entries.values() for e in v)


def test_update_returns_copy():
    g = labeled_clique([0, 1])
    mem = ReplayMemory(capacity=2, strategy="random")
    out = fill(mem, g, range(2))
    assert mem.size == 0 and out.size == 2


def test_ego_snapshot_frozen_at_admission(rng):
    g, _ = make_graph(rng, 8, 0.5, 3)
    mem = fill(ReplayMemory(capacity=4, strategy="stepwise"), g, range(4))
    entry = replay_batch(mem)[0]
    ego = entry[0]
    row_before = ego.feature_row(ego.center).copy()
    # mutate the world after admission: new snapshot with changed attrs
    g2 = g.apply_delta(SnapshotDelta(
        time=g.time + 1, attr_changes=((ego.center, np.full(3, 0.123)),)))
    assert np.array_equal(ego.feature_row(ego.center), row_before)
    assert not np.array_equal(g2.feature_row(ego.center), row_before)


def test_replay_batch_shape_and_order():
    labels = [1, 0, 1, 0]
    g = labeled_clique(labels)
    mem = fill(ReplayMemory(capacity=4, strategy="hierarchical"),
               g, range(4))
    batch = replay_batch(mem)
    assert len(batch) == 4
    labs = [lab for _e, _c, lab in batch]
    assert labs == sorted(labs)  # class-major order
    for ego, center, lab in batch:
        assert ego.center == center
        assert g.label(center) == lab


def test_strategy_validation():
    with pytest.raises(MemoryError_):
        ReplayMemory(capacity=4, strategy="fifo")
    with pytest.raises(MemoryError_):
        ReplayMemory(capacity=-1, strategy="random")


def test_save_load_round_trip(tmp_path, rng):
    g, _ = make_graph(rng, 10, 0.4, 3)
    mem = fill(ReplayMemory(capacity=6, strategy="stepwise", alpha=0.5),
               g, range(10))
    path = str(tmp_path / "mem.npz")
    save_memory(mem, path)
    back = load_memory(path)
    assert back.capacity == mem.capacity
    assert back.strategy == mem.strategy
    assert back.alpha == mem.alpha
    assert back.seen == mem.seen
    assert back.size == mem.size
    for lab in mem.entries:
        for e1, e2 in zip(mem.entries[lab], back.entries[lab]):
            assert e1.label == e2.label and e1.step == e2.step
            assert e1.ego.center == e2.ego.center
            assert e1.ego.nodes == e2.ego.nodes
            for v in e1.ego.nodes:
                assert np.array_equal(e1.ego.feature_row(v),
                                      e2.ego.feature_row(v))
                assert sorted(e1.ego.neighbors(v)) == \
                       sorted(e2.ego.neighbors(v))


def test_dump_stores_each_row_once_and_keeps_rewrites_and_zero_signs(
        tmp_path):
    # a 4-clique; node 0's first feature is +0.0 at t=0
    feats = np.linspace(0.1, 0.9, 12).reshape(4, 3)
    feats[0, 0] = 0.0
    g0 = GraphState.empty(3).apply_delta(SnapshotDelta(
        time=0, new_nodes=tuple((v, feats[v], 0) for v in range(4)),
        edge_adds=tuple((u, v) for u in range(4) for v in range(u + 1, 4))))
    # t=1 rewrites node 0 to -0.0 there, equal in value but not in bits, and
    # gives node 1 a different row
    signed = feats[0].copy()
    signed[0] = -0.0
    g1 = g0.apply_delta(SnapshotDelta(
        time=1, attr_changes=((0, signed), (1, np.full(3, 0.25)))))
    mem = ReplayMemory(capacity=4, strategy="random")
    mem.seen = {0: 3}
    mem.entries = {0: [MemoryEntry(freeze_ego(g0, 0, 1), 0, 0),
                       MemoryEntry(freeze_ego(g0, 1, 1), 0, 0),
                       MemoryEntry(freeze_ego(g1, 2, 1), 0, 1)]}
    assert not np.signbit(mem.entries[0][0].ego.feature_row(0)[0])
    assert np.signbit(mem.entries[0][2].ego.feature_row(0)[0])
    path = str(tmp_path / "mem.npz")
    save_memory(mem, path)

    with np.load(path) as data:
        stored = [len(data["e%d_feat" % i]) for i in range(3)]
        members = [len(data["e%d_nodes" % i]) for i in range(3)]
    # entry 0 stores its four rows; entry 1 the same four nodes at the same
    # step, so none; entry 2 the rewritten rows of nodes 0 and 1
    assert members == [4, 4, 4]
    assert stored == [4, 0, 2]
    back = load_memory(path)
    for e1, e2 in zip(mem.entries[0], back.entries[0], strict=True):
        assert e2.ego.nodes == e1.ego.nodes
        assert e2.ego.features.tobytes() == e1.ego.features.tobytes()
    assert np.signbit(back.entries[0][2].ego.feature_row(0)[0])


def _saved_arrays(tmp_path, rng):
    """The arrays of a saved memory whose entries overlap."""
    g, _ = make_graph(rng, 10, 0.4, 3)
    mem = fill(ReplayMemory(capacity=6, strategy="stepwise"), g, range(10))
    path = str(tmp_path / "mem.npz")
    save_memory(mem, path)
    with np.load(path) as data:
        return dict(data)


def _load_rewritten(tmp_path, arrays):
    bad = str(tmp_path / "bad.npz")
    np.savez(bad, **arrays)
    with pytest.raises(MemoryError_) as err:
        load_memory(bad)
    return str(err.value)


def test_load_rejects_a_row_index_past_the_rows_stored_so_far(tmp_path, rng):
    arrays = _saved_arrays(tmp_path, rng)
    # entry 1 may point at rows of entries 0 and 1, not at a later entry's
    stored = len(arrays["e0_feat"]) + len(arrays["e1_feat"])
    assert stored < sum(len(arrays["e%d_feat" % i])
                        for i in range(int(arrays["entry_count"])))
    arrays["e1_rows"] = arrays["e1_rows"].copy()
    arrays["e1_rows"][0] = stored
    assert "bad.npz: entry 1 " in _load_rewritten(tmp_path, arrays)
    arrays["e1_rows"][0] = -1
    assert "bad.npz: entry 1 " in _load_rewritten(tmp_path, arrays)


def test_load_rejects_a_row_index_per_node_mismatch(tmp_path, rng):
    arrays = _saved_arrays(tmp_path, rng)
    arrays["e2_rows"] = arrays["e2_rows"][:-1]
    assert "bad.npz: entry 2 " in _load_rewritten(tmp_path, arrays)


def test_load_refuses_a_version_1_dump(tmp_path, rng):
    arrays = _saved_arrays(tmp_path, rng)
    arrays["format_version"] = np.array(1, dtype=np.int64)
    msg = _load_rewritten(tmp_path, arrays)
    assert "bad.npz" in msg and "version 1" in msg


def test_load_rejects_an_edge_outside_the_ego_net(tmp_path, rng):
    g, _ = make_graph(rng, 10, 0.4, 3)
    mem = fill(ReplayMemory(capacity=6, strategy="stepwise"), g, range(10))
    path = str(tmp_path / "mem.npz")
    save_memory(mem, path)
    with np.load(path) as data:
        arrays = dict(data)
    idx = next(i for i in range(int(arrays["entry_count"]))
               if len(arrays["e%d_edges" % i]))
    arrays["e%d_edges" % idx] = arrays["e%d_edges" % idx].copy()
    arrays["e%d_edges" % idx][0, 1] = 99
    bad = str(tmp_path / "bad.npz")
    np.savez(bad, **arrays)
    with pytest.raises(MemoryError_) as err:
        load_memory(bad)
    assert "bad.npz: entry %d" % idx in str(err.value)


def test_load_rejects_an_entry_whose_center_is_not_a_node(tmp_path, rng):
    arrays = _saved_arrays(tmp_path, rng)
    arrays["e0_meta"] = arrays["e0_meta"].copy()
    arrays["e0_meta"][2] = 10 ** 6
    assert "bad.npz: entry 0 " in _load_rewritten(tmp_path, arrays)


def test_load_rejects_nodes_out_of_increasing_order(tmp_path, rng):
    arrays = _saved_arrays(tmp_path, rng)
    idx = next(i for i in range(int(arrays["entry_count"]))
               if len(arrays["e%d_nodes" % i]) > 1)
    for rewrite in (lambda n: n[::-1], lambda n: np.r_[n[:1], n[:-1]]):
        bad = dict(arrays)  # reversed, then the first node repeated
        bad["e%d_nodes" % idx] = rewrite(arrays["e%d_nodes" % idx])
        assert "bad.npz: entry %d " % idx in _load_rewritten(tmp_path, bad)


def test_load_rejects_an_entry_with_an_unseen_label(tmp_path, rng):
    g, _ = make_graph(rng, 10, 0.4, 3)
    mem = fill(ReplayMemory(capacity=6, strategy="stepwise"), g, range(10))
    assert sorted(k for k in mem.entries if mem.entries[k]) == [0, 1]
    path = str(tmp_path / "mem.npz")
    save_memory(mem, path)
    with np.load(path) as data:
        arrays = dict(data)
    arrays["seen_classes"] = np.array([0], dtype=np.int64)
    arrays["seen_counts"] = arrays["seen_counts"][:1]
    idx = next(i for i in range(int(arrays["entry_count"]))
               if arrays["e%d_meta" % i][0] == 1)
    bad = str(tmp_path / "bad.npz")
    np.savez(bad, **arrays)
    with pytest.raises(MemoryError_) as err:
        load_memory(bad)
    assert "bad.npz: entry %d" % idx in str(err.value)
