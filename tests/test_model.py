import os

import numpy as np
import pytest

from cgnn.graph import GraphState, SnapshotDelta, freeze_ego
from cgnn.model import (GnnParams, ModelError, forward_batch, load_params,
                        loss_and_grad, predict_batch, prepare_batch,
                        save_params, sgd_step, softmax)

from conftest import make_graph
from helpers import forward, grad_check, loss_only, plan_of, predict


def line_graph(n, dim, rng):
    feats = rng.random((n, dim))
    delta = SnapshotDelta(time=0,
                          new_nodes=tuple((v, feats[v], v % 2)
                                          for v in range(n)),
                          edge_adds=tuple((v, v + 1) for v in range(n - 1)))
    return GraphState.empty(dim).apply_delta(delta)


def test_zero_weights_give_zero_representation(rng):
    g = line_graph(5, 3, rng)
    p = GnnParams([np.zeros((4, 4)), np.zeros((5, 2))])
    h, _ = forward(p, g, 2)
    assert np.array_equal(h, np.zeros(2))


def test_isolated_node_identity_weights(rng):
    feats = rng.random((1, 3))
    g = GraphState.empty(3).apply_delta(
        SnapshotDelta(time=0, new_nodes=((0, feats[0], 0),)))
    p = GnnParams([np.vstack([np.eye(3), np.zeros(3)])],
                  activation="linear")
    h, _ = forward(p, g, 0)
    assert np.allclose(h, feats[0], atol=0, rtol=0)
    # bias row shifts the output one for one
    p2 = GnnParams([np.vstack([np.eye(3), np.full(3, 0.25)])],
                   activation="linear")
    h2, _ = forward(p2, g, 0)
    assert np.allclose(h2, feats[0] + 0.25, atol=0, rtol=0)


def perturb_biases(p, rng):
    """Give every bias row a random value so oracles exercise it."""
    for w in p.weights:
        w[-1] = rng.normal(size=w.shape[1])
    return p


def test_full_neighborhood_matches_dense_oracle(rng):
    for trial in range(5):
        g, _ = make_graph(rng, 15, 0.25, 4)
        p = perturb_biases(GnnParams.init(4, 6, 3, layers=2, rng=rng), rng)
        n = g.n
        P = np.zeros((n, n))
        for v in range(n):
            group = sorted(set(g.neighbors(v)) | {v})
            P[v, group] = 1.0 / len(group)
        H = g.feature_matrix()
        H = np.maximum(P @ H @ p.weights[0][:-1] + p.weights[0][-1], 0.0)
        H = P @ H @ p.weights[1][:-1] + p.weights[1][-1]
        got = forward_batch(p, [(g, v) for v in range(n)])
        assert np.allclose(got, H, rtol=1e-12, atol=1e-12)


def test_three_layer_forward_matches_dense_oracle(rng):
    g, _ = make_graph(rng, 12, 0.3, 3)
    p = perturb_biases(GnnParams.init(3, 5, 2, layers=3, rng=rng), rng)
    n = g.n
    P = np.zeros((n, n))
    for v in range(n):
        group = sorted(set(g.neighbors(v)) | {v})
        P[v, group] = 1.0 / len(group)
    H = g.feature_matrix()
    H = np.maximum(P @ H @ p.weights[0][:-1] + p.weights[0][-1], 0.0)
    H = np.maximum(P @ H @ p.weights[1][:-1] + p.weights[1][-1], 0.0)
    H = P @ H @ p.weights[2][:-1] + p.weights[2][-1]
    got = forward_batch(p, [(g, v) for v in range(n)])
    assert np.allclose(got, H, rtol=1e-12, atol=1e-12)


def test_softmax_against_extended_precision_oracle():
    cases = [
        np.array([0.0, 0.0, 0.0]),
        np.array([1.0, 2.0, 3.0]),
        np.array([1000.0, 999.0, -1000.0]),
        np.array([-1000.0, -1000.5]),
    ]
    for z in cases:
        hi = np.exp(z.astype(np.longdouble))
        want = (hi / hi.sum()).astype(np.float64)
        got = softmax(z)
        assert np.allclose(got, want, rtol=1e-14, atol=1e-300)
        assert abs(got.sum() - 1.0) < 1e-12


def test_uniform_logits_loss_is_log_class_count(rng):
    g = line_graph(4, 3, rng)
    p = GnnParams([np.zeros((4, 5))])
    loss = loss_only(p, [(g, 0, 2), (g, 1, 4)])
    assert abs(loss - np.log(5.0)) < 1e-15


def test_duplicated_entry_keeps_mean_loss(rng):
    g = line_graph(6, 3, rng)
    p = GnnParams.init(3, 4, 2, rng=rng)
    single = loss_only(p, [(g, 2, 1)])
    doubled = loss_only(p, [(g, 2, 1), (g, 2, 1)])
    assert abs(single - doubled) < 1e-15


def test_batch_order_does_not_change_loss(rng):
    g = line_graph(6, 3, rng)
    p = GnnParams.init(3, 4, 2, rng=rng)
    batch = [(g, v, v % 2) for v in range(6)]
    a = loss_only(p, batch)
    b = loss_only(p, list(reversed(batch)))
    assert abs(a - b) < 1e-12


def test_gradients_match_finite_differences_full(rng):
    worst = 0.0
    for trial in range(6):
        g, _ = make_graph(rng, 12, 0.25, 4, classes=3)
        p = GnnParams.init(4, 5, 3, layers=2, rng=rng)
        batch = [(g, int(v), int(rng.integers(3)))
                 for v in rng.choice(12, size=4, replace=False)]
        worst = max(worst, grad_check(p, batch, eps=1e-5))
    assert worst < 1e-4


def test_gradients_match_finite_differences_linear_tight(rng):
    g, _ = make_graph(rng, 10, 0.3, 3)
    p = GnnParams.init(3, 4, 2, layers=2, activation="linear", rng=rng)
    batch = [(g, 0, 1), (g, 3, 0), (g, 7, 1)]
    assert grad_check(p, batch, eps=1e-4) < 1e-7


def test_gradients_match_finite_differences_sampled(rng):
    g, _ = make_graph(rng, 14, 0.4, 3)
    p = GnnParams.init(3, 4, 2, layers=2, rng=rng)
    batch = [(g, 1, 0), (g, 5, 1)]
    assert grad_check(p, batch, eps=1e-5, fanout=2, seed=99) < 1e-4


def test_grad_check_flags_corrupted_gradient(rng):
    g, _ = make_graph(rng, 10, 0.3, 3)
    p = GnnParams.init(3, 4, 2, rng=rng)
    batch = [(g, 2, 1), (g, 4, 0)]
    _, grads = loss_and_grad(p, batch, plan_of(p, batch))
    li, idx = max(((li, idx) for li in range(len(grads))
                   for idx in np.ndindex(grads[li].shape)),
                  key=lambda t: abs(grads[t[0]][t[1]]))
    grads[li][idx] *= 2.0
    assert grad_check(p, batch, eps=1e-5, grads=grads) > 1e-2


def test_sgd_step_and_nonfinite_rejection():
    p = GnnParams([np.ones((2, 2))])
    g = [np.full((2, 2), 0.5)]
    p2 = sgd_step(p, g, lr=0.1)
    assert np.allclose(p2.weights[0], 0.95)
    assert np.allclose(p.weights[0], 1.0)  # input untouched
    with pytest.raises(ModelError):
        sgd_step(p, [np.array([[np.nan, 0.0], [0.0, 0.0]])], lr=0.1)
    for lr in (0.0, float("nan")):
        with pytest.raises(ModelError):
            sgd_step(p, g, lr=lr)


def test_sampling_is_deterministic_under_seed(rng):
    g, _ = make_graph(rng, 20, 0.4, 3)
    p = GnnParams.init(3, 4, 2, rng=rng)
    batch = [(g, v, v % 2) for v in range(8)]
    l1, g1 = loss_and_grad(p, batch,
                           plan_of(p, batch, 2, np.random.default_rng(7)))
    l2, g2 = loss_and_grad(p, batch,
                           plan_of(p, batch, 2, np.random.default_rng(7)))
    assert l1.shape == (len(batch),)
    assert np.array_equal(l1, l2)
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)
    l3 = loss_only(p, batch, fanout=2, rng=np.random.default_rng(7))
    assert l3 == float(l1.mean())
    l4 = loss_only(p, batch, fanout=2, rng=np.random.default_rng(8))
    assert l4 != l3  # different sample, different loss


@pytest.mark.parametrize("fanout", [None, 2], ids=["full", "sampled"])
def test_forward_only_loss_matches_loss_and_grad_bitwise(rng, fanout):
    g, _ = make_graph(rng, 20, 0.4, 3)
    p = GnnParams.init(3, 4, 2, rng=rng)
    batch = [(g, v, v % 2) for v in range(8)] + [(g, 3, 1)]
    want = loss_and_grad(p, batch,
                         plan_of(p, batch, fanout, np.random.default_rng(5)))[0]
    got = loss_only(p, batch, fanout, np.random.default_rng(5))
    assert got == float(want.mean())


class ShuffledView:
    """Wraps a snapshot, reporting neighbor lists in scrambled order."""

    def __init__(self, state, seed):
        self._state = state
        self._rng = np.random.default_rng(seed)

    def neighbors(self, v):
        nbrs = list(self._state.neighbors(v))
        self._rng.shuffle(nbrs)
        return nbrs

    def feature_row(self, v):
        return self._state.feature_row(v)

    def feature_rows(self, nodes):
        return self._state.feature_rows(nodes)

    def label(self, v):
        return self._state.label(v)


def test_neighbor_order_does_not_change_full_forward(rng):
    g, _ = make_graph(rng, 15, 0.3, 3)
    p = GnnParams.init(3, 4, 2, rng=rng)
    base = forward_batch(p, [(g, v) for v in range(15)])
    shuffled = ShuffledView(g, 3)
    got = forward_batch(p, [(shuffled, v) for v in range(15)])
    assert np.array_equal(base, got)


def test_predict_is_probability_vector(rng):
    g, _ = make_graph(rng, 8, 0.3, 3)
    p = GnnParams.init(3, 4, 5, rng=rng)
    probs = predict(p, g, 3)
    assert probs.shape == (5,)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert (probs >= 0).all()
    batch = predict_batch(p, [(g, v) for v in range(8)])
    assert np.allclose(batch.sum(axis=1), 1.0)


def test_trace_reports_sampled_neighbors(rng):
    g, _ = make_graph(rng, 10, 0.6, 3)
    p = GnnParams.init(3, 4, 2, layers=2, rng=rng)
    for fanout in (2, None):
        _, plan = forward(p, g, 0, fanout=fanout,
                          rng=np.random.default_rng(0))
        for l in (1, 2):
            mat = plan.mats[l]
            assert mat.has_sorted_indices
            for i, (_vid, u) in enumerate(plan.keys[l]):
                span = slice(mat.indptr[i], mat.indptr[i + 1])
                members = [plan.keys[l - 1][j][1] for j in mat.indices[span]]
                assert u in members                  # self always aggregated
                assert len(set(members)) == len(members)
                assert np.all(mat.data[span] == 1.0 / len(members))
                if fanout is None:
                    assert set(members) == {u, *g.neighbors(u)}
                else:
                    assert len(members) <= fanout + 1
                    assert set(members) <= {u, *g.neighbors(u)}


def test_rejects_bad_inputs(rng):
    g, _ = make_graph(rng, 6, 0.3, 3)
    p = GnnParams.init(3, 4, 2, rng=rng)
    with pytest.raises(ModelError):
        forward_batch(p, [])
    with pytest.raises(ModelError):
        prepare_batch(2, [(g, 0)], fanout=2)  # sampling without rng
    with pytest.raises(ModelError):
        # label outside classifier range
        loss_and_grad(p, [(g, 0, 5)], plan_of(p, [(g, 0)]))
    with pytest.raises(ModelError):
        GnnParams([np.zeros((2, 2))], activation="step")


def test_checkpoint_round_trip_is_lossless(tmp_path, rng):
    p = GnnParams.init(7, 5, 3, layers=3, rng=rng)
    path = str(tmp_path / "weights.npz")
    save_params(p, path)
    q = load_params(path)
    assert q.activation == p.activation
    assert q.layer_count == p.layer_count
    for a, b in zip(p.weights, q.weights):
        assert np.array_equal(a, b)


def test_load_rejects_weights_whose_shapes_do_not_chain(tmp_path, rng):
    p = GnnParams.init(3, 8, 2, layers=2, rng=rng)
    path = str(tmp_path / "weights.ckpt")
    with open(path, "wb") as fh:
        save_params(GnnParams([p.weights[0], np.zeros((5, 2))]), fh)
    with pytest.raises(ModelError) as err:
        load_params(path)
    assert "weights.ckpt: layer 1 " in str(err.value)


@pytest.mark.parametrize("override", [
    {"layer_count": 3},          # one more layer than the file stores
    {"layer_count": 1},          # one fewer
    {"layer_count": 0},
    {"activation": "tanh"},
    {"format_version": 2},
], ids=["layer_count_3", "layer_count_1", "layer_count_0", "activation",
        "format_version"])
def test_load_names_the_file_when_it_refuses_it(tmp_path, rng, override):
    path = str(tmp_path / "weights.ckpt")
    with open(path, "wb") as fh:
        save_params(GnnParams.init(3, 8, 2, layers=2, rng=rng), fh)
    with np.load(path) as data:
        arrays = dict(data)
    arrays.update({k: np.array(v) for k, v in override.items()})
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ModelError) as err:
        load_params(path)
    assert "weights.ckpt: " in str(err.value)


def test_expand_classes_keeps_old_logits(rng):
    g, _ = make_graph(rng, 8, 0.3, 3)
    p = GnnParams.init(3, 4, 2, rng=rng)
    grown = p.expand_classes(4)
    h_old, _ = forward(p, g, 1)
    h_new, _ = forward(grown, g, 1)
    # differently shaped matmuls may pick different BLAS kernels, so the
    # old logits are preserved to roundoff rather than bitwise
    assert np.allclose(h_new[:2], h_old, rtol=0, atol=1e-14)
    assert np.array_equal(h_new[2:], np.zeros(2))
    with pytest.raises(ModelError):
        p.expand_classes(1)


def test_checkpoint_keeps_a_file_name_without_npz(tmp_path, rng):
    p = GnnParams.init(3, 4, 2, rng=rng)
    path = str(tmp_path / "step0.ckpt")
    save_params(p, path)
    assert os.listdir(str(tmp_path)) == ["step0.ckpt"]
    for a, b in zip(p.weights, load_params(path).weights):
        assert np.array_equal(a, b)


def test_forward_upto_is_last_hidden_layer(rng):
    g, _ = make_graph(rng, 10, 0.3, 3)
    p = GnnParams.init(3, 6, 2, layers=2, rng=rng)
    n = g.n
    P = np.zeros((n, n))
    for v in range(n):
        group = sorted(set(g.neighbors(v)) | {v})
        P[v, group] = 1.0 / len(group)
    H1 = np.maximum(P @ g.feature_matrix() @ p.weights[0][:-1] + p.weights[0][-1], 0.0)
    got = forward_batch(p, [(g, v) for v in range(n)], upto=1)
    assert np.allclose(got, H1, rtol=1e-12, atol=1e-12)
    with pytest.raises(ModelError):
        forward_batch(p, [(g, 0)], upto=3)
    # one layer: embedding is the raw feature row
    p1 = GnnParams.init(3, 6, 2, layers=1, rng=rng)
    got1 = forward_batch(p1, [(g, 4)], upto=0)
    assert np.array_equal(got1[0], g.feature_row(4))


def mixed_batch(rng):
    """Triples over a snapshot and two ego-nets frozen before it rewrote
    their centers' features: one node id in two views, with different
    feature rows."""
    g, _ = make_graph(rng, 14, 0.35, 3)
    egos = [freeze_ego(g, v, 2) for v in (3, 8)]
    g2 = g.apply_delta(SnapshotDelta(
        time=1, attr_changes=((3, rng.random(3)), (8, rng.random(3)))))
    return [(g2, 1, 0), (egos[0], 3, 1), (g2, 3, 0), (egos[1], 8, 0),
            (g2, 9, 1)]


@pytest.mark.parametrize("repeat", [False, True], ids=["distinct", "repeated"])
def test_frozen_plan_matches_fresh_plans_bitwise(rng, repeat):
    batch = mixed_batch(rng)
    if repeat:
        batch += batch[:2]
    p = GnnParams.init(3, 4, 2, rng=rng)
    q = p.copy()
    for w in q.weights:
        w += rng.normal(scale=0.3, size=w.shape)
    plan = prepare_batch(2, [(view, v) for view, v, _lab in batch],
                         fanout=2, rng=np.random.default_rng(5))
    for params in (p, q, p):
        got = loss_and_grad(params, batch, plan=plan)
        want = loss_and_grad(params, batch, plan_of(
            params, batch, 2, np.random.default_rng(5)))
        assert np.array_equal(got[0], want[0])
        for a, b in zip(got[1], want[1]):
            assert np.array_equal(a, b)
    assert not plan.first.flags.writeable


def test_reused_plan_reads_each_batchs_labels(rng):
    batch = mixed_batch(rng)
    relabelled = [(view, v, 1 - lab) for view, v, lab in batch]
    p = GnnParams.init(3, 4, 2, rng=rng)
    plan = prepare_batch(2, [(view, v) for view, v, _lab in batch])
    loss_and_grad(p, batch, plan=plan)
    got = loss_and_grad(p, relabelled, plan=plan)
    want = loss_and_grad(p, relabelled, plan_of(p, relabelled))
    assert np.array_equal(got[0], want[0])
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a, b)
    with pytest.raises(ModelError):
        loss_and_grad(p, [(view, v, 2) for view, v, _lab in batch],
                      plan=plan)


def test_gradients_match_finite_differences_on_a_reused_plan(rng):
    batch = mixed_batch(rng)
    p = GnnParams.init(3, 4, 2, rng=rng)
    q = p.copy()
    q.weights[0] += 0.3
    plan = prepare_batch(2, [(view, v) for view, v, _lab in batch],
                         fanout=2, rng=np.random.default_rng(99))
    loss_and_grad(q, batch, plan=plan)
    _, grads = loss_and_grad(p, batch, plan=plan)
    assert grad_check(p, batch, eps=1e-5, fanout=2, seed=99,
                      grads=grads) < 1e-4


def test_forward_upto_zero_gives_each_views_raw_rows(rng):
    pairs = [(view, v) for view, v, _lab in mixed_batch(rng)]
    pairs.append(pairs[0])
    p = GnnParams.init(3, 4, 2, rng=rng)
    got = forward_batch(p, pairs, upto=0)
    want = np.array([view.feature_row(v) for view, v in pairs])
    assert np.array_equal(got, want)
    assert not np.array_equal(got[1], got[2])  # node 3, frozen and live
