import numpy as np
import pytest

from cgnn.detect import (ThresholdRule, score_approx, score_bfs,
                         score_naive, select_influenced, surrogate_weights)
from cgnn.graph import GraphState, SnapshotDelta, l_hop_set
from cgnn.model import GnnParams

from conftest import make_graph, random_stream
from helpers import forward, propagate_f


def apply_step(rng, g, new=2, edges=3):
    """Random follow-up delta on g: a few new nodes plus new edges."""
    base = g.n
    dim = g.feature_dim
    nodes = tuple((base + i, rng.random(dim), int(rng.integers(2)))
                  for i in range(new))
    pairs = set()
    for i in range(new):
        pairs.add((int(rng.integers(base)), base + i))
    for _ in range(edges):
        u, v = int(rng.integers(base)), int(rng.integers(base))
        if u != v and not g.has_edge(u, v):
            pairs.add((min(u, v), max(u, v)))
    delta = SnapshotDelta(time=g.time + 1, new_nodes=nodes,
                          edge_adds=tuple(sorted(pairs)))
    return g.apply_delta(delta), delta


def naive_oracle(params, g_old, g_new, candidates):
    """Per-node forwards, no batching: reference for the scorers."""
    out = {}
    for u in candidates:
        h_new, _ = forward(params, g_new, u)
        if u < g_old.n:
            h_old, _ = forward(params, g_old, u)
        else:
            h_old = np.zeros_like(h_new)
        out[u] = float(np.linalg.norm(h_new - h_old))
    return out


def test_identical_graphs_score_zero(rng):
    g, _ = make_graph(rng, 12, 0.3, 4)
    p = GnnParams.init(4, 5, 2, rng=rng)
    scores = score_naive(p, g, g, range(g.n))
    assert all(s == 0.0 for s in scores.values())


def test_naive_matches_per_node_oracle(rng):
    for trial in range(5):
        g, _ = make_graph(rng, 14, 0.3, 3)
        g2, _ = apply_step(rng, g)
        p = GnnParams.init(3, 5, 2, rng=rng)
        got = score_naive(p, g, g2, range(g2.n))
        want = naive_oracle(p, g, g2, range(g2.n))
        assert set(got) == set(want)
        for u in want:
            assert abs(got[u] - want[u]) < 1e-12


def test_score_is_zero_outside_propagation_ball(rng):
    g, _ = make_graph(rng, 30, 0.08, 3)
    g2, delta = apply_step(rng, g, new=1, edges=1)
    p = GnnParams.init(3, 5, 2, layers=2, rng=rng)
    ball = l_hop_set(g2, delta.changed_nodes(), 2)
    scores = score_naive(p, g, g2, range(g2.n))
    for u, s in scores.items():
        if u not in ball:
            assert s == 0.0, f"node {u} outside the 2-hop ball moved"


def test_bfs_matches_naive_on_its_keys(rng):
    for trial in range(5):
        g, _ = make_graph(rng, 20, 0.15, 3)
        g2, delta = apply_step(rng, g)
        p = GnnParams.init(3, 5, 2, rng=rng)
        got = score_bfs(p, g, g2, delta)
        ball = l_hop_set(g2, delta.changed_nodes(), p.layer_count)
        assert set(got) == ball
        full = score_naive(p, g, g2, sorted(ball))
        for u in got:
            assert got[u] == full[u]


def test_propagate_hand_star():
    # star: center 0 with leaves 1..3; depth 1 from seed 1
    feats = np.zeros((4, 2))
    delta = SnapshotDelta(time=0,
                          new_nodes=tuple((v, feats[v], 0) for v in range(4)),
                          edge_adds=((0, 1), (0, 2), (0, 3)))
    g = GraphState.empty(2).apply_delta(delta)
    f = propagate_f(g, [1], 1)
    # center averages its three neighbors, leaf 1's own row has no self term
    assert f == {(0, 1): pytest.approx(1.0 / 3.0)}
    f2 = propagate_f(g, [1], 1, include_self=True)
    assert f2[(1, 1)] == pytest.approx(1.0 / 2.0)
    assert f2[(0, 1)] == pytest.approx(1.0 / 4.0)


def test_propagate_hand_chain_two_hops():
    # path 0-1-2-3, seed 0, depth 2: walk mass spreads two steps
    feats = np.zeros((4, 2))
    delta = SnapshotDelta(time=0,
                          new_nodes=tuple((v, feats[v], 0) for v in range(4)),
                          edge_adds=((0, 1), (1, 2), (2, 3)))
    g = GraphState.empty(2).apply_delta(delta)
    f = propagate_f(g, [0], 2)
    # P = D^-1 A; (P^2 e0): node0 gets 1/2 (0->1->0), node2 gets 1/2*1/2
    assert f[(0, 0)] == pytest.approx(0.5)
    assert f[(2, 0)] == pytest.approx(0.25)
    assert (1, 0) not in f
    assert (3, 0) not in f


def dense_walk_matrix(g, include_self):
    n = g.n
    A = np.zeros((n, n))
    for v in range(n):
        for u in g.neighbors(v):
            A[v, u] = 1.0
    if include_self:
        A = A + np.eye(n)
    deg = A.sum(axis=1)
    P = np.divide(A, deg[:, None], out=np.zeros_like(A),
                  where=deg[:, None] > 0)
    return P


@pytest.mark.parametrize("include_self", [False, True])
def test_propagate_matches_dense_power(rng, include_self):
    for trial in range(8):
        g, _ = make_graph(rng, 12, 0.25, 2)
        seeds = sorted(rng.choice(12, size=3, replace=False).tolist())
        depth = int(rng.integers(1, 4))
        P = dense_walk_matrix(g, include_self)
        E = np.zeros((g.n, len(seeds)))
        for j, s in enumerate(seeds):
            E[s, j] = 1.0
        want = np.linalg.matrix_power(P, depth) @ E
        got = propagate_f(g, seeds, depth, include_self=include_self)
        for v in range(g.n):
            for j, s in enumerate(seeds):
                assert abs(got.get((v, s), 0.0) - want[v, j]) < 1e-12


def test_propagate_isolated_node_absorbs_nothing(rng):
    feats = rng.random((3, 2))
    delta = SnapshotDelta(time=0,
                          new_nodes=tuple((v, feats[v], 0) for v in range(3)),
                          edge_adds=((0, 1),))
    g = GraphState.empty(2).apply_delta(delta)
    f = propagate_f(g, [0], 1)
    assert (2, 0) not in f  # node 2 has no edges; nothing reaches it


def test_approx_attribute_only_hand_check(rng):
    # two nodes, one edge, linear single layer: score is exact by hand
    x = np.array([[0.2, 0.4], [0.6, 0.8]])
    delta0 = SnapshotDelta(time=0,
                           new_nodes=((0, x[0], 0), (1, x[1], 1)),
                           edge_adds=((0, 1),))
    g0 = GraphState.empty(2).apply_delta(delta0)
    new_row = np.array([0.5, 0.1])
    delta1 = SnapshotDelta(time=1, attr_changes=((0, new_row),))
    g1 = g0.apply_delta(delta1)
    W = np.array([[1.0, -1.0], [2.0, 0.5]])
    p = GnnParams([np.vstack([W, np.full(2, 0.3)])], activation="linear")
    c = np.linalg.norm((new_row - x[0]) @ W)
    got = score_approx(p, g0, g1, delta1, include_self=True)
    # with self term each of the two nodes averages both rows: f = 1/2
    assert got[0] == pytest.approx(0.5 * c)
    assert got[1] == pytest.approx(0.5 * c)


def test_approx_exact_for_single_linear_layer(rng):
    # one changed attribute row, one linear layer: the surrogate is exact
    for trial in range(6):
        g, _ = make_graph(rng, 16, 0.25, 3)
        target = int(rng.integers(g.n))
        delta = SnapshotDelta(time=g.time + 1,
                              attr_changes=((target, rng.random(3)),))
        g2 = g.apply_delta(delta)
        p = GnnParams.init(3, 0, 2, layers=1, activation="linear", rng=rng)
        approx = score_approx(p, g, g2, delta, include_self=True)
        exact = score_naive(p, g, g2, sorted(approx))
        for u in approx:
            denom = max(abs(exact[u]), 1e-12)
            assert abs(approx[u] - exact[u]) / denom < 1e-8


def test_approx_structural_keys_cover_ball(rng):
    g, _ = make_graph(rng, 20, 0.2, 3)
    g2, delta = apply_step(rng, g)
    p = GnnParams.init(3, 5, 2, layers=2, rng=rng)
    got = score_approx(p, g, g2, delta)
    assert set(got) <= l_hop_set(g2, delta.changed_nodes(), 2)
    assert all(np.isfinite(v) and v >= 0 for v in got.values())


def test_empty_delta_scores_empty(rng):
    g, _ = make_graph(rng, 8, 0.3, 3)
    p = GnnParams.init(3, 4, 2, rng=rng)
    delta = SnapshotDelta(time=g.time + 1)
    g2 = g.apply_delta(delta)
    assert score_approx(p, g, g2, delta) == {}
    assert score_bfs(p, g, g2, delta) == {}


def test_surrogate_weights_is_product(rng):
    p = GnnParams.init(3, 4, 2, layers=2, rng=rng)
    got = surrogate_weights(p)
    assert got.shape == (3, 2)
    assert np.allclose(got, p.weights[0][:-1] @ p.weights[1][:-1])


def test_select_absolute_threshold_is_strict():
    scores = {0: 0.5, 1: 0.2, 2: 0.8, 3: 0.2}
    assert select_influenced(scores, ThresholdRule("abs", 0.2)) == {0, 2}
    assert select_influenced(scores, ThresholdRule("abs", 0.8)) == set()


def test_select_ratio_takes_ceiling_with_id_ties():
    scores = {i: float(10 - i) for i in range(10)}
    got = select_influenced(scores, ThresholdRule("ratio", 0.8))
    assert got == set(range(8))  # ceil(0.8 * 10) = 8 highest
    tied = {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}
    got = select_influenced(tied, ThresholdRule("ratio", 0.5))
    assert got == {0, 1}  # ties broken toward smaller ids
    assert select_influenced({5: 3.0}, ThresholdRule("ratio", 0.01)) == {5}
    assert select_influenced({}, ThresholdRule("ratio", 0.8)) == set()


def test_threshold_rule_validation():
    with pytest.raises(ValueError):
        ThresholdRule("quantile", 0.5)
    with pytest.raises(ValueError):
        ThresholdRule("ratio", 1.5)
    with pytest.raises(ValueError):
        ThresholdRule("abs", -0.1)
    with pytest.raises(ValueError):  # it would select no node at all
        ThresholdRule("abs", float("nan"))


def test_new_node_scored_against_zero(rng):
    g, _ = make_graph(rng, 6, 0.4, 3)
    g2, delta = apply_step(rng, g, new=1, edges=0)
    p = GnnParams.init(3, 4, 2, rng=rng)
    new_id = g.n
    h, _ = forward(p, g2, new_id)
    scores = score_naive(p, g, g2, [new_id])
    assert scores[new_id] == pytest.approx(float(np.linalg.norm(h)))
