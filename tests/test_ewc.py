import numpy as np
import pytest

from cgnn.ewc import (FisherDiag, estimate_fisher, ewc_penalty,
                      uniform_importance)
from cgnn.graph import SnapshotDelta
from cgnn.memory import MemoryEntry, ReplayMemory, replay_batch, update_memory
from cgnn.model import GnnParams, loss_and_grad, zero_grads

from conftest import make_graph
from helpers import plan_of


def build_memory(rng, n=12, capacity=8, dim=3):
    g, _ = make_graph(rng, n, 0.4, dim)
    mem = ReplayMemory(capacity=capacity, strategy="stepwise")
    return g, update_memory(mem, range(n), g, 1, rng)


def test_empty_memory_gives_inert_regularizer(rng):
    p = GnnParams.init(3, 4, 2, rng=rng)
    mem = ReplayMemory(capacity=4, strategy="random")
    fisher = estimate_fisher(p, mem)
    for block in fisher.values:
        assert np.array_equal(block, np.zeros_like(block))
    val, grads = ewc_penalty(p, fisher, 100.0)
    assert val == 0.0
    for g_ in grads:
        assert np.array_equal(g_, np.zeros_like(g_))


def test_fisher_matches_per_entry_accumulation(rng):
    g, mem = build_memory(rng)
    p = GnnParams.init(3, 4, 2, rng=rng)
    fisher = estimate_fisher(p, mem)
    want = zero_grads(p)
    batch = replay_batch(mem)
    for ego, center, lab in batch:
        triple = [(ego, center, lab)]
        _, grads = loss_and_grad(p, triple, plan_of(p, triple))
        for acc, g_ in zip(want, grads):
            acc += g_ * g_
    for acc, got, anchor, w in zip(want, fisher.values,
                                   fisher.anchor.weights, p.weights):
        assert np.allclose(got, acc / len(batch), rtol=1e-12, atol=1e-15)
        assert np.array_equal(anchor, w)
    assert all(np.all(v >= 0) for v in fisher.values)


def mixed_memory(rng, depth, dim=3):
    """Every node of a sparse graph plus one isolated node, frozen at the
    given depth: ego-nets of unequal size, one of them a lone center."""
    g, _ = make_graph(rng, 11, 0.2, dim, classes=3)
    g = g.apply_delta(SnapshotDelta(time=1,
                                    new_nodes=((11, rng.random(dim), 1),)))
    mem = ReplayMemory(capacity=12, strategy="random")
    return update_memory(mem, range(12), g, depth, rng)


@pytest.mark.parametrize("layers,activation", [
    (1, "relu"), (2, "relu"), (2, "linear"), (3, "relu"), (3, "linear")])
def test_fisher_matches_per_entry_loop_on_unequal_ego_nets(rng, layers,
                                                           activation):
    mem = mixed_memory(rng, layers)
    batch = replay_batch(mem)
    sizes = [len(ego.nodes) for ego, _c, _lab in batch]
    assert len(batch) == 12 and min(sizes) == 1 and len(set(sizes)) > 2
    p = GnnParams.init(3, 5, 3, layers, activation, rng=rng)
    for w in p.weights:
        w[-1] = rng.normal(size=w.shape[1])
    want = zero_grads(p)
    for ego, center, lab in batch:
        triple = [(ego, center, lab)]
        _, grads = loss_and_grad(p, triple, plan_of(p, triple))
        for acc, g_ in zip(want, grads):
            acc += g_ * g_
    fisher = estimate_fisher(p, mem)
    for acc, got in zip(want, fisher.values):
        assert np.allclose(got, acc / len(batch), rtol=1e-12, atol=1e-15)
    assert all(v.any() for v in fisher.values)


def test_fisher_refuses_entries_that_share_a_view(rng):
    g, mem = build_memory(rng)
    p = GnnParams.init(3, 4, 2, rng=rng)
    label = min(k for k in mem.entries if mem.entries[k])
    first = mem.entries[label][0]
    mem.entries[label].append(MemoryEntry(first.ego, label, first.step))
    with pytest.raises(ValueError, match="share a view"):
        estimate_fisher(p, mem)


def test_fisher_anchor_is_a_copy(rng):
    g, mem = build_memory(rng)
    p = GnnParams.init(3, 4, 2, rng=rng)
    fisher = estimate_fisher(p, mem)
    p.weights[0][0, 0] += 99.0
    assert fisher.anchor.weights[0][0, 0] != p.weights[0][0, 0]


def test_uniform_importance_is_all_ones(rng):
    p = GnnParams.init(3, 4, 2, rng=rng)
    fisher = uniform_importance(p)
    for block, w in zip(fisher.values, p.weights):
        assert np.array_equal(block, np.ones_like(w))


def test_penalty_value_by_hand():
    anchor = GnnParams([np.array([[1.0, 2.0]])])
    values = [np.array([[0.5, 4.0]])]
    fisher = FisherDiag(values=values, anchor=anchor)
    p = GnnParams([np.array([[3.0, 2.5]])])
    # lam * sum F (theta - a)^2 = 2 * (0.5*4 + 4*0.25) = 6
    val, grads = ewc_penalty(p, fisher, 2.0)
    assert val == pytest.approx(6.0)
    # grad = 2 lam F (theta - a) = [2*2*0.5*2, 2*2*4*0.5]
    assert np.allclose(grads[0], [[4.0, 8.0]])


def test_penalty_gradient_matches_finite_differences(rng):
    g, mem = build_memory(rng)
    p = GnnParams.init(3, 4, 2, rng=rng)
    fisher = estimate_fisher(p, mem)
    # move away from the anchor so the penalty is non-trivial
    q = p.copy()
    for w in q.weights:
        w += rng.normal(scale=0.1, size=w.shape)
    val, grads = ewc_penalty(q, fisher, 7.0)
    assert val > 0
    eps = 1e-5
    worst = 0.0
    for li in range(q.layer_count):
        it = np.nditer(q.weights[li], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = q.weights[li][idx]
            q.weights[li][idx] = orig + eps
            up, _ = ewc_penalty(q, fisher, 7.0)
            q.weights[li][idx] = orig - eps
            dn, _ = ewc_penalty(q, fisher, 7.0)
            q.weights[li][idx] = orig
            fd = (up - dn) / (2 * eps)
            a, b = fd, grads[li][idx]
            rel = abs(a - b) / max(abs(a), abs(b), 1e-6)
            worst = max(worst, rel)
    assert worst < 1e-6


def test_lambda_zero_is_exact_zero(rng):
    g, mem = build_memory(rng)
    p = GnnParams.init(3, 4, 2, rng=rng)
    fisher = estimate_fisher(p, mem)
    q = p.copy()
    q.weights[0] += 1.0
    val, grads = ewc_penalty(q, fisher, 0.0)
    assert val == 0.0
    for g_ in grads:
        assert np.array_equal(g_, np.zeros_like(g_))


def test_negative_lambda_rejected(rng):
    p = GnnParams.init(3, 4, 2, rng=rng)
    for lam in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            ewc_penalty(p, uniform_importance(p), lam)


def test_penalty_zero_at_anchor(rng):
    g, mem = build_memory(rng)
    p = GnnParams.init(3, 4, 2, rng=rng)
    fisher = estimate_fisher(p, mem)
    val, grads = ewc_penalty(p, fisher, 123.0)
    assert val == 0.0
    for g_ in grads:
        assert np.array_equal(g_, np.zeros_like(g_))


def test_fisher_shape_mismatch_rejected(rng):
    p = GnnParams.init(3, 4, 2, rng=rng)
    wide = GnnParams.init(3, 4, 5, rng=rng)
    fisher = uniform_importance(wide)
    with pytest.raises(ValueError):
        ewc_penalty(p, fisher, 1.0)
