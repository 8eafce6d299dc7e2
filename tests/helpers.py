"""Test-only helpers: single-node wrappers, oracles and checkers.

These sit on top of the package's public API (and, for loss_only,
propagate_f and continual_step, one private routine each) and exist only
so tests can state properties compactly. loss_only is the forward-only
mean loss that finite differences and loss properties are checked with.
"""

import numpy as np

from cgnn.detect import _propagation_run
from cgnn.model import (_output_grad, forward_batch, loss_and_grad,
                        predict_batch)
from cgnn.train import _step


def forward(params, view, node, fanout=None, rng=None):
    """Single-node wrapper around forward_batch: (representation, plan)."""
    H, plan = forward_batch(params, [(view, node)], fanout, rng)
    return H[0], plan


def predict(params, view, node):
    return predict_batch(params, [(view, node)])[0]


def loss_only(params, batch, fanout=None, rng=None):
    """Mean cross entropy over (view, node, label) triples, forward only."""
    H, _plan = forward_batch(params, [(view, node) for view, node, _ in batch],
                             fanout, rng)
    labels = np.array([lab for _view, _node, lab in batch], dtype=np.int64)
    return float(_output_grad(H, labels)[0].mean())


def grad_check(params, batch, eps=1e-5, fanout=None, seed=0, grads=None):
    """Max relative error between analytic and central-difference gradients.

    Every loss evaluation reruns the pipeline with a generator built from the
    same seed, so sampled neighborhoods match between the analytic pass and
    both sides of each finite difference.
    """
    def fresh_rng():
        return np.random.default_rng(seed) if fanout is not None else None

    if grads is None:
        _, grads = loss_and_grad(params, batch, fanout, fresh_rng())

    worst = 0.0
    for li, w in enumerate(params.weights):
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            hi = loss_only(params, batch, fanout, fresh_rng())
            w[idx] = orig - eps
            lo = loss_only(params, batch, fanout, fresh_rng())
            w[idx] = orig
            fd = (hi - lo) / (2.0 * eps)
            a = grads[li][idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            if rel > worst:
                worst = rel
            it.iternext()
    return worst


def continual_step(params, mem, g_prev, delta, cfg, rng, train_nodes=None):
    """One incremental update. Returns (params, memory, new snapshot, report).

    train_nodes, when given, is the set of nodes whose labels training may
    use; influenced nodes outside it still count as influenced but are not
    fit or stored.
    """
    return _step("continual", params, mem, g_prev, delta, cfg, rng,
                 train_nodes)


def propagate_f(view, seeds, depth, include_self=False):
    """Propagation weights as a {(node, seed): value} map.

    Pairs the propagation never reached are absent and exactly zero.
    """
    seeds = sorted(set(seeds))
    if not seeds:
        return {}
    region, F = _propagation_run(view, seeds, depth, include_self)
    out = {}
    for i, u in enumerate(region):
        for j, s in enumerate(seeds):
            val = F[i, j]
            if val != 0.0:
                out[(u, s)] = float(val)
    return out


def deltas_equal(a, b):
    """Structural equality for deltas (ndarray-aware, used by round-trip tests)."""
    if a.time != b.time:
        return False
    if len(a.new_nodes) != len(b.new_nodes):
        return False
    for (i1, f1, l1), (i2, f2, l2) in zip(a.new_nodes, b.new_nodes):
        if i1 != i2 or l1 != l2 or not np.array_equal(f1, f2):
            return False
    if tuple(a.edge_adds) != tuple(b.edge_adds):
        return False
    if tuple(a.edge_removes) != tuple(b.edge_removes):
        return False
    if len(a.attr_changes) != len(b.attr_changes):
        return False
    for (i1, f1), (i2, f2) in zip(a.attr_changes, b.attr_changes):
        if i1 != i2 or not np.array_equal(f1, f2):
            return False
    return True
