"""Quadratic weight anchoring with importance estimated from replay memory.

The importance of each weight entry is the mean squared per-node gradient of
the stored examples' log losses at their stored labels. Weights that mattered
for remembered patterns get stiff, the rest stay free to move.

The per-node gradients come from one batched pass over the whole memory,
model.squared_view_grads: each entry is its own frozen view, so its gradient
is a segment sum over its rows of the batch's plan.
"""

import numpy as np

from .memory import replay_batch
from .model import squared_view_grads, zero_grads


class FisherDiag:
    """Per-entry importance values plus the parameter anchor they refer to."""

    __slots__ = ("values", "anchor")

    def __init__(self, values, anchor):
        self.values = values
        self.anchor = anchor


def estimate_fisher(params, mem):
    """Empirical squared-gradient diagonal over the memory's entries: the
    mean over entries of each entry's squared log-loss gradient, from one
    batched pass (model.squared_view_grads). Entries that share a view
    are refused. An empty memory yields all-zero importance, which makes
    the penalty inert rather than an error.
    """
    anchor = params.copy()
    entries = replay_batch(mem)
    if not entries:
        return FisherDiag(zero_grads(params), anchor)
    values = squared_view_grads(params, entries)
    for acc in values:
        acc /= len(entries)
    return FisherDiag(values, anchor)


def uniform_importance(params):
    """Every weight equally important: plain distance-to-anchor penalty."""
    return FisherDiag([np.ones_like(w) for w in params.weights],
                      params.copy())


def ewc_penalty(params, fisher, lam):
    """Penalty value and gradient: lam * sum F_i (w_i - anchor_i)^2.

    Returns (scalar, per-layer gradient arrays). lam = 0 gives exact zeros.
    """
    if not lam >= 0:
        raise ValueError("penalty strength must be non-negative")
    total = 0.0
    grads = []
    for w, a, f in zip(params.weights, fisher.anchor.weights, fisher.values):
        diff = w - a
        total += float((f * diff * diff).sum())
        grads.append(2.0 * lam * f * diff)
    return lam * total, grads
