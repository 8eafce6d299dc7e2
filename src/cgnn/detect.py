"""Scoring of nodes whose patterns a graph change may have disturbed.

A node's influence score is the L2 distance between its final
representations on the old and the new snapshot, computed with full
neighborhoods so the score is deterministic. The exact variants differ only
in which nodes they bother scoring; the approximate variant replaces the
network with a linear surrogate and propagates per-seed weights through
the graph instead of rerunning forward passes.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graph import l_hop_set
from .model import forward_batch, prepare_batch


@dataclass(frozen=True)
class ThresholdRule:
    """mode "abs": keep scores strictly above value.
    mode "ratio": keep the ceil(value * candidate_count) best scores."""

    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in ("abs", "ratio"):
            raise ValueError("unknown threshold mode %r" % self.mode)
        if self.mode == "ratio" and not (0.0 <= self.value <= 1.0):
            raise ValueError("ratio must lie in [0, 1]")
        if self.mode == "abs" and not self.value >= 0:
            raise ValueError("absolute threshold must be non-negative")


def surrogate_weights(params):
    """Product of all layer weights with activations and biases dropped.

    Biases cancel out of representation differences, so the product of the
    non-bias rows is the exact linear action on a feature change.
    """
    out = params.weights[0][:-1]
    for w in params.weights[1:]:
        out = out @ w[:-1]
    return out


def _drift(params, g_old, g_new, ids, upto=None):
    """Row i: the change of node ids[i]'s representation after layer upto.

    ids are sorted, so the ones the old snapshot has come first; a new
    node's old representation is the zero vector."""
    H = forward_batch(params, [(g_new, u) for u in ids], upto=upto)
    k = int(np.searchsorted(ids, g_old.n))
    if k:
        H[:k] -= forward_batch(params, [(g_old, u) for u in ids[:k]],
                               upto=upto)
    return H


def score_naive(params, g_old, g_new, candidates):
    """Exact representation drift for every candidate node."""
    ids = sorted(set(candidates))
    if not ids:
        return {}
    D = _drift(params, g_old, g_new, ids)
    return {u: float(np.linalg.norm(D[i])) for i, u in enumerate(ids)}


def score_bfs(params, g_old, g_new, delta):
    """Exact scores, restricted to nodes a change can actually reach.

    Representation drift is zero outside the layer_count-hop ball around
    the changed nodes, so only that ball is scored.
    """
    seeds = delta.changed_nodes()
    if not seeds:
        return {}
    ball = l_hop_set(g_new, seeds, params.layer_count)
    return score_naive(params, g_old, g_new, ball)


def _propagation_run(view, seeds, depth, include_self):
    """Per-seed propagation weights over the seeds' depth-hop ball.

    Round l sets f_u to the mean of round l-1 values over u's neighbors,
    plus u itself when include_self is set: the model's one-level
    aggregation over the ball. Mass never leaves the ball, so dropping the
    columns outside it is exact. Isolated nodes keep weight zero.
    """
    region = sorted(l_hop_set(view, seeds, depth))
    plan = prepare_batch(1, [(view, v) for v in region])
    A = plan.mats[1].tocoo()
    nodes = plan.keys[0][A.col, 1]
    cols = np.searchsorted(region, nodes)
    keep = np.isin(nodes, region)
    if include_self:
        vals = A.data[keep]
    else:
        keep &= cols != A.row
        vals = 1.0 / (np.diff(plan.mats[1].indptr)[A.row[keep]] - 1)
    P = sparse.csr_matrix((vals, (A.row[keep], cols[keep])),
                          shape=(len(region), len(region)))

    F = np.zeros((len(region), len(seeds)), dtype=np.float64)
    F[np.searchsorted(region, seeds), np.arange(len(seeds))] = 1.0
    for _ in range(depth):
        F = P @ F
    return region, F


def score_approx(params, g_old, g_new, delta, include_self=False):
    """Linear-surrogate influence scores.

    Attribute-only deltas push each feature change through the weight
    product and spread its norm with the propagation weights. Deltas with
    structural changes instead measure each changed node's exact first-layer
    drift and spread that. Either way no full forward pass over the ball is
    needed.
    """
    seeds = sorted(delta.changed_nodes())
    if not seeds:
        return {}
    structural = bool(delta.new_nodes or delta.edge_adds or delta.edge_removes)
    if structural:
        change = np.linalg.norm(_drift(params, g_old, g_new, seeds, upto=1),
                                axis=1)
    else:
        wt = surrogate_weights(params)
        diffs = np.stack([np.asarray(new) - g_old.feature_row(nid)
                          for nid, new in sorted(delta.attr_changes)])
        change = np.linalg.norm(diffs @ wt, axis=1)

    region, F = _propagation_run(g_new, seeds, params.layer_count,
                                 include_self)
    totals = F @ change
    return {u: float(totals[i]) for i, u in enumerate(region)}


def select_influenced(scores, rule):
    """Apply a threshold rule to a score map. Returns a set of node ids.

    Ratio ties at the cut are broken toward smaller node ids.
    """
    if rule.mode == "abs":
        return {u for u, s in scores.items() if s > rule.value}
    k = math.ceil(rule.value * len(scores))
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return {u for u, _s in ranked[:k]}
