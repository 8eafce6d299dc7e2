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
from .model import forward_batch


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
        if self.mode == "abs" and self.value < 0:
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


def score_naive(params, g_old, g_new, candidates):
    """Exact representation drift for every candidate node.

    Candidates beyond the old snapshot's id range are new; their old
    representation is the zero vector.
    """
    ids = sorted(set(candidates))
    if not ids:
        return {}
    H_new, _ = forward_batch(params, [(g_new, u) for u in ids])
    # ids are sorted, so the ones the old snapshot has come first
    old_ids = [u for u in ids if u < g_old.n]
    H_old = np.zeros_like(H_new)
    if old_ids:
        H_old[:len(old_ids)], _ = forward_batch(
            params, [(g_old, u) for u in old_ids])
    return {u: float(np.linalg.norm(H_new[i] - H_old[i]))
            for i, u in enumerate(ids)}


def score_bfs(params, g_old, g_new, delta, depth=None):
    """Exact scores, restricted to nodes a change can actually reach.

    Representation drift is zero outside the depth-hop ball around the
    changed nodes, so only that ball is scored.
    """
    if depth is None:
        depth = params.layer_count
    seeds = delta.changed_nodes()
    if not seeds:
        return {}
    ball = l_hop_set(g_new, seeds, depth)
    return score_naive(params, g_old, g_new, ball)


def _propagation_run(view, seeds, depth, include_self):
    """Per-seed propagation weights over the seeds' depth-hop ball.

    Round l sets f_u to the mean of round l-1 values over u's neighbors
    (plus u itself when include_self is set). Mass never leaves the ball,
    so restricting the transition matrix to it is exact. Isolated nodes
    keep weight zero.
    """
    region = sorted(l_hop_set(view, seeds, depth))
    pos = {v: i for i, v in enumerate(region)}
    rows, cols, vals = [], [], []
    for v in region:
        deg = view.degree(v)
        denom = deg + 1 if include_self else deg
        if denom == 0:
            continue
        r = pos[v]
        if include_self:
            rows.append(r)
            cols.append(r)
            vals.append(1.0 / denom)
        for u in view.neighbors(v):
            c = pos.get(u)
            if c is not None:
                rows.append(r)
                cols.append(c)
                vals.append(1.0 / denom)
    P = sparse.csr_matrix((vals, (rows, cols)), shape=(len(region), len(region)))

    F = np.zeros((len(region), len(seeds)), dtype=np.float64)
    for j, s in enumerate(seeds):
        F[pos[s], j] = 1.0
    for _ in range(depth):
        F = P @ F
    return region, F


def score_approx(params, g_old, g_new, delta, depth=None, include_self=False):
    """Linear-surrogate influence scores.

    Attribute-only deltas push each feature change through the weight
    product and spread its norm with the propagation weights. Deltas with
    structural changes instead measure each changed node's exact first-layer
    drift and spread that. Either way no full forward pass over the ball is
    needed.
    """
    if depth is None:
        depth = params.layer_count
    seeds = sorted(delta.changed_nodes())
    if not seeds:
        return {}
    structural = bool(delta.new_nodes or delta.edge_adds or delta.edge_removes)
    if structural:
        h_new, _ = forward_batch(params, [(g_new, v) for v in seeds], upto=1)
        # seeds are sorted, so the ones the old snapshot has come first
        old_seeds = [v for v in seeds if v < g_old.n]
        h_old = np.zeros_like(h_new)
        if old_seeds:
            h_old[:len(old_seeds)], _ = forward_batch(
                params, [(g_old, v) for v in old_seeds], upto=1)
        change = np.linalg.norm(h_new - h_old, axis=1)
    else:
        wt = surrogate_weights(params)
        diffs = np.stack([np.asarray(new) - g_old.feature_row(nid)
                          for nid, new in sorted(delta.attr_changes)])
        change = np.linalg.norm(diffs @ wt, axis=1)

    region, F = _propagation_run(g_new, seeds, depth, include_self)
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
