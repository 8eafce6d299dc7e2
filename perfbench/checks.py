"""Checks of a stream run against computations made apart from cgnn.

Each check returns a list of problems, empty when the output is right. The
reference computations here share no code with the package: the delta fold
keeps its own adjacency sets, the forward pass follows the layer rule
(mean over self and neighbours, weights plus bias, ReLU between layers) on
that adjacency, and F1 and accuracy are counted from the labels.
"""

import math

import numpy as np
from scipy import sparse

PROB_TOL = 1e-9
SCORE_TOL = 1e-12


class Fold:
    """The benchmark's own replay of a delta sequence."""

    def __init__(self):
        self.adj = []
        self.features = []
        self.labels = []

    def apply(self, delta):
        """Fold one delta in; returns the ids the delta touched."""
        touched = set()
        for nid, feat, lab in delta.new_nodes:
            if nid != len(self.adj):
                raise ValueError("node %d arrives out of order" % nid)
            self.adj.append(set())
            self.features.append(np.array(feat, dtype=np.float64))
            self.labels.append(-1 if lab is None else int(lab))
            touched.add(nid)
        for u, v in delta.edge_adds:
            self.adj[u].add(v)
            self.adj[v].add(u)
            touched.update((u, v))
        for u, v in delta.edge_removes:
            self.adj[u].remove(v)
            self.adj[v].remove(u)
            touched.update((u, v))
        for nid, feat in delta.attr_changes:
            self.features[nid] = np.array(feat, dtype=np.float64)
            touched.add(nid)
        return touched

    def ball(self, seeds, depth):
        """Nodes within depth hops of the seeds, seeds included."""
        ball = set(seeds)
        frontier = set(seeds)
        for _ in range(depth):
            frontier = {u for v in frontier for u in self.adj[v]} - ball
            ball |= frontier
        return ball


def fold_all(deltas):
    fold = Fold()
    for delta in deltas:
        fold.apply(delta)
    return fold


def check_snapshot(state, fold):
    """The final snapshot's neighbours, features and labels."""
    if state.n != len(fold.adj):
        return ["snapshot has %d nodes, the fold %d" % (state.n, len(fold.adj))]
    problems = []
    for v, nbrs in enumerate(fold.adj):
        if tuple(state.neighbors(v)) != tuple(sorted(nbrs)):
            problems.append("neighbours of node %d differ" % v)
            break
    if not np.array_equal(state.feature_matrix(), np.stack(fold.features)):
        problems.append("feature matrix differs")
    if not np.array_equal(state.labels_array(), np.array(fold.labels)):
        problems.append("labels differ")
    return problems


def reference_probs(weights, fold, ids):
    """Class probabilities of the given nodes with full neighbourhoods."""
    n = len(fold.adj)
    rows, cols, vals = [], [], []
    for v, nbrs in enumerate(fold.adj):
        members = nbrs | {v}
        rows.extend([v] * len(members))
        cols.extend(members)
        vals.extend([1.0 / len(members)] * len(members))
    mean = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    h = np.stack(fold.features)
    for layer, w in enumerate(weights):
        z = (mean @ h) @ w[:-1] + w[-1]
        h = np.maximum(z, 0.0) if layer < len(weights) - 1 else z
    z = h[ids]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_probs(probs, reference):
    if probs.shape != reference.shape:
        return ["probabilities have shape %r, the reference %r"
                % (probs.shape, reference.shape)]
    worst = float(np.abs(probs - reference).max())
    if worst > PROB_TOL:
        return ["probabilities differ from the reference by %.3g" % worst]
    return []


def ref_accuracy(y_true, y_pred):
    return sum(1 for t, p in zip(y_true, y_pred) if t == p) / len(y_true)


def ref_macro_f1(y_true, y_pred):
    y_true = [int(y) for y in y_true]
    y_pred = [int(y) for y in y_pred]
    scores = []
    for c in sorted(set(y_true) | set(y_pred)):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        scores.append(2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return sum(scores) / len(scores)


def check_eval(ids, y_true, y_pred, score, fold, ref_score):
    """One evaluation: the labels it compared against and its score."""
    problems = []
    if list(y_true) != [fold.labels[v] for v in sorted(ids)]:
        problems.append("evaluation labels differ from the stream's")
    want = ref_score(y_true, y_pred)
    if not math.isclose(score, want, rel_tol=SCORE_TOL, abs_tol=SCORE_TOL):
        problems.append("%s is %r, recomputed %r"
                        % (ref_score.__name__, score, want))
    return problems


def check_params(loaded, params):
    if loaded.activation != params.activation or \
            len(loaded.weights) != len(params.weights) or not all(
                np.array_equal(a, b)
                for a, b in zip(loaded.weights, params.weights)):
        return ["checkpointed parameters differ from the final ones"]
    return []


def _entry_key(entry):
    ego = entry.ego
    return (entry.label, entry.step, ego.center, ego.depth, ego.nodes,
            tuple(tuple(ego.neighbors(v)) for v in ego.nodes))


def check_memory(loaded, mem):
    if (loaded.capacity, loaded.strategy, loaded.alpha, loaded.seen) != \
            (mem.capacity, mem.strategy, mem.alpha, mem.seen):
        return ["checkpointed memory settings or counters differ"]
    if sorted(loaded.entries) != sorted(mem.entries):
        return ["checkpointed memory classes differ"]
    for k, entries in mem.entries.items():
        got = loaded.entries[k]
        if len(got) != len(entries):
            return ["checkpointed memory holds %d entries of class %d, not %d"
                    % (len(got), k, len(entries))]
        for a, b in zip(got, entries):
            if _entry_key(a) != _entry_key(b) or not all(
                    np.array_equal(a.ego.feature_row(v), b.ego.feature_row(v))
                    for v in b.ego.nodes):
                return ["checkpointed memory entry of node %d differs"
                        % b.ego.center]
    return []


def check_reports(model, reports, deltas, train_sets, memory_size, depth):
    """Properties each step's report must have; {step: [problems]}."""
    problems = {}
    fold = Fold()
    trainable = set()
    prev_replayed = 0
    for t, report in enumerate(reports):
        bad = []
        touched = fold.apply(deltas[t])
        trainable |= {v for v in train_sets[t] if fold.labels[v] >= 0}
        if len(report.per_epoch_loss) != len(report.loss_parts) and \
                report.loss_parts:
            bad.append("%d epoch losses for %d loss parts"
                       % (len(report.per_epoch_loss), len(report.loss_parts)))
        for total, parts in zip(report.per_epoch_loss, report.loss_parts):
            if not math.isclose(total, sum(parts), rel_tol=SCORE_TOL,
                                abs_tol=SCORE_TOL):
                bad.append("epoch loss %r is not the sum of %r"
                           % (total, parts))
                break
        if model == "continual":
            ball = len(fold.ball(touched, depth))
            if not math.ceil(0.8 * ball) <= report.influenced <= ball:
                bad.append("influenced %d outside [ceil(0.8*%d), %d]"
                           % (report.influenced, ball, ball))
            if not prev_replayed <= report.replayed <= memory_size:
                bad.append("replayed %d after %d, capacity %d"
                           % (report.replayed, prev_replayed, memory_size))
            prev_replayed = report.replayed
        elif model == "retrained" and report.trained != len(trainable):
            bad.append("trained %d of %d labelled training nodes"
                       % (report.trained, len(trainable)))
        elif model == "pretrained" and report.trained != (
                len(train_sets[0]) if t == 0 else 0):
            bad.append("pretrained model trained %d nodes at step %d"
                       % (report.trained, t))
        if bad:
            problems[t] = bad
    return problems
