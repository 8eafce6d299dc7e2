"""Streaming attributed-graph store.

A graph stream is a sequence of snapshot deltas. Applying delta t to the
snapshot at time t-1 yields the snapshot at time t. Snapshots are immutable
after construction, so views handed to downstream consumers (scoring,
training, frozen replay entries) can never be corrupted by later stream
activity.
"""

import bisect
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Raised on malformed deltas or stream files."""


_FEATURE_TOL = 1e-9

# The stream file set, each stored as <name>.txt in one directory.
STREAM_FILES = ("edges", "features", "labels", "schedule")


@dataclass(frozen=True, eq=False)
class SnapshotDelta:
    """One step's worth of graph changes.

    new_nodes holds (node_id, feature_row, label_or_None) triples; ids must
    continue the contiguous id range of the snapshot the delta applies to.
    Edges are undirected (u, v) pairs. attr_changes replace the full feature
    row of an existing node.
    """

    time: int
    new_nodes: tuple = ()
    edge_adds: tuple = ()
    edge_removes: tuple = ()
    attr_changes: tuple = ()

    def changed_nodes(self):
        """Ids touched by this delta: new nodes, edge endpoints, attr targets."""
        out = set()
        for nid, _feat, _lab in self.new_nodes:
            out.add(nid)
        for u, v in self.edge_adds:
            out.add(u)
            out.add(v)
        for u, v in self.edge_removes:
            out.add(u)
            out.add(v)
        for nid, _feat in self.attr_changes:
            out.add(nid)
        return out

    def is_empty(self):
        return not (self.new_nodes or self.edge_adds or self.edge_removes
                    or self.attr_changes)


def _check_feature_row(row, dim, what):
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or (dim is not None and row.shape[0] != dim):
        raise GraphError("%s: feature dimension mismatch (got %r, want %r)"
                         % (what, row.shape, dim))
    if row.size and (row.min() < -_FEATURE_TOL or row.max() > 1.0 + _FEATURE_TOL):
        raise GraphError("%s: feature values outside [0, 1]" % what)
    return row


class GraphState:
    """Immutable snapshot: adjacency, feature matrix, optional labels.

    Node ids are dense ints 0..n-1 in arrival order. Adjacency lists are
    sorted, duplicate free and never contain the node itself.
    """

    __slots__ = ("_adj", "_features", "_labels", "time")

    def __init__(self, adj, features, labels, time):
        self._adj = adj
        self._features = features
        self._features.setflags(write=False)
        self._labels = labels
        self._labels.setflags(write=False)
        self.time = time

    @classmethod
    def empty(cls, feature_dim):
        """Pre-stream snapshot. Applying the t=0 delta gives the t=0 graph."""
        return cls([], np.zeros((0, feature_dim), dtype=np.float64),
                   np.zeros(0, dtype=np.int64) - 1, -1)

    @property
    def n(self):
        return len(self._adj)

    @property
    def feature_dim(self):
        return self._features.shape[1]

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def edge_count(self):
        return sum(len(a) for a in self._adj) // 2

    def has_edge(self, u, v):
        return v in self._adj[u]

    def feature_row(self, v):
        return self._features[v]

    def feature_matrix(self):
        return self._features

    def label(self, v):
        lab = self._labels[v]
        return None if lab < 0 else int(lab)

    def labels_array(self):
        """Label per node, -1 where unlabeled."""
        return self._labels

    def labeled_nodes(self):
        return [int(v) for v in np.nonzero(self._labels >= 0)[0]]

    def class_count(self):
        return int(self._labels.max()) + 1 if (self._labels >= 0).any() else 0

    def apply_delta(self, delta):
        """Produce the next snapshot. Fails fast on any inconsistency."""
        if delta.time != self.time + 1:
            raise GraphError("delta time %d does not follow snapshot time %d"
                             % (delta.time, self.time))
        n = self.n
        dim = self.feature_dim

        new_rows = []
        new_labels = []
        for nid, feat, lab in delta.new_nodes:
            if nid != n + len(new_rows):
                raise GraphError("new node id %d breaks the contiguous id range" % nid)
            if lab is not None and lab < 0:
                raise GraphError("negative class label for node %d" % nid)
            new_rows.append(_check_feature_row(feat, dim if dim else None,
                                               "new node %d" % nid))
            new_labels.append(-1 if lab is None else int(lab))
        if new_rows and dim == 0:
            dim = new_rows[0].shape[0]
            for row in new_rows:
                _check_feature_row(row, dim, "new node")

        total = n + len(new_rows)
        adj = [list(a) for a in self._adj] + [[] for _ in new_rows]

        seen_pairs = set()
        for u, v in list(delta.edge_adds) + list(delta.edge_removes):
            if u == v:
                raise GraphError("self loop (%d, %d) rejected" % (u, v))
            if not (0 <= u < total and 0 <= v < total):
                raise GraphError("edge (%d, %d) references unknown node" % (u, v))
            key = (min(u, v), max(u, v))
            if key in seen_pairs:
                raise GraphError("duplicate edge pair %r within one delta" % (key,))
            seen_pairs.add(key)

        for u, v in delta.edge_adds:
            if v in adj[u]:
                raise GraphError("edge (%d, %d) already present" % (u, v))
            bisect.insort(adj[u], v)
            bisect.insort(adj[v], u)
        for u, v in delta.edge_removes:
            if v not in adj[u]:
                raise GraphError("removal of absent edge (%d, %d)" % (u, v))
            adj[u].remove(v)
            adj[v].remove(u)

        if new_rows:
            features = np.vstack([self._features.reshape(n, -1)] + [r[None, :] for r in new_rows]) \
                if n else np.vstack([r[None, :] for r in new_rows])
        else:
            features = self._features.copy()
        labels = np.concatenate([self._labels, np.asarray(new_labels, dtype=np.int64)]) \
            if new_labels else self._labels.copy()

        attr_seen = set()
        for nid, feat in delta.attr_changes:
            if not (0 <= nid < total):
                raise GraphError("attribute change for unknown node %d" % nid)
            if nid in attr_seen:
                raise GraphError("node %d changed twice within one delta" % nid)
            attr_seen.add(nid)
            features[nid] = _check_feature_row(feat, features.shape[1],
                                               "attr change %d" % nid)

        return GraphState([tuple(a) for a in adj], features, labels, delta.time)


def replay(deltas, feature_dim=0):
    """Fold a delta sequence into the final snapshot."""
    state = GraphState.empty(feature_dim)
    for delta in deltas:
        state = state.apply_delta(delta)
    return state


def l_hop_set(view, seeds, depth):
    """Nodes within depth hops of any seed (seeds included), plain BFS."""
    seen = set(seeds)
    frontier = deque((s, 0) for s in sorted(seen))
    while frontier:
        v, d = frontier.popleft()
        if d == depth:
            continue
        for u in view.neighbors(v):
            if u not in seen:
                seen.add(u)
                frontier.append((u, d + 1))
    return seen


class EgoNet:
    """Frozen depth-limited neighborhood of one node.

    Carries its own copies of adjacency rows and feature rows, so later
    stream updates cannot change what a replay entry trains on. Exposes the
    same read interface the live snapshot does.
    """

    __slots__ = ("center", "depth", "nodes", "center_label", "_adj", "_feat")

    def __init__(self, center, depth, nodes, center_label, adj, feat):
        self.center = center
        self.depth = depth
        self.nodes = nodes
        self.center_label = center_label
        self._adj = adj
        self._feat = feat

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def feature_row(self, v):
        return self._feat[v]

    def label(self, v):
        return self.center_label if v == self.center else None


def freeze_ego(view, center, depth):
    """Copy the center's depth-hop neighborhood out of a live snapshot.

    Edges between two boundary nodes are kept: they sit inside the center's
    receptive field and affect boundary representations at smaller depths.
    """
    members = l_hop_set(view, [center], depth)
    adj = {}
    feat = {}
    for v in members:
        adj[v] = tuple(u for u in view.neighbors(v) if u in members)
        row = np.array(view.feature_row(v), dtype=np.float64)
        row.setflags(write=False)
        feat[v] = row
    return EgoNet(center, depth, tuple(sorted(members)), view.label(center),
                  adj, feat)


# ---------------------------------------------------------------------------
# Stream files
#
# edges file:    "u v t" per line, "u v t -" marks removal of (u, v) at step t
# features file: line i holds the feature row of node i, values in [0, 1]
# labels file:   "node_id label step" per line, label -1 for unlabeled,
#                step is the node's arrival step
# schedule file: "step node_count" per line; when present it assigns arrival
#                steps to nodes in id order and overrides the labels file
# ---------------------------------------------------------------------------

def _parse_error(path, lineno, msg):
    return GraphError("%s:%d: %s" % (os.path.basename(path), lineno, msg))


def load_stream(edges_path, features_path, labels_path, schedule_path=None):
    """Parse stream files into the delta sequence that replays the graph."""
    features = []
    dim = None
    with open(features_path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                row = np.array([float(x) for x in parts], dtype=np.float64)
            except ValueError:
                raise _parse_error(features_path, lineno, "bad feature value")
            if dim is None:
                dim = row.shape[0]
            elif row.shape[0] != dim:
                raise _parse_error(features_path, lineno,
                                   "feature dimension mismatch")
            features.append(row)
    n = len(features)

    labels = {}
    with open(labels_path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise _parse_error(labels_path, lineno,
                                   "expected 'node_id label step'")
            try:
                nid, lab, step = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise _parse_error(labels_path, lineno, "bad integer field")
            if nid in labels:
                raise _parse_error(labels_path, lineno,
                                   "node %d listed twice" % nid)
            labels[nid] = (lab, step)
    missing = [v for v in range(n) if v not in labels]
    if missing:
        raise GraphError("labels file covers %d of %d nodes (first missing: %d)"
                         % (len(labels), n, missing[0]))

    steps = 0
    if schedule_path is not None and os.path.exists(schedule_path):
        arrival = np.zeros(n, dtype=np.int64)
        cursor = 0
        with open(schedule_path) as fh:
            for lineno, line in enumerate(fh, 1):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 2:
                    raise _parse_error(schedule_path, lineno,
                                       "expected 'step node_count'")
                step, count = int(parts[0]), int(parts[1])
                if count < 0:
                    raise _parse_error(schedule_path, lineno, "negative count")
                if cursor + count > n:
                    raise _parse_error(schedule_path, lineno,
                                       "schedule assigns more nodes than exist")
                arrival[cursor:cursor + count] = step
                cursor += count
                steps = max(steps, step + 1)  # a step may bring no nodes
        if cursor != n:
            raise GraphError("schedule covers %d of %d nodes" % (cursor, n))
    else:
        arrival = np.array([labels[v][1] for v in range(n)], dtype=np.int64)

    # An add of an edge that is already present, from an earlier step or
    # an earlier line, is dropped when the deltas are assembled in step
    # order; a removal makes the edge absent again.
    edge_adds = {}
    edge_removes = {}
    with open(edges_path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "-"):
                raise _parse_error(edges_path, lineno,
                                   "expected 'u v t' or 'u v t -'")
            try:
                u, v, t = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise _parse_error(edges_path, lineno, "bad integer field")
            if u == v:
                raise _parse_error(edges_path, lineno, "self loop")
            if not (0 <= u < n and 0 <= v < n):
                raise _parse_error(edges_path, lineno, "unknown node id")
            if arrival[u] > t or arrival[v] > t:
                raise _parse_error(edges_path, lineno,
                                   "edge references a node arriving after step %d" % t)
            key = (min(u, v), max(u, v))
            if len(parts) == 4:
                edge_removes.setdefault(t, []).append(key)
            else:
                edge_adds.setdefault(t, []).append(key)

    if n:
        steps = max(steps, int(arrival.max()) + 1)
    for t in list(edge_adds) + list(edge_removes):
        steps = max(steps, t + 1)

    order = np.argsort(arrival, kind="stable")
    by_step = {}
    for v in order:
        by_step.setdefault(int(arrival[v]), []).append(int(v))
    for t, ids in by_step.items():
        expected = ids[0]
        for v in ids:
            if v != expected:
                raise GraphError("arrival steps break contiguous node ids near %d" % v)
            expected += 1

    deltas = []
    next_id = 0
    present = set()
    for t in range(steps):
        ids = by_step.get(t, [])
        if ids and ids[0] != next_id:
            raise GraphError("step %d starts at node %d, expected %d"
                             % (t, ids[0], next_id))
        next_id += len(ids)
        new_nodes = tuple((v, features[v],
                           None if labels[v][0] < 0 else labels[v][0])
                          for v in ids)
        adds = []
        for key in edge_adds.get(t, []):
            if key not in present:
                present.add(key)
                adds.append(key)
        removes = tuple(sorted(edge_removes.get(t, [])))
        present.difference_update(removes)
        deltas.append(SnapshotDelta(time=t, new_nodes=new_nodes,
                                    edge_adds=tuple(sorted(adds)),
                                    edge_removes=removes))
    return deltas


def write_stream(deltas, out_dir, feature_decimals=10):
    """Emit the stream file set for a delta sequence. Inverse of load_stream.

    Feature rows are written with a fixed decimal precision; callers that
    need byte-exact round-trips must quantize features to that precision
    before building the deltas. Attribute-change deltas have no file
    representation and are rejected.
    """
    os.makedirs(out_dir, exist_ok=True)
    fmt = "%%.%df" % feature_decimals

    rows = []
    labels = []
    counts = []
    edge_lines = []
    for delta in deltas:
        if delta.attr_changes:
            raise GraphError("attribute changes have no stream-file form")
        counts.append("%d %d" % (delta.time, len(delta.new_nodes)))
        for nid, feat, lab in delta.new_nodes:
            if nid != len(rows):
                raise GraphError("non-contiguous node ids in stream")
            rows.append(" ".join(fmt % x for x in feat))
            labels.append("%d %d %d" % (nid, -1 if lab is None else lab, delta.time))
        for u, v in delta.edge_adds:
            edge_lines.append("%d %d %d" % (u, v, delta.time))
        for u, v in delta.edge_removes:
            edge_lines.append("%d %d %d -" % (u, v, delta.time))

    paths = {}
    for name, lines in zip(STREAM_FILES, (edge_lines, rows, labels, counts)):
        paths[name] = os.path.join(out_dir, name + ".txt")
        with open(paths[name], "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
    return paths
