"""Streaming attributed-graph store.

A graph stream is a sequence of snapshot deltas. Applying delta t to the
snapshot at time t-1 yields the snapshot at time t. Snapshots are immutable
after construction, so views handed to downstream consumers (scoring,
training, frozen replay entries) can never be corrupted by later stream
activity.
"""

import os
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


class GraphError(ValueError):
    """Raised on malformed deltas or stream files."""


_FEATURE_TOL = 1e-9

# Decimal places of the feature values in a features file.
FEATURE_DECIMALS = 10

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


def _check_feature_row(row, dim, what):
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or (dim is not None and row.shape[0] != dim):
        raise GraphError("%s: feature dimension mismatch (got %r, want %r)"
                         % (what, row.shape, dim))
    if row.size and not (row.min() >= -_FEATURE_TOL
                         and row.max() <= 1.0 + _FEATURE_TOL):
        raise GraphError("%s: feature values outside [0, 1]" % what)
    return row


class GraphState:
    """Immutable snapshot: adjacency, feature matrix, optional labels.

    Node ids are dense ints 0..n-1 in arrival order. Adjacency rows are
    sorted tuples, duplicate free and never contain the node itself; the
    next snapshot shares every row its delta leaves alone.
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
        pairs = list(delta.edge_adds) + list(delta.edge_removes)
        seen_pairs = set()
        for u, v in pairs:
            if u == v:
                raise GraphError("self loop (%d, %d) rejected" % (u, v))
            if not (0 <= u < total and 0 <= v < total):
                raise GraphError("edge (%d, %d) references unknown node" % (u, v))
            key = (min(u, v), max(u, v))
            if key in seen_pairs:
                raise GraphError("duplicate edge pair %r within one delta" % (key,))
            seen_pairs.add(key)

        # Only edge endpoints get new rows; every other row tuple is shared.
        adj = list(self._adj) + [()] * len(new_rows)
        rows = {w: set(adj[w]) for w in {w for pair in pairs for w in pair}}
        for u, v in delta.edge_adds:
            if v in rows[u]:
                raise GraphError("edge (%d, %d) already present" % (u, v))
            rows[u].add(v)
            rows[v].add(u)
        for u, v in delta.edge_removes:
            if v not in rows[u]:
                raise GraphError("removal of absent edge (%d, %d)" % (u, v))
            rows[u].remove(v)
            rows[v].remove(u)
        for v, nbrs in rows.items():
            adj[v] = tuple(sorted(nbrs))

        features = np.concatenate([
            self._features.reshape(n, dim),
            np.array(new_rows, dtype=np.float64).reshape(len(new_rows), dim)])
        labels = np.concatenate([self._labels,
                                 np.array(new_labels, dtype=np.int64)])

        attr_seen = set()
        for nid, feat in delta.attr_changes:
            if not (0 <= nid < total):
                raise GraphError("attribute change for unknown node %d" % nid)
            if nid in attr_seen:
                raise GraphError("node %d changed twice within one delta" % nid)
            attr_seen.add(nid)
            features[nid] = _check_feature_row(feat, dim,
                                               "attr change %d" % nid)

        return GraphState(adj, features, labels, delta.time)


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

    Holds the arrays a memory checkpoint stores: the sorted member ids
    (nodes), the member-to-member edges as (u, v) rows with u < v, and a
    read-only feature block in nodes order. Later stream updates cannot
    change what a replay entry trains on. Exposes the live snapshot's
    neighbors and feature_row reads, which a forward pass needs.
    """

    __slots__ = ("center", "depth", "nodes", "edges", "features",
                 "_adj", "_row")

    def __init__(self, center, depth, nodes, edges, features):
        self.center = center
        self.depth = depth
        self.nodes = tuple(nodes.tolist())
        self.edges = edges
        self.features = features
        features.setflags(write=False)
        # each member's neighbours: its run of the edges sorted both ways
        both = np.concatenate([edges, edges[:, ::-1]])
        both = both[np.lexsort((both[:, 1], both[:, 0]))]
        lo = np.searchsorted(both[:, 0], nodes).tolist()
        hi = np.searchsorted(both[:, 0], nodes, side="right").tolist()
        nbrs = both[:, 1].tolist()
        self._adj = {v: tuple(nbrs[a:b])
                     for v, a, b in zip(self.nodes, lo, hi)}
        self._row = {v: i for i, v in enumerate(self.nodes)}

    def neighbors(self, v):
        return self._adj[v]

    def feature_row(self, v):
        return self.features[self._row[v]]


def freeze_ego(view, center, depth):
    """Copy the center's depth-hop neighborhood out of a live snapshot.

    Edges between two boundary nodes are kept: they sit inside the center's
    receptive field and affect boundary representations at smaller depths.
    """
    nodes = np.array(sorted(l_hop_set(view, [center], depth)), dtype=np.int64)
    rows = [view.neighbors(v) for v in nodes.tolist()]
    src = np.repeat(nodes, [len(r) for r in rows])
    dst = np.fromiter(chain.from_iterable(rows), np.int64, len(src))
    keep = (src < dst) & np.isin(dst, nodes)
    return EgoNet(center, depth, nodes,
                  np.stack([src[keep], dst[keep]], axis=1),
                  view.feature_matrix()[nodes])


# ---------------------------------------------------------------------------
# Stream files
#
# edges file:    "u v t" per line, "u v t -" marks removal of (u, v) at step t
# features file: line i holds the feature row of node i, values in [0, 1]
# labels file:   "node_id label step" per line, label -1 for unlabeled,
#                step is the node's arrival step
# schedule file: "step node_count" per line; when present it assigns arrival
#                steps to nodes in id order and overrides the labels file
# Node ids arrive in non-negative, non-decreasing steps.
# ---------------------------------------------------------------------------

def _parse_error(path, lineno, msg):
    return GraphError("%s:%d: %s" % (os.path.basename(path), lineno, msg))


def _records(path, arity, usage, conv):
    """Yield (line number, conv(fields)) for each non-blank line of a file.

    arity holds the allowed field counts; None asks every line for as many
    fields as the first. A wrong count, or a ValueError from conv, raises a
    GraphError that names the file and line.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            arity = arity or (len(parts),)
            try:
                if len(parts) not in arity:
                    raise ValueError("expected %s" % usage)
                record = conv(parts)
            except ValueError as exc:
                raise _parse_error(path, lineno, exc) from None
            yield lineno, record


def _ints(parts):
    return [int(x) for x in parts]


def _edge_fields(parts):
    removal = len(parts) == 4
    if removal and parts[3] != "-":
        raise ValueError("a fourth field must be '-'")
    return int(parts[0]), int(parts[1]), int(parts[2]), removal


_ORDER = "arrival steps must be non-negative and non-decreasing in node id"


def load_stream(edges_path, features_path, labels_path, schedule_path=None):
    """Parse stream files into the delta sequence that replays the graph."""
    records = list(_records(
        features_path, None, "as many values as the first row",
        lambda parts: np.array([float(x) for x in parts])))
    features = [row for _, row in records]
    n = len(features)
    if n:
        stacked = np.array(features)
        bad = np.flatnonzero(~((stacked >= -_FEATURE_TOL)
                               & (stacked <= 1.0 + _FEATURE_TOL)).all(axis=1))
        if bad.size:
            raise _parse_error(features_path, records[bad[0]][0],
                               "feature values outside [0, 1]")

    labels = {}
    for lineno, (nid, lab, step) in _records(
            labels_path, (3,), "'node_id label step'", _ints):
        if not 0 <= nid < n:
            raise _parse_error(labels_path, lineno,
                               "node %d has no feature row" % nid)
        if nid in labels:
            raise _parse_error(labels_path, lineno,
                               "node %d listed twice" % nid)
        labels[nid] = (lab, step, lineno)
    if len(labels) < n:
        raise GraphError("labels file covers %d of %d nodes (first missing: %d)"
                         % (len(labels), n, min(set(range(n)) - set(labels))))

    steps = 0
    if schedule_path is not None and os.path.exists(schedule_path):
        arrival = []
        for lineno, (step, count) in _records(
                schedule_path, (2,), "'step node_count'", _ints):
            if step < max(steps - 1, 0):
                raise _parse_error(schedule_path, lineno,
                                   "step %d: %s" % (step, _ORDER))
            if count < 0:
                raise _parse_error(schedule_path, lineno, "negative count")
            if len(arrival) + count > n:
                raise _parse_error(schedule_path, lineno,
                                   "schedule assigns more nodes than exist")
            arrival += [step] * count
            steps = step + 1  # a step may bring no nodes
        if len(arrival) != n:
            raise GraphError("schedule covers %d of %d nodes"
                             % (len(arrival), n))
    else:
        arrival = [labels[v][1] for v in range(n)]
        early = np.flatnonzero(np.diff(arrival, prepend=0) < 0)
        if early.size:
            v = int(early[0])
            raise _parse_error(labels_path, labels[v][2], "node %d at step %d: %s"
                               % (v, arrival[v], _ORDER))

    # An add of an edge that is already present, from an earlier step or
    # an earlier line, is dropped when the deltas are assembled in step
    # order; a removal makes the edge absent again.
    edge_adds = {}
    edge_removes = {}
    for lineno, (u, v, t, removal) in _records(
            edges_path, (3, 4), "'u v t' or 'u v t -'", _edge_fields):
        if u == v:
            raise _parse_error(edges_path, lineno, "self loop")
        if not (0 <= u < n and 0 <= v < n):
            raise _parse_error(edges_path, lineno, "unknown node id")
        if arrival[u] > t or arrival[v] > t:
            raise _parse_error(edges_path, lineno,
                               "edge references a node arriving after step %d" % t)
        (edge_removes if removal else edge_adds).setdefault(t, []).append(
            (min(u, v), max(u, v)))

    steps = max([steps, *(t + 1 for t in
                          [*arrival[-1:], *edge_adds, *edge_removes])])
    starts = np.searchsorted(arrival, np.arange(steps + 1)).tolist()

    deltas = []
    present = set()
    for t in range(steps):
        new_nodes = tuple((v, features[v],
                           None if labels[v][0] < 0 else labels[v][0])
                          for v in range(starts[t], starts[t + 1]))
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


def write_stream(deltas, out_dir):
    """Emit the stream file set for a delta sequence. Inverse of load_stream.

    Feature rows are written with FEATURE_DECIMALS decimal places; callers
    that need byte-exact round-trips must quantize features to that
    precision before building the deltas. Attribute-change deltas have no
    file representation and are rejected.
    """
    os.makedirs(out_dir, exist_ok=True)
    fmt = "%%.%df" % FEATURE_DECIMALS

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
