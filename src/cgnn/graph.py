"""Streaming attributed-graph store.

A graph stream is a sequence of snapshot deltas. Applying delta t to the
snapshot at time t-1 yields the snapshot at time t, and costs what the
delta holds, not what the graph holds:

- Feature rows live in one append-only row store, a growable float64
  block that a snapshot shares with all its successors. A snapshot maps
  each node to its row id. New nodes append their rows; an attribute
  rewrite appends the new row and repoints its node. A written row never
  changes, so an older snapshot, a frozen ego-net or a sibling branch of
  the same parent keeps reading what it read when it was made. No row is
  reclaimed: the store holds a row per node plus one per rewrite of the
  stream so far, in a block of at most twice that many rows.
- Adjacency rows are sorted tuples; a delta rebuilds only the rows of its
  edge endpoints and shares every other row by identity.
- A delta's new rows, rewrites and edges are checked as arrays, all before
  anything is appended. A delta that fails a check is checked again one
  item at a time, so the error names the first offending node or edge.

Snapshots are immutable after construction, so views handed to
downstream consumers (scoring, training, frozen replay entries) can never
be corrupted by later stream activity.
"""

import contextlib
import os
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np


class GraphError(ValueError):
    """Raised on malformed deltas or stream files."""


_FEATURE_TOL = 1e-9

# Decimal places of the feature values in a features file.
FEATURE_DECIMALS = 10

# The stream file set, each stored as <name>.txt in one directory.
STREAM_FILES = ("edges", "features", "labels", "schedule", "attrs")


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


def _in_unit(values):
    """Whether every value lies in [0, 1], up to _FEATURE_TOL; NaN does not."""
    return bool(((values >= -_FEATURE_TOL)
                 & (values <= 1.0 + _FEATURE_TOL)).all())


def _check_feature_row(row, dim, what):
    try:
        row = np.asarray(row, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GraphError("%s: feature values are not numbers (%s)"
                         % (what, exc)) from None
    if row.ndim != 1 or (dim is not None and row.shape[0] != dim):
        raise GraphError("%s: feature dimension mismatch (got %r, want %r)"
                         % (what, row.shape, dim))
    if not _in_unit(row):
        raise GraphError("%s: feature values outside [0, 1]" % what)
    return row


def _row_block(rows, dim):
    """The rows as one (len(rows), dim) float64 block, or None unless each
    is a 1-D row of dim values in [0, 1]; dim None takes the first row's
    width."""
    if not rows:
        return np.zeros((0, dim or 0), dtype=np.float64)
    block = np.array(rows, dtype=np.float64)
    if block.ndim != 2 or dim not in (None, block.shape[1]):
        return None
    return block if _in_unit(block) else None


def _is_id(value):
    """Whether value is an integer, as a node id must be."""
    return isinstance(value, (int, np.integer))


def _id_block(ids, shape):
    """The ids as an int64 array of the given shape, or None unless each is
    an integer."""
    if not len(ids):
        return np.zeros(shape, dtype=np.int64)
    block = np.array(ids)
    if block.shape != shape or block.dtype.kind not in "biu":
        return None
    return block.astype(np.int64, copy=False)


def _member(sorted_codes, codes):
    """Whether each code occurs in the sorted array sorted_codes."""
    if not len(sorted_codes):
        return np.zeros(len(codes), dtype=bool)
    at = sorted_codes.searchsorted(codes)
    return sorted_codes.take(at, mode="clip") == codes


def _parse(delta, n, dim, adj):
    """A delta's checked parts, made with array checks: (new rows, their
    labels, next adjacency, rewritten ids, their rows). None when a check
    fails. dim None lets the new rows set the width."""
    new_nodes = delta.new_nodes
    k = len(new_nodes)
    if [nid for nid, _feat, _lab in new_nodes] != list(range(n, n + k)):
        return None
    labels = [lab for _nid, _feat, lab in new_nodes]
    if any(lab is not None and lab < 0 for lab in labels):
        return None
    new_rows = _row_block([feat for _nid, feat, _lab in new_nodes], dim)
    if new_rows is None:
        return None
    labels = np.array([-1 if lab is None else lab for lab in labels],
                      dtype=np.int64)

    # Edges as int64 codes: u * total + v for the directed pair (u, v).
    total = n + k
    adds = _id_block(delta.edge_adds, (len(delta.edge_adds), 2))
    removes = _id_block(delta.edge_removes, (len(delta.edge_removes), 2))
    if adds is None or removes is None:
        return None
    pairs = np.concatenate([adds, removes])
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    if len(pairs) and (lo.min() < 0 or hi.max() >= total
                       or (lo == hi).any()):
        return None
    keys = np.sort(lo * total + hi)
    if (keys[1:] == keys[:-1]).any():
        return None
    adj = list(adj) + [()] * k
    touched = np.unique(pairs)
    ids = touched.tolist()
    rows = [adj[w] for w in ids]
    src = np.repeat(touched, [len(row) for row in rows])
    codes = src * total + np.fromiter(chain.from_iterable(rows), np.int64,
                                      len(src))
    added = adds[:, 0] * total + adds[:, 1]
    removed = removes[:, 0] * total + removes[:, 1]
    if _member(codes, added).any() or not _member(codes, removed).all():
        return None

    m = len(delta.attr_changes)
    attr_ids = _id_block([nid for nid, _feat in delta.attr_changes], (m,))
    if attr_ids is None or m and (attr_ids.min() < 0
                                  or attr_ids.max() >= total
                                  or len(np.unique(attr_ids)) < m):
        return None
    attr_rows = _row_block([feat for _nid, feat in delta.attr_changes],
                           new_rows.shape[1] if dim is None else dim)
    if attr_rows is None:
        return None

    # Only edge endpoints get new rows; every other row tuple is shared.
    gone = np.sort(np.concatenate(
        [removed, removes[:, 1] * total + removes[:, 0]]))
    codes = np.sort(np.concatenate(
        [codes[~_member(gone, codes)], added,
         adds[:, 1] * total + adds[:, 0]]))
    starts = codes.searchsorted(touched * total).tolist()
    stops = codes.searchsorted((touched + 1) * total).tolist()
    nbrs = (codes % total).tolist()
    for w, a, b in zip(ids, starts, stops):
        adj[w] = tuple(nbrs[a:b])
    return new_rows, labels, adj, attr_ids, attr_rows


def _refuse(delta, n, dim, adj):
    """Raise the GraphError that names a delta's first fault.

    The checks of _parse, one item at a time, in the order new nodes, edge
    pairs, edge presence, attribute changes. A delta that _parse refuses
    fails one of them.
    """
    rows = []
    for nid, feat, lab in delta.new_nodes:
        if nid != n + len(rows):
            raise GraphError("new node id %d breaks the contiguous id range" % nid)
        if lab is not None and lab < 0:
            raise GraphError("negative class label for node %d" % nid)
        if lab is not None and lab > np.iinfo(np.int64).max:
            raise GraphError("class label of node %d does not fit int64" % nid)
        rows.append(_check_feature_row(feat, dim, "new node %d" % nid))
        dim = rows[0].shape[0]

    total = n + len(rows)
    seen_pairs = set()
    for u, v in chain(delta.edge_adds, delta.edge_removes):
        if not (_is_id(u) and _is_id(v)):
            raise GraphError("edge %r: endpoints are not integer node ids"
                             % ((u, v),))
        if u == v:
            raise GraphError("self loop (%d, %d) rejected" % (u, v))
        if not (0 <= u < total and 0 <= v < total):
            raise GraphError("edge (%d, %d) references unknown node" % (u, v))
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            raise GraphError("duplicate edge pair %r within one delta" % (key,))
        seen_pairs.add(key)
    for u, v in delta.edge_adds:
        if u < n and v in adj[u]:
            raise GraphError("edge (%d, %d) already present" % (u, v))
    for u, v in delta.edge_removes:
        if u >= n or v not in adj[u]:
            raise GraphError("removal of absent edge (%d, %d)" % (u, v))

    attr_seen = set()
    for nid, feat in delta.attr_changes:
        if not _is_id(nid):
            raise GraphError("attribute change for non-integer node id %r"
                             % (nid,))
        if not (0 <= nid < total):
            raise GraphError("attribute change for unknown node %d" % nid)
        if nid in attr_seen:
            raise GraphError("node %d changed twice within one delta" % nid)
        attr_seen.add(nid)
        _check_feature_row(feat, dim, "attr change %d" % nid)
    raise GraphError("delta %d failed a check of its arrays" % delta.time)


class _RowStore:
    """Append-only float64 feature rows, shared by a snapshot and its
    successors.

    Rows are appended after the filled ones and never written again, nor
    freed, since an older snapshot may read them. The block doubles when
    it is full, so it has at most twice the filled rows; rows is its
    read-only view.
    """

    __slots__ = ("_block", "rows", "fill")

    def __init__(self, dim):
        self._block = np.zeros((0, dim), dtype=np.float64)
        self.rows = self._block.view()
        self.rows.setflags(write=False)
        self.fill = 0

    def append(self, block):
        """Write a checked block after the filled rows; returns its row ids."""
        start, stop = self.fill, self.fill + len(block)
        if stop > len(self._block):
            grown = np.empty((max(stop, 2 * len(self._block)),
                              self._block.shape[1]))
            grown[:start] = self._block[:start]
            self._block = grown
            self.rows = grown.view()
            self.rows.setflags(write=False)
        self._block[start:stop] = block
        self.fill = stop
        return np.arange(start, stop, dtype=np.int64)


class GraphState:
    """Immutable snapshot: adjacency, feature rows, optional labels.

    Node ids are dense ints 0..n-1 in arrival order. Adjacency rows are
    sorted tuples, duplicate free and never contain the node itself; the
    next snapshot shares every row its delta leaves alone. Feature rows are
    read through the node's row id in the shared row store.
    """

    __slots__ = ("_adj", "_store", "_rowid", "_labels", "time")

    def __init__(self, adj, store, rowid, labels, time):
        self._adj = adj
        self._store = store
        self._rowid = rowid
        self._rowid.setflags(write=False)
        self._labels = labels
        self._labels.setflags(write=False)
        self.time = time

    @classmethod
    def empty(cls, feature_dim):
        """Pre-stream snapshot. Applying the t=0 delta gives the t=0 graph."""
        return cls([], _RowStore(feature_dim), np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.int64) - 1, -1)

    @property
    def n(self):
        return len(self._adj)

    @property
    def feature_dim(self):
        return self._store.rows.shape[1]

    def neighbors(self, v):
        return self._adj[v]

    def has_edge(self, u, v):
        return v in self._adj[u]

    def feature_row(self, v):
        return self._store.rows[self._rowid[v]]

    def feature_rows(self, nodes):
        """The feature rows of an int array of nodes, as a new block."""
        return self._store.rows[self._rowid[nodes]]

    def feature_matrix(self):
        """Every node's feature row, built anew: for tests and checks."""
        out = self._store.rows[self._rowid]
        out.setflags(write=False)
        return out

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
        # a store made without a width takes the first new rows' width
        dim = self.feature_dim if n or self.feature_dim else None
        try:
            parts = _parse(delta, n, dim, self._adj)
        except (TypeError, ValueError, OverflowError):
            parts = None
        if parts is None:
            _refuse(delta, n, dim, self._adj)
        new_rows, new_labels, adj, attr_ids, attr_rows = parts

        store, rowid, labels = self._store, self._rowid, self._labels
        if dim is None and len(new_rows):
            store = _RowStore(new_rows.shape[1])
        if len(new_rows) or len(attr_rows):
            rowid = np.concatenate([rowid, store.append(new_rows)])
            rowid[attr_ids] = store.append(attr_rows)
        if len(new_labels):
            labels = np.concatenate([labels, new_labels])
        return GraphState(adj, store, rowid, labels, delta.time)


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
    read-only feature block in nodes order, whose rows the checkpoint
    shares with other entries. Later stream updates cannot
    change what a replay entry trains on. Exposes the live snapshot's
    neighbors and feature_row(s) reads, which a forward pass needs.
    """

    __slots__ = ("center", "depth", "nodes", "edges", "features",
                 "_adj", "_ids")

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
        self._ids = nodes

    def neighbors(self, v):
        return self._adj[v]

    def feature_row(self, v):
        return self.features[self._index(v)]

    def feature_rows(self, nodes):
        """The feature rows of an int array of members, as a new block."""
        return self.features[self._index(nodes)]

    def _index(self, nodes):
        at = self._ids.searchsorted(nodes)
        if not np.array_equal(self._ids.take(at, mode="clip"), nodes):
            raise KeyError("not a member of the ego-net of %d" % self.center)
        return at


def freeze_ego(view, center, depth):
    """Copy the center's depth-hop neighborhood out of a live snapshot.

    The members are the nodes within depth hops. A forward pass of depth
    layers reads the neighbors only of the members within depth - 1 hops,
    the inner ones, so only the edges with an inner endpoint are kept: an
    inner member keeps all its neighbors, a boundary member only its inner
    ones.
    """
    inner = np.array(sorted(l_hop_set(view, [center], depth - 1))
                     if depth else [], dtype=np.int64)
    rows = [view.neighbors(v) for v in inner.tolist()]
    src = np.repeat(inner, [len(r) for r in rows])
    dst = np.fromiter(chain.from_iterable(rows), np.int64, len(src))
    # an edge between two inner members is listed from both ends
    keep = (src < dst) | ~np.isin(dst, inner)
    edges = np.stack([np.minimum(src, dst)[keep],
                      np.maximum(src, dst)[keep]], axis=1)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    nodes = np.union1d([center], dst)
    return EgoNet(center, depth, nodes, edges, view.feature_rows(nodes))


# ---------------------------------------------------------------------------
# Stream files
#
# edges file:    "u v t" per line, "u v t -" marks removal of (u, v) at step t
# features file: line i holds the feature row of node i, values in [0, 1]
# labels file:   "node_id label step" per line, label -1 for unlabeled,
#                step is the node's arrival step
# schedule file: "step node_count" per line; when present it assigns arrival
#                steps to nodes in id order and overrides the labels file
# attrs file:    "node step v1 ... vd" per line, when present: at the step,
#                the node's feature row is rewritten to v1 ... vd
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


def _attr_fields(parts):
    return int(parts[0]), int(parts[1]), np.array([float(x) for x in parts[2:]])


_ORDER = "arrival steps must be non-negative and non-decreasing in node id"


def _load_attrs(path, n, dim, arrival):
    """The rewrites of an attrs file: {step: {node: feature row}}."""
    attrs = {}
    for lineno, (nid, t, row) in _records(
            path, (dim + 2,), "'node step' and %d feature values" % dim,
            _attr_fields):
        if not 0 <= nid < n:
            raise _parse_error(path, lineno, "node %d has no feature row" % nid)
        if arrival[nid] > t:
            raise _parse_error(path, lineno, "node %d arrives after step %d"
                               % (nid, t))
        if not _in_unit(row):
            raise _parse_error(path, lineno, "feature values outside [0, 1]")
        if nid in attrs.setdefault(t, {}):
            raise _parse_error(path, lineno, "node %d rewritten twice at step %d"
                               % (nid, t))
        attrs[t][nid] = row
    return attrs


def load_stream(edges_path, features_path, labels_path, schedule_path=None,
                attrs_path=None):
    """Parse stream files into the delta sequence that replays the graph.

    The schedule and attrs files are read only if they exist.
    """
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

    attrs = {}
    if attrs_path is not None and os.path.exists(attrs_path):
        attrs = _load_attrs(attrs_path, n, len(features[0]) if n else 0,
                            arrival)

    steps = max([steps, *(t + 1 for t in
                          [*arrival[-1:], *edge_adds, *edge_removes, *attrs])])
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
        deltas.append(SnapshotDelta(
            time=t, new_nodes=new_nodes, edge_adds=tuple(sorted(adds)),
            edge_removes=removes,
            attr_changes=tuple(sorted(attrs.get(t, {}).items()))))
    return deltas


def write_stream(deltas, out_dir):
    """Emit the stream file set for a delta sequence. Inverse of load_stream.

    Feature rows are written with FEATURE_DECIMALS decimal places; callers
    that need byte-exact round-trips must quantize features to that
    precision before building the deltas. The attrs file is written only
    when a delta rewrites a feature row, and any earlier one is removed
    otherwise. A delta's rewrites load back in node order.
    """
    os.makedirs(out_dir, exist_ok=True)
    fmt = "%%.%df" % FEATURE_DECIMALS

    rows = []
    labels = []
    counts = []
    edge_lines = []
    attr_lines = []
    for delta in deltas:
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
        for nid, feat in delta.attr_changes:
            attr_lines.append("%d %d %s" % (nid, delta.time,
                                            " ".join(fmt % x for x in feat)))

    paths = {}
    for name, lines in zip(STREAM_FILES,
                           (edge_lines, rows, labels, counts, attr_lines)):
        paths[name] = os.path.join(out_dir, name + ".txt")
        if name == "attrs" and not lines:
            with contextlib.suppress(FileNotFoundError):
                os.remove(paths.pop(name))
            continue
        with open(paths[name], "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
    return paths
