"""Bounded replay memory over frozen node neighborhoods.

Slots are split across classes in proportion to how often each class has
appeared in the stream so far. Within a class, admission follows reservoir
sampling, optionally biased toward nodes whose neighborhoods mix labels,
since those carry more information about the decision boundary.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import EgoNet, freeze_ego

STRATEGIES = ("random", "hierarchical", "stepwise")


class MemoryError_(ValueError):
    pass


@dataclass
class MemoryEntry:
    ego: EgoNet
    label: int
    step: int


class ReplayMemory:
    """capacity: total slot budget. strategy: one of STRATEGIES.
    alpha: importance boost used by the stepwise strategy."""

    __slots__ = ("capacity", "strategy", "alpha", "entries", "seen")

    def __init__(self, capacity, strategy="stepwise", alpha=1.0):
        if capacity < 0:
            raise MemoryError_("capacity must be non-negative")
        if strategy not in STRATEGIES:
            raise MemoryError_("unknown strategy %r" % strategy)
        if not alpha >= 0:
            raise MemoryError_("alpha must be non-negative")
        self.capacity = capacity
        self.strategy = strategy
        self.alpha = alpha
        self.entries = {}
        self.seen = {}

    @property
    def size(self):
        return sum(len(v) for v in self.entries.values())

    @property
    def seen_total(self):
        return sum(self.seen.values())

    def classes(self):
        return sorted(self.seen)

    def copy(self):
        out = ReplayMemory(self.capacity, self.strategy, self.alpha)
        out.entries = {k: list(v) for k, v in self.entries.items()}
        out.seen = dict(self.seen)
        return out

    def target_slots(self):
        """Per-class slot budget tracking stream frequencies.

        Largest-remainder split of the capacity across seen classes; once
        the capacity covers all classes, every seen class keeps at least one
        slot, funded by the largest allocation.
        """
        classes = self.classes()
        total = self.seen_total
        if not classes or total == 0 or self.capacity == 0:
            return {k: 0 for k in classes}
        quota = {k: self.capacity * self.seen[k] / total for k in classes}
        alloc = {k: int(math.floor(quota[k])) for k in classes}
        leftover = self.capacity - sum(alloc.values())
        by_remainder = sorted(classes,
                              key=lambda k: (alloc[k] - quota[k], k))
        for k in by_remainder[:leftover]:
            alloc[k] += 1
        if self.capacity >= len(classes):
            for k in classes:
                if alloc[k] == 0:
                    donor = max(classes, key=lambda j: (alloc[j], -j))
                    alloc[donor] -= 1
                    alloc[k] = 1
        return alloc


def node_importance(view, v):
    """Fraction of the node's labeled neighbors holding a different label."""
    own = view.label(v)
    if own is None:
        raise MemoryError_("importance of an unlabeled node is undefined")
    disagree = 0
    labeled = 0
    for u in view.neighbors(v):
        lab = view.label(u)
        if lab is None:
            continue
        labeled += 1
        if lab != own:
            disagree += 1
    return disagree / labeled if labeled else 0.0


def replace_prob(mem, class_label, importance):
    """Admission probability for the latest candidate of a class.

    Reservoir base rate target_slots/seen, scaled up by importance and
    clamped to 1. The random strategy ignores class and importance and
    uses the pooled rate capacity/seen_total.
    """
    if mem.strategy == "random":
        total = mem.seen_total
        return min(1.0, mem.capacity / total) if total else 0.0
    seen = mem.seen.get(class_label, 0)
    if seen == 0:
        return 0.0
    slots = mem.target_slots().get(class_label, 0)
    boost = 1.0 + mem.alpha * importance if mem.strategy == "stepwise" else 1.0
    return min(1.0, slots / seen * boost)


def _evict_most_over(mem, targets):
    over = [(len(mem.entries[k]) - targets.get(k, 0), k)
            for k in mem.entries if mem.entries[k]]
    surplus, k = max(over)
    if surplus <= 0:
        raise MemoryError_("no surplus class to evict from")
    oldest = min(range(len(mem.entries[k])),
                 key=lambda i: (mem.entries[k][i].step, i))
    mem.entries[k].pop(oldest)


def update_memory(mem, candidates, view, ego_depth, rng):
    """Offer labeled candidates to the memory, one by one in id order.

    Returns an updated copy; the input memory is untouched. Stream counters
    advance for every candidate whether or not it is admitted. Neighborhoods
    are frozen only at admission time.
    """
    out = mem.copy()

    def admit(v, label):
        out.entries[label].append(
            MemoryEntry(freeze_ego(view, v, ego_depth), label, view.time))

    for v in sorted(set(candidates)):
        label = view.label(v)
        if label is None:
            raise MemoryError_("candidate %d has no label" % v)
        out.seen[label] = out.seen.get(label, 0) + 1
        out.entries.setdefault(label, [])
        if out.capacity == 0:
            continue

        if out.strategy == "random":
            if out.size < out.capacity:
                admit(v, label)
            elif rng.random() < replace_prob(out, label, 0.0):
                flat = [(k, i) for k in sorted(out.entries)
                        for i in range(len(out.entries[k]))]
                k, i = flat[rng.integers(len(flat))]
                out.entries[k].pop(i)
                admit(v, label)
            continue

        targets = out.target_slots()
        slots = targets.get(label, 0)
        held = len(out.entries[label])
        if held < slots:
            if out.size >= out.capacity:
                _evict_most_over(out, targets)
            admit(v, label)
        elif slots > 0:
            importance = 0.0
            if out.strategy == "stepwise" and out.alpha != 0.0:
                importance = node_importance(view, v)
            if rng.random() < replace_prob(out, label, importance):
                out.entries[label].pop(int(rng.integers(held)))
                admit(v, label)
    return out


def replay_batch(mem):
    """All stored entries as (view, node, label) training triples."""
    out = []
    for k in sorted(mem.entries):
        for entry in mem.entries[k]:
            out.append((entry.ego, entry.ego.center, entry.label))
    return out


def save_memory(mem, path):
    """Lossless memory dump (.npz), format version 2. Inverse of load_memory.
    np.savez writes it, so a file name without .npz gets that suffix.

    Entry i, in class-major order, is stored as e{i}_meta (label, step,
    center, depth), e{i}_nodes, e{i}_edges, e{i}_feat and e{i}_rows. The
    file's row table is e0_feat, e1_feat, ... concatenated in entry order,
    and e{i}_rows gives each member's row in it. Ego-nets overlap, so
    e{i}_feat holds only the rows of entry i whose bits differ from the
    last row the file stored for that node; entry 0 stores all of its own.
    """
    entries = [e for k in sorted(mem.entries) for e in mem.entries[k]]
    payload = {
        "format_version": np.array(2, dtype=np.int64),
        "capacity": np.array(mem.capacity, dtype=np.int64),
        "strategy": np.array(mem.strategy),
        "alpha": np.array(mem.alpha, dtype=np.float64),
        "seen_classes": np.array(sorted(mem.seen), dtype=np.int64),
        "seen_counts": np.array([mem.seen[k] for k in sorted(mem.seen)],
                                dtype=np.int64),
        "entry_count": np.array(len(entries), dtype=np.int64),
    }
    if not entries:
        np.savez(path, **payload)
        return
    nodes = [np.array(e.ego.nodes, dtype=np.int64) for e in entries]
    # slot: a member's index among the distinct nodes of the whole memory
    ids, slots = np.unique(np.concatenate(nodes), return_inverse=True)
    bounds = np.cumsum([len(n) for n in nodes])[:-1]
    # each node's last stored row: its index in the row table, and its bits
    last = np.full(len(ids), -1, dtype=np.int64)
    last_bits = np.zeros((len(ids), entries[0].ego.features.shape[1]),
                         dtype=np.int64)
    stored = 0
    for i, (entry, slot) in enumerate(zip(entries, np.split(slots, bounds))):
        ego = entry.ego
        # raw bits, so that -0.0 and 0.0 stay distinct rows
        bits = ego.features.view(np.int64)
        rows = last[slot]
        new = (rows < 0) | (last_bits[slot] != bits).any(axis=1)
        fresh = np.count_nonzero(new)
        rows[new] = np.arange(stored, stored + fresh)
        stored += fresh
        last[slot[new]] = rows[new]
        last_bits[slot[new]] = bits[new]
        prefix = "e%d_" % i
        payload[prefix + "meta"] = np.array(
            [entry.label, entry.step, ego.center, ego.depth], dtype=np.int64)
        payload[prefix + "nodes"] = nodes[i]
        payload[prefix + "edges"] = ego.edges
        payload[prefix + "feat"] = ego.features[new]
        payload[prefix + "rows"] = rows
    np.savez(path, **payload)


def load_memory(path):
    """Inverse of save_memory. A malformed file raises a MemoryError_ that
    names it."""
    try:
        return _load_memory(path)
    except (KeyError, MemoryError_) as err:
        raise MemoryError_("%s: %s" % (path, err.args[0])) from None


def _load_memory(path):
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != 2:
            raise MemoryError_("memory dump version %d is not supported; "
                               "this reader reads version 2" % version)
        mem = ReplayMemory(int(data["capacity"]), str(data["strategy"]),
                           float(data["alpha"]))
        classes, counts = data["seen_classes"], data["seen_counts"]
        if len(classes) != len(counts) or (counts < 0).any():
            raise MemoryError_("seen_classes and seen_counts do not pair "
                               "each class with a non-negative count")
        for k, c in zip(classes, counts):
            mem.seen[int(k)] = int(c)
            mem.entries.setdefault(int(k), [])
        count = int(data["entry_count"])
        feats = [data["e%d_feat" % i] for i in range(count)]
        table = np.concatenate(feats) if feats else None
        stored = 0
        for idx in range(count):
            prefix = "e%d_" % idx
            label, step, center, depth = (int(x) for x in data[prefix + "meta"])
            if label not in mem.entries:
                raise MemoryError_("entry %d has label %d, which is not among "
                                   "seen_classes" % (idx, label))
            nodes, edges = data[prefix + "nodes"], data[prefix + "edges"]
            if (np.diff(nodes) <= 0).any() or center not in nodes:
                raise MemoryError_("entry %d does not list its nodes in "
                                   "increasing order with center %d among "
                                   "them" % (idx, center))
            if not np.isin(edges, nodes).all():
                raise MemoryError_("entry %d has an edge to a node outside "
                                   "its ego-net" % idx)
            rows = data[prefix + "rows"]
            stored += len(feats[idx])
            if len(rows) != len(nodes):
                raise MemoryError_("entry %d has %d feature rows for %d nodes"
                                   % (idx, len(rows), len(nodes)))
            if ((rows < 0) | (rows >= stored)).any():
                raise MemoryError_("entry %d has a row index outside the %d "
                                   "feature rows stored by entries 0..%d"
                                   % (idx, stored, idx))
            ego = EgoNet(center, depth, nodes, edges, table[rows])
            mem.entries[label].append(MemoryEntry(ego, label, step))
    return mem
