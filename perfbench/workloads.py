"""The benchmark's workloads and the streams they run, made from a seed.

Every stream comes from cgnn's synthetic generator. The file workloads
write it with build_stream and read it back the way `cgnn run --data`
does; the churn workload adds edge removals, re-adds of earlier removals
and feature rewrites of older nodes on top of the generator's output and
passes the deltas in memory, since the stream files cannot carry
attribute changes.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from cgnn import graph, harness, synth

SPLIT = 0.7
_CHURN_TAG = 557


@dataclass(frozen=True)
class Workload:
    """model: the cgnn model variant. synth: SynthConfig overrides.
    from_files: write and reload the stream. churn: removals, re-adds and
    rewrites per step (0 for none). accumulate: evaluate the accumulated
    test pool, else each step's own test cohort. full_batch: train on all
    of a step's nodes in one batch."""

    name: str
    model: str
    synth: dict = field(default_factory=dict)
    from_files: bool = True
    churn: int = 0
    accumulate: bool = True
    full_batch: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("continual-default", "continual"),
    Workload("retrained-fullbatch", "retrained", full_batch=True),
    Workload("pretrained-churn", "pretrained", synth={"steps": 192},
             from_files=False, churn=32, accumulate=False),
)}


@dataclass
class Inputs:
    deltas: list
    dim: int
    train_sets: list
    test_sets: list


def make_inputs(wl, seed, work_dir):
    """Generate (and, for file workloads, write and reload) the stream,
    add churn and make the splits."""
    cfg = synth.SynthConfig(seed=seed, **wl.synth)
    if wl.from_files:
        stream_dir = os.path.join(work_dir, "stream")
        synth.build_stream(cfg, stream_dir)
        deltas, dim = harness.load_deltas(
            harness.ExperimentSpec(data_dir=stream_dir))
    else:
        deltas, dim = synth.generate(cfg), cfg.feature_dim
    if wl.churn:
        deltas = add_churn(deltas, wl.churn, seed)
    train_sets, test_sets = harness.make_splits(deltas, SPLIT, seed)
    return Inputs(deltas, dim, train_sets, test_sets)


class _EdgeBag:
    """Present edges, with O(1) removal and uniform sampling."""

    def __init__(self):
        self.edges = []
        self.index = {}

    def add(self, e):
        self.index[e] = len(self.edges)
        self.edges.append(e)

    def remove(self, e):
        i = self.index.pop(e)
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.index[last] = i


def add_churn(deltas, count, seed):
    """From step 1 on, add to each delta `count` removals of edges present
    before the step, the re-adds of the edges removed two steps earlier,
    and `count` feature rewrites of nodes that arrived before the step."""
    rng = np.random.default_rng([seed, _CHURN_TAG])
    dim = len(deltas[0].new_nodes[0][1])
    bag = _EdgeBag()
    removed = {}
    arrived = 0
    out = []
    for delta in deltas:
        t = delta.time
        removes = []
        rewrites = ()
        if t >= 1:
            picks = rng.choice(len(bag.edges), size=min(count, len(bag.edges)),
                               replace=False)
            removes = sorted(bag.edges[i] for i in picks)
            nodes = rng.choice(arrived, size=min(count, arrived),
                               replace=False)
            rewrites = tuple(
                (int(v), np.round(rng.random(dim), synth.FEATURE_DECIMALS))
                for v in sorted(nodes))
        readds = removed.pop(t - 2, [])
        for e in removes:
            bag.remove(e)
        adds = sorted(list(delta.edge_adds) + readds)
        for e in adds:
            bag.add(e)
        removed[t] = removes
        arrived += len(delta.new_nodes)
        out.append(graph.SnapshotDelta(
            time=t, new_nodes=delta.new_nodes, edge_adds=tuple(adds),
            edge_removes=tuple(removes), attr_changes=rewrites))
    return out
