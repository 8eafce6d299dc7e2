"""Synthetic graph streams with controlled pattern shifts.

Every step adds a cohort of nodes, classes alternating within the cohort.
Early steps wire each cohort internally: every same-class pair links with a
probability chosen so the classes reach distinct expected degrees. From the
structure shift on, arrivals instead join two communities, linking to the
recent community-phase cohorts with one probability for same-class pairs
and a much smaller one across classes. The two regimes never cross, and the
attachment window is bounded, so each cohort's neighborhood stops changing
once the window moves past it. From the attribute shift on, the first
feature dimension's mean jumps.

Feature rows are rescaled into [0, 1] by a fixed affine map that clips four
standard deviations beyond the dimension means, and quantized to the stream
file precision so written streams reload bit-identically.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .graph import FEATURE_DECIMALS, SnapshotDelta, write_stream


@dataclass(frozen=True)
class SynthConfig:
    steps: int = 24
    per_step: int = 128
    feature_dim: int = 64
    classes: int = 2
    structure_shift_step: int = 8
    attribute_shift_step: int = 16
    er_degrees: tuple = (4.0, 10.0)
    p_in: float = 0.02
    p_out: float = 0.001
    community_window: int = 5
    attr_means: tuple = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        for name in ("steps", "per_step", "feature_dim", "classes"):
            if getattr(self, name) < 1:
                raise ValueError("%s out of range: %r"
                                 % (name, getattr(self, name)))
        if len(self.er_degrees) != self.classes:
            raise ValueError("er_degrees has %d entries but classes is %d; "
                             "need one expected degree per class"
                             % (len(self.er_degrees), self.classes))
        if not (0 <= self.p_out <= self.p_in <= 1):
            raise ValueError("need 0 <= p_out <= p_in <= 1")
        if self.community_window < 1:
            raise ValueError("attachment window must cover the new cohort")

    def clip_bound(self):
        """Half-range of the rescaling map: largest mean plus four sigmas."""
        return max(abs(m) for m in self.attr_means) + 4.0


def _rescale(cfg, raw):
    bound = cfg.clip_bound()
    mapped = 0.5 + np.clip(raw, -bound, bound) / (2.0 * bound)
    return np.round(mapped, FEATURE_DECIMALS)


def gen_step_attributes(cfg, t, count, rng):
    """Feature rows and class labels for one cohort."""
    mean = cfg.attr_means[0] if t < cfg.attribute_shift_step else cfg.attr_means[1]
    raw = rng.standard_normal((count, cfg.feature_dim))
    raw[:, 0] += mean
    classes = np.arange(count, dtype=np.int64) % cfg.classes
    return _rescale(cfg, raw), classes


def gen_step_structure(cfg, t, existing_ids, existing_classes, new_ids,
                       new_classes, rng):
    """Undirected edges brought by one cohort, as sorted (u, v) pairs.

    Before the structure shift the cohort is wired internally per class.
    Afterwards each new node is offered a link to every node of the last
    community_window community-phase cohorts (its own included), so the
    pre-shift cohorts stay as generated and old communities eventually
    freeze.
    """
    edges = []
    if t < cfg.structure_shift_step:
        for k in range(cfg.classes):
            ids = new_ids[new_classes == k]
            n = len(ids)
            if n < 2:
                continue
            p = min(1.0, cfg.er_degrees[k] / (n - 1))
            iu, ju = np.triu_indices(n, k=1)
            mask = rng.random(len(iu)) < p
            edges.extend(zip(ids[iu[mask]], ids[ju[mask]]))
    else:
        floor = max(cfg.structure_shift_step,
                    t - (cfg.community_window - 1)) * cfg.per_step
        recent = existing_ids >= floor
        all_ids = np.concatenate([existing_ids[recent], new_ids])
        all_classes = np.concatenate([existing_classes[recent], new_classes])
        base = int(recent.sum())
        for j, u in enumerate(new_ids):
            stop = base + j
            if stop == 0:
                continue
            probs = np.where(all_classes[:stop] == new_classes[j],
                             cfg.p_in, cfg.p_out)
            mask = rng.random(stop) < probs
            edges.extend((int(v), int(u)) for v in all_ids[:stop][mask])
    return sorted((int(min(u, v)), int(max(u, v))) for u, v in edges)


def generate(cfg):
    """The full delta sequence for a configuration."""
    rng = np.random.default_rng(cfg.seed)
    deltas = []
    existing_ids = np.zeros(0, dtype=np.int64)
    existing_classes = np.zeros(0, dtype=np.int64)
    for t in range(cfg.steps):
        new_ids = np.arange(len(existing_ids),
                            len(existing_ids) + cfg.per_step, dtype=np.int64)
        feats, new_classes = gen_step_attributes(cfg, t, cfg.per_step, rng)
        edges = gen_step_structure(cfg, t, existing_ids, existing_classes,
                                   new_ids, new_classes, rng)
        new_nodes = tuple((int(v), feats[j], int(new_classes[j]))
                          for j, v in enumerate(new_ids))
        deltas.append(SnapshotDelta(time=t, new_nodes=new_nodes,
                                    edge_adds=tuple(edges)))
        existing_ids = np.concatenate([existing_ids, new_ids])
        existing_classes = np.concatenate([existing_classes, new_classes])
    return deltas


def build_stream(cfg, out_dir):
    """Generate a stream and write it in the stream file formats.

    Also records the exact configuration and totals in manifest.json.
    Returns the file path map.
    """
    deltas = generate(cfg)
    paths = write_stream(deltas, out_dir)
    manifest = {
        "format_version": 1,
        "config": asdict(cfg),
        "class_assignment": "balanced alternation within each cohort",
        "nodes": int(cfg.steps * cfg.per_step),
        "edges": int(sum(len(d.edge_adds) for d in deltas)),
        "steps": int(cfg.steps),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["manifest"] = path
    return paths
