"""Experiment harness: splits, evaluation, reports and parameter sweeps.

Each step's newly labeled nodes are split once into train and test sides;
every model in a comparison sees the same splits. Evaluation always uses
full neighborhoods, so two runs with the same seed produce identical metric
files (timing columns aside).
"""

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .graph import STREAM_FILES, load_stream
from .memory import STRATEGIES
from .metrics import accuracy, macro_f1
from .model import forward_batch, predict_batch
from .synth import SynthConfig, generate
from .train import DETECTORS, MODELS, REGULARIZERS, TrainConfig, run_stream

_SPLIT_TAG = 419

# axis -> (the TrainConfig field it sets; default values), or for
# view_combo (None; the fields each value sets)
_ABLATIONS = {
    "detector": ("detector", DETECTORS),
    "memory_strategy": ("memory_strategy", STRATEGIES),
    "memory_size": ("memory_size", (50, 100, 250, 500)),
    "lambda": ("lam", (0.0, 80.0, 200.0, 400.0)),
    "reg_kind": ("regularizer", REGULARIZERS),
    "view_combo": (None, {"none": {"use_replay": False, "lam": 0.0},
                          "data": {"use_replay": True, "lam": 0.0},
                          "model": {"use_replay": False},
                          "both": {"use_replay": True}}),
}
ABLATION_AXES = tuple(_ABLATIONS)
SCALE_AXES = ("network_size", "stream_size")


@dataclass
class ExperimentSpec:
    """What to run and where to put the results.

    Exactly one of data_dir (stream files on disk) or synth (generator
    configuration) supplies the stream.
    """

    cfg: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = None
    data_dir: str = None
    model: str = "continual"
    split: float = 0.7
    accumulate_test: bool = False
    cohort_steps: tuple = (0, 8)
    out_dir: str = None
    checkpoints: bool = False

    def __post_init__(self):
        if (self.data_dir is None) == (self.synth is None):
            raise ValueError("need exactly one stream source")
        if self.model not in MODELS:
            raise ValueError("unknown model %r" % self.model)
        if not (0.0 < self.split < 1.0):
            raise ValueError("split fraction must lie in (0, 1)")


def load_deltas(spec):
    if spec.data_dir is not None:
        deltas = load_stream(*(os.path.join(spec.data_dir, name + ".txt")
                               for name in STREAM_FILES))
    else:
        deltas = generate(spec.synth)
    dim = 0
    for delta in deltas:
        if delta.new_nodes:
            dim = len(delta.new_nodes[0][1])
            break
    return deltas, dim


def make_splits(deltas, split, seed):
    """Per-step train/test node id sets over newly labeled nodes.

    Each labeled node lands on exactly one side of exactly one step.
    """
    train_sets = []
    test_sets = []
    for delta in deltas:
        ids = [nid for nid, _f, lab in delta.new_nodes if lab is not None]
        rng = np.random.default_rng([seed, _SPLIT_TAG, delta.time])
        order = rng.permutation(len(ids))
        cut = int(split * len(ids) + 0.5)
        train_sets.append({ids[i] for i in order[:cut]})
        test_sets.append({ids[i] for i in order[cut:]})
    return train_sets, test_sets


def evaluate(params, state, ids):
    """Full-neighborhood predictions vs stored labels for the given nodes."""
    ids = sorted(ids)
    probs = predict_batch(params, [(state, v) for v in ids])
    y_pred = probs.argmax(axis=1)
    y_true = np.array([state.label(v) for v in ids], dtype=np.int64)
    return y_true, y_pred


_CSV_COLUMNS = ("model", "step", "cohort", "n", "macro_f1", "accuracy",
                "changed", "influenced", "trained", "train_seconds",
                "detection_seconds")
TIMING_COLUMNS = ("train_seconds", "detection_seconds")


def _metric_row(model, step, cohort, y_true, y_pred, report):
    return dict(zip(_CSV_COLUMNS, (
        model, step, cohort, len(y_true), macro_f1(y_true, y_pred),
        accuracy(y_true, y_pred), report.changed, report.influenced,
        report.trained, report.train_seconds, report.detection_seconds)))


def _format_cell(value):
    if isinstance(value, float):
        return "%.10f" % value
    return str(value)


def write_csv(rows, path, columns):
    """A header line, then one line per row dict; creates the directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in columns) + "\n")
    return path


def _write_outputs(out_dir, columns, rows, summary):
    """metrics.csv with the given columns plus summary.json, if out_dir."""
    if out_dir:
        write_csv(rows, os.path.join(out_dir, "metrics.csv"), columns)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary


def _run_one_model(model, deltas, dim, spec, train_sets, test_sets,
                   dump_embeddings=False):
    """Drive one model over the stream, collecting metric rows per step."""
    rows = []
    cohorts = sorted(set(spec.cohort_steps)) if dump_embeddings else []
    ckpt_dir = None
    if spec.checkpoints and spec.out_dir:
        ckpt_dir = os.path.join(spec.out_dir, "run", model)

    def hook(t, state, params, report):
        if spec.accumulate_test:
            pools = [("all", set().union(*test_sets[:t + 1]))]
        else:
            pools = [("all", test_sets[t])]
        pools += [("step%d" % c, test_sets[c]) for c in cohorts if c <= t]
        for cohort, ids in pools:
            if ids:
                y_true, y_pred = evaluate(params, state, ids)
                rows.append(_metric_row(model, t, cohort, y_true, y_pred,
                                        report))
        if dump_embeddings and spec.out_dir:
            tracked = sorted(set().union(*(test_sets[c] for c in cohorts
                                           if c <= t)))
            if tracked:
                reps, _ = forward_batch(params, [(state, v) for v in tracked],
                                        upto=params.layer_count - 1)
                columns = ["node_id"] + ["e%d" % i
                                         for i in range(reps.shape[1])]
                write_csv(
                    [dict(zip(columns, [v] + list(rep)))
                     for v, rep in zip(tracked, reps)],
                    os.path.join(spec.out_dir, "embeddings_step%d.csv" % t),
                    columns)

    run_stream(model, deltas, spec.cfg, dim, train_sets=train_sets,
               eval_hook=hook, checkpoint_dir=ckpt_dir)
    return rows


def _averages(rows):
    """Step-averaged scores and summed timings over metric rows."""
    return {
        "macro_f1_avg": float(np.mean([r["macro_f1"] for r in rows])),
        "accuracy_avg": float(np.mean([r["accuracy"] for r in rows])),
        "train_seconds_total": float(sum(r["train_seconds"] for r in rows)),
        "detection_seconds_total": float(
            sum(r["detection_seconds"] for r in rows)),
    }


def _compare(spec, models, dump_embeddings, summary_extra):
    """Run models on one stream and its splits; write rows and summary.

    The summary holds step-averaged headline numbers per (model, cohort).
    """
    deltas, dim = load_deltas(spec)
    train_sets, test_sets = make_splits(deltas, spec.split, spec.cfg.seed)
    rows = []
    for model in models or [spec.model]:
        rows.extend(_run_one_model(model, deltas, dim, spec, train_sets,
                                   test_sets, dump_embeddings))
    groups = {}
    for row in rows:
        groups.setdefault((row["model"], row["cohort"]), []).append(row)
    summary = {}
    for (model, cohort), group in sorted(groups.items()):
        summary.setdefault(model, {})[cohort] = dict(_averages(group),
                                                     steps=len(group))
    blob = dict(summary_extra, models=summary, config=asdict(spec.cfg))
    return rows, _write_outputs(spec.out_dir, _CSV_COLUMNS, rows, blob)


def run_experiment(spec, models=None):
    """Train and evaluate one or more models on the same stream and splits.

    Returns (rows, summary)."""
    return _compare(spec, models, False, {"kind": "experiment"})


def run_case_study(spec, models=None):
    """Track fixed arrival cohorts across the stream and dump embeddings.

    Per step, every tracked cohort's test nodes are re-evaluated with the
    current parameters, and their hidden representations are written to
    embeddings_step<t>.csv for external visualization.
    """
    return _compare(spec, models, True, {
        "kind": "case_study", "cohorts": sorted(set(spec.cohort_steps))})


def run_ablation(spec, axis, values=None):
    """Sweep one knob of the incremental model, everything else fixed.

    Returns one row per swept value with its step-averaged result.
    """
    if axis not in _ABLATIONS:
        raise ValueError("unknown ablation axis %r" % axis)
    key, defaults = _ABLATIONS[axis]
    values = tuple(defaults if values is None else values)
    if key is None and not set(values) <= set(defaults):
        raise ValueError("unknown %s value in %r" % (axis, values))
    # every swept configuration is built, and so checked, before any runs
    cfgs = [replace(spec.cfg, **(defaults[v] if key is None else {key: v}))
            for v in values]
    deltas, dim = load_deltas(spec)
    train_sets, test_sets = make_splits(deltas, spec.split, spec.cfg.seed)
    rows = []
    for value, cfg in zip(values, cfgs):
        # sweep values share the parent's output files
        sweep = replace(spec, cfg=cfg, out_dir=None, checkpoints=False)
        step_rows = _run_one_model("continual", deltas, dim, sweep,
                                   train_sets, test_sets)
        rows.append(dict(_averages(step_rows), axis=axis, value=str(value)))
    _write_outputs(spec.out_dir,
                   ("axis", "value", "macro_f1_avg", "accuracy_avg",
                    "train_seconds_total", "detection_seconds_total"),
                   rows, {"kind": "ablation", "axis": axis, "rows": rows})
    return rows


def run_scalability(spec, axis, sizes=None, models=("continual", "retrained")):
    """Wall-time scaling measurements.

    network_size: the accumulated graph grows while the per-step cohort is
    fixed; reports the final step's times per model. stream_size: total node
    count is fixed while the cohort size doubles; reports mean per-step
    times of the incremental model.
    """
    if axis not in SCALE_AXES:
        raise ValueError("unknown scaling axis %r" % axis)
    if spec.synth is None:
        raise ValueError("scaling runs generate their own streams")
    base = spec.synth
    if axis == "network_size":
        grid = [(steps, base.per_step) for steps in sizes or (4, 8, 16)]
    else:
        total = base.steps * base.per_step
        grid = [(max(1, total // cohort), cohort)
                for cohort in sizes or (64, 128, 256)]
    rows = []
    for steps, cohort in grid:
        synth = replace(base, steps=steps, per_step=cohort,
                        structure_shift_step=steps, attribute_shift_step=steps)
        deltas = generate(synth)
        train_sets, _ = make_splits(deltas, spec.split, spec.cfg.seed)
        for model in models:
            _p, _m, reports = run_stream(model, deltas, spec.cfg,
                                         synth.feature_dim,
                                         train_sets=train_sets)
            timed = reports[-1:] if axis == "network_size" else reports
            rows.append({
                "axis": axis, "model": model,
                "nodes": steps * cohort,
                "cohort": cohort,
                "train_seconds": float(np.mean(
                    [r.train_seconds for r in timed])),
                "detection_seconds": float(np.mean(
                    [r.detection_seconds for r in timed])),
            })
    _write_outputs(spec.out_dir,
                   ("axis", "model", "nodes", "cohort", "train_seconds",
                    "detection_seconds"),
                   rows, {"kind": "scalability", "axis": axis, "rows": rows})
    return rows
