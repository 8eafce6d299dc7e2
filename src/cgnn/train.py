"""Incremental training loop and reference training modes.

One stream step: materialize the new snapshot, find the nodes whose
patterns the change disturbed, then fit the model on those nodes together
with the replay memory, under a quadratic penalty that anchors weights the
remembered patterns rely on. Afterwards the memory is offered the step's
training nodes.

Reference modes for comparison runs: "pretrained" fits only the first
snapshot, "online" keeps fitting the changed nodes, "single" refits from
scratch on the changed nodes, "retrained" refits from scratch on every
labeled node seen so far. All five run the same step function; a table
row per model says which parts of the step it uses.

Randomness is drawn from generators derived from (seed, purpose, step), so
a run continued from a checkpoint consumes exactly the streams the original
run would have.
"""

import os
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .detect import (ThresholdRule, score_approx, score_bfs, score_naive,
                     select_influenced)
from .ewc import estimate_fisher, ewc_penalty, uniform_importance
from .graph import GraphState, l_hop_set
from .memory import (STRATEGIES, ReplayMemory, replay_batch, save_memory,
                     update_memory)
from .model import (GnnParams, loss_and_grad, prepare_batch, save_params,
                    sgd_step)

MODELS = ("continual", "pretrained", "online", "single", "retrained")
DETECTORS = ("naive", "bfs", "approx")
REGULARIZERS = ("none", "l2", "ewc")

_INIT_TAG = 101
_STEP_TAG = 211


@dataclass
class TrainConfig:
    """Knobs for one run. Schedule defaults (lr, epochs, batch size) are
    implementation choices; override them per experiment."""

    hidden_dim: int = 64
    layers: int = 2
    fanout: int = 10
    lr: float = 0.01
    epochs: int = 20
    batch_size: int = 32
    detector: str = "approx"
    threshold_mode: str = "ratio"
    threshold_value: float = 0.8
    memory_size: int = 250
    memory_strategy: str = "stepwise"
    alpha: float = 1.0
    regularizer: str = "ewc"
    lam: float = 200.0
    use_replay: bool = True
    online_scope: str = "changed"
    seed: int = 0

    def __post_init__(self):
        for name, choices in (("detector", DETECTORS),
                              ("memory_strategy", STRATEGIES),
                              ("regularizer", REGULARIZERS),
                              ("online_scope", ("changed", "detector"))):
            if getattr(self, name) not in choices:
                raise ValueError("unknown %s %r" % (name, getattr(self, name)))
        ThresholdRule(self.threshold_mode, self.threshold_value)
        for name, ok in (("hidden_dim", self.hidden_dim >= 1),
                         ("layers", self.layers >= 1),
                         ("lr", self.lr > 0),
                         ("epochs", self.epochs >= 0),
                         ("batch_size", self.batch_size >= 1),
                         ("fanout", self.fanout is None or self.fanout >= 1),
                         ("memory_size", self.memory_size >= 0),
                         ("alpha", self.alpha >= 0),
                         ("lam", self.lam >= 0)):
            if not ok:
                raise ValueError("%s out of range: %r"
                                 % (name, getattr(self, name)))


@dataclass
class StepReport:
    step: int
    model: str
    changed: int = 0
    influenced: int = 0
    trained: int = 0
    replayed: int = 0
    per_epoch_loss: list = field(default_factory=list)
    loss_parts: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    detection_seconds: float = 0.0
    checkpoint_path: str = ""

    @property
    def train_seconds(self):
        return sum(self.epoch_seconds)


def _step_rng(cfg, step):
    return np.random.default_rng([cfg.seed, _STEP_TAG, step])


def _init_params(cfg, in_dim, out_dim, step):
    rng = np.random.default_rng([cfg.seed, _INIT_TAG, step])
    return GnnParams.init(in_dim, cfg.hidden_dim, max(out_dim, 1),
                          cfg.layers, rng=rng)


def detect_influenced(params, g_prev, g_t, delta, cfg):
    """Influenced-node set for one delta plus the wall time spent.

    The threshold is applied over the changed nodes and their depth-hop
    ball, whichever detector produced the scores, so detector choices stay
    comparable. Nodes that just arrived are influenced by definition.
    """
    new_ids = {nid for nid, _f, _l in delta.new_nodes}
    seeds = delta.changed_nodes()
    if not seeds:
        return set(), 0.0
    start = time.perf_counter()
    pool = l_hop_set(g_t, seeds, params.layer_count)
    if cfg.detector == "naive":
        raw = score_naive(params, g_prev, g_t, range(g_t.n))
    elif cfg.detector == "bfs":
        raw = score_bfs(params, g_prev, g_t, delta)
    else:
        raw = score_approx(params, g_prev, g_t, delta)
    rule = ThresholdRule(cfg.threshold_mode, cfg.threshold_value)
    pool_scores = {u: raw.get(u, 0.0) for u in sorted(pool)}
    influenced = select_influenced(pool_scores, rule) | new_ids
    return influenced, time.perf_counter() - start


def _train_epochs(params, fresh, replayed, fisher, cfg, rng):
    """SGD epochs over fresh plus replayed triples.

    Returns (params, per_epoch_loss, loss_parts, epoch_seconds). Each
    epoch reports the objective it stepped on, for every model: its parts
    are the summed fresh loss, the summed replay loss and the penalty, and
    its total is their sum. For a full batch they are taken at the epoch's
    starting parameters; for minibatches they are summed over the epoch's
    batches, each batch's penalty weighted by |batch|/N as the objective
    applies it.
    """
    entries = list(replayed) + list(fresh)
    losses = []
    parts = []
    seconds = []
    if not entries:
        return params, losses, parts, seconds
    penalized = fisher is not None and cfg.lam > 0
    # The objective sums per-node losses, so against a batch's mean loss
    # the anchor term enters at weight 1/total; applying it at full
    # strength every batch would make it len(entries) times stiffer.
    pscale = 1.0 / len(entries)

    # Neighborhoods are sampled once per step: full-batch schedules freeze
    # one plan, minibatch schedules freeze one random partition with a plan
    # per part and only reshuffle the visiting order each epoch.
    full = cfg.batch_size >= len(entries)
    order = np.arange(len(entries)) if full else rng.permutation(len(entries))
    batches = []
    for lo in range(0, len(order), cfg.batch_size):
        idx = order[lo:lo + cfg.batch_size]
        batch = [entries[i] for i in idx]
        bplan = prepare_batch(params.layer_count,
                              [(g, v) for g, v, _lab in batch],
                              cfg.fanout, rng)
        batches.append((batch, bplan, idx < len(replayed)))

    # Late in a stream the loss surface sharpens as margins grow, and a
    # step size that was fine for ten steps can start oscillating. A
    # full-batch epoch that fails to improve the objective is undone and
    # retried from the last good point at half the rate; minibatch epochs
    # only shrink the rate, since redoing a shuffled pass would change the
    # gradient noise it exists to provide. The next stream step starts
    # fresh at cfg.lr.
    step_lr = cfg.lr
    prev_total = None
    best = None
    for _epoch in range(cfg.epochs):
        start = time.perf_counter()
        l_new = l_data = l_model = weighted = 0.0
        for bi in [0] if full else rng.permutation(len(batches)):
            batch, bplan, from_memory = batches[bi]
            per_node, grads = loss_and_grad(params, batch, plan=bplan)
            loss = float(per_node.mean())
            pen = 0.0
            if penalized:
                pen, pgrads = ewc_penalty(params, fisher, cfg.lam)
                grads = [g + pscale * p for g, p in zip(grads, pgrads)]
            l_new += float(per_node[~from_memory].sum())
            l_data += float(per_node[from_memory].sum())
            l_model += pen * (len(batch) / len(entries))
            weighted += loss * len(batch)
            if full:
                total = loss + pscale * pen
                if best is not None and total >= best[0]:
                    step_lr = max(step_lr / 2.0, cfg.lr / 1024.0)
                    _, params, grads = best
                else:
                    best = (total, params, grads)
            params = sgd_step(params, grads, step_lr)
        if not full:
            total = weighted / len(entries)
            if prev_total is not None and total >= prev_total:
                step_lr = max(step_lr / 2.0, cfg.lr / 1024.0)
            prev_total = total
        seconds.append(time.perf_counter() - start)
        parts.append((l_new, l_data, l_model))
        losses.append(l_new + l_data + l_model)
    return params, losses, parts, seconds


@dataclass(frozen=True)
class _Mode:
    """How one model variant runs the shared step.

    reinit: fresh parameters every step, rather than once at the first.
    expand: grow the classifier when a step brings unseen classes.
    scope: the labels a step trains on. "influenced" runs detection and
        takes the influenced nodes among all training nodes so far; "step"
        takes the step's own training nodes, "first" those of step 0 only,
        "history" every training node so far.
    replay: train with the replay memory and the penalty, and offer the
        trained nodes to the memory afterwards.
    """

    reinit: bool
    expand: bool
    scope: str
    replay: bool = False


_MODES = {
    "continual": _Mode(reinit=False, expand=True, scope="influenced",
                       replay=True),
    "pretrained": _Mode(reinit=False, expand=False, scope="first"),
    "online": _Mode(reinit=False, expand=True, scope="step"),
    "single": _Mode(reinit=True, expand=False, scope="step"),
    "retrained": _Mode(reinit=True, expand=False, scope="history"),
}


def _mode(model, cfg):
    if model not in _MODES:
        raise ValueError("unknown model %r" % model)
    if model == "online" and cfg.online_scope == "detector":
        return replace(_MODES[model], scope="influenced")
    return _MODES[model]


def _step(model, params, mem, g_prev, delta, cfg, rng, train_nodes=None,
          step_train=()):
    """One stream step of any model. Returns (params, memory, snapshot,
    report).

    params None initializes them from the new snapshot. train_nodes, when
    given, is the set of nodes whose labels training may use so far;
    step_train the ones this step brought.
    """
    mode = _mode(model, cfg)
    g_t = g_prev.apply_delta(delta)
    if params is None or mode.reinit:
        params = _init_params(cfg, g_t.feature_dim, g_t.class_count(),
                              g_t.time)
    elif mode.expand and g_t.class_count() > params.out_dim:
        params = params.expand_classes(g_t.class_count())

    influenced = set()
    det_seconds = 0.0
    if mode.scope == "influenced":
        influenced, det_seconds = detect_influenced(params, g_prev, g_t,
                                                    delta, cfg)
        train_ids = sorted(
            v for v in influenced if g_t.label(v) is not None
            and (train_nodes is None or v in train_nodes))
    elif mode.scope == "history":
        train_ids = sorted(v for v in train_nodes if g_t.label(v) is not None)
    elif mode.scope == "first" and g_t.time != 0:
        train_ids = []
    else:
        train_ids = sorted(step_train)
    fresh = [(g_t, v, g_t.label(v)) for v in train_ids]

    replayed = []
    fisher = None
    if mode.replay:
        if cfg.use_replay:
            replayed = replay_batch(mem)
        if cfg.lam > 0:
            if cfg.regularizer == "ewc" and mem.size > 0:
                fisher = estimate_fisher(params, mem)
            elif cfg.regularizer == "l2":
                fisher = uniform_importance(params)

    params, losses, parts, seconds = _train_epochs(
        params, fresh, replayed, fisher, cfg, rng)
    if mode.replay:
        mem = update_memory(mem, train_ids, g_t, params.layer_count, rng)

    report = StepReport(step=g_t.time, model=model,
                        changed=len(delta.changed_nodes()),
                        influenced=len(influenced), trained=len(fresh),
                        replayed=len(replayed), per_epoch_loss=losses,
                        loss_parts=parts, epoch_seconds=seconds,
                        detection_seconds=det_seconds)
    return params, mem, g_t, report


def _atomic_save(save, obj, path):
    """save(obj, fh) into a temporary file beside path, then rename it.

    A save that fails leaves path as it was.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            save(obj, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _checkpoint(params, mem, out_dir, step):
    path = os.path.join(out_dir, "step%d.ckpt" % step)
    _atomic_save(save_params, params, path)
    if mem is not None:
        _atomic_save(save_memory, mem,
                     os.path.join(out_dir, "step%d.mem" % step))
    return path


def run_stream(model, deltas, cfg, feature_dim, train_sets=None,
               eval_hook=None, checkpoint_dir=None, start_step=0,
               init_params=None, init_mem=None):
    """Drive a model over a delta sequence.

    train_sets[t], when given, limits step t's label usage; otherwise every
    newly labeled node trains. eval_hook(t, snapshot, params, report) runs
    after each step. start_step with init_params (and init_mem for the
    incremental model) continues a checkpointed run; earlier deltas are
    replayed into the snapshot without training.

    Returns (params, memory, reports).
    """
    mode = _mode(model, cfg)
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)

    state = GraphState.empty(feature_dim)
    train_mask = set()
    for t in range(start_step):
        state = state.apply_delta(deltas[t])
        train_mask |= _step_train_set(deltas[t], train_sets, t)
    if start_step and (init_params is None or mode.replay and init_mem is None
                       or init_params.weights[0].shape[0] != feature_dim + 1):
        raise ValueError("continuing a run needs initial parameters taking "
                         "feature_dim inputs, and a replay model its memory")

    params = init_params
    mem = init_mem
    if mem is None:
        mem = ReplayMemory(cfg.memory_size if mode.replay else 0,
                           cfg.memory_strategy, cfg.alpha)
    reports = []

    for t in range(start_step, len(deltas)):
        step_train = _step_train_set(deltas[t], train_sets, t)
        train_mask |= step_train
        params, mem, state, report = _step(
            model, params, mem, state, deltas[t], cfg, _step_rng(cfg, t),
            train_mask, step_train)
        if checkpoint_dir:
            report.checkpoint_path = _checkpoint(
                params, mem if mode.replay else None, checkpoint_dir, t)
        reports.append(report)
        if eval_hook is not None:
            eval_hook(t, state, params, report)
    return params, mem, reports


def _step_train_set(delta, train_sets, t):
    if train_sets is not None:
        return set(train_sets[t])
    return {nid for nid, _f, lab in delta.new_nodes if lab is not None}
