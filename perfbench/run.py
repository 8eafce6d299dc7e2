"""Stream benchmark for cgnn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The benchmark makes the workload's
stream from the seed, then runs it through the calls `cgnn run` makes
(harness.make_splits, train.run_stream with a checkpoint directory,
harness.evaluate in the per-step hook) in whole rounds until S seconds
have passed, at least once, and checks every round's outputs. The last
line of standard output is one JSON object: correct, attempted and failed
steps, and the metrics, end to end with --trace 0 and per module with
--trace 1. Progress and a readable table go to standard error.
"""

import os
import sys

# One BLAS thread and one process: the benchmark's load is a single core.
# Only as a script, so that importing this module (as its tests do) leaves
# the importing process's BLAS threads alone.
if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if __name__ == "__main__" and not os.path.isdir(os.path.join(SRC, "cgnn")):
    sys.exit("perfbench: %s holds no cgnn sources; run from a source tree"
             % SRC)
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from cgnn import harness, memory, metrics, model, train  # noqa: E402

import checks  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_REPEATS = 5
RUNS_DIR = ".perfbench_runs"

END_TO_END = {"setup_s": "s", "stream_s": "s", "peak_rss_mb": "MB",
              "checkpoint_mb": "MB"}

# Inclusive seconds of these functions, "<module>.<function>_s".
_TIMED = ("graph.apply_delta", "graph.l_hop_set", "graph.freeze_ego",
          "model.prepare_batch", "model.loss_and_grad", "model.loss_only",
          "model.sgd_step", "model.predict_batch", "model.save_params",
          "ewc.estimate_fisher", "ewc.ewc_penalty", "memory.update_memory",
          "memory.save_memory", "train.checkpoint", "harness.evaluate")
# Call counts, "<module>.<function>_calls".
_CALLED = ("graph.apply_delta", "model.prepare_batch", "model.loss_and_grad",
           "model.loss_only")
_COUNTED = ("graph.ball_nodes", "graph.ego_nodes", "model.plan_rows",
            "model.predict_rows", "ewc.fisher_examples", "memory.offered",
            "memory.admitted", "memory.replay_entries")


@dataclasses.dataclass
class Eval:
    """One step's evaluations: the test pool and the t=0 cohort."""
    ids: set
    y_true: object
    y_pred: object
    f1: float
    y0_true: object
    y0_pred: object
    acc0: float


@dataclasses.dataclass
class Round:
    """One pass over the stream and what it produced."""
    stream_s: float = 0.0
    step_s: list = dataclasses.field(default_factory=list)
    evals: list = dataclasses.field(default_factory=list)
    reports: list = dataclasses.field(default_factory=list)
    state: object = None
    params: object = None
    mem: object = None
    raised: bool = False


def train_config(wl, seed):
    cfg = train.TrainConfig(seed=seed)
    if wl.full_batch:
        cfg = dataclasses.replace(cfg, batch_size=1 << 30)
    return cfg


def run_round(wl, inputs, cfg, ckpt_dir):
    """Run the stream once, evaluating every step; time it from outside."""
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    gc.collect()
    rnd = Round()
    cohort0 = inputs.test_sets[0]
    mark = [0.0]

    def hook(t, state, params, report):
        ids = (set().union(*inputs.test_sets[:t + 1]) if wl.accumulate
               else inputs.test_sets[t])
        y, p = harness.evaluate(params, state, ids)
        y0, p0 = harness.evaluate(params, state, cohort0)
        rnd.evals.append(Eval(ids, y, p, metrics.macro_f1(y, p), y0, p0,
                              metrics.accuracy(y0, p0)))
        rnd.reports.append(report)
        rnd.state, rnd.params = state, params
        now = time.perf_counter()
        rnd.step_s.append(now - mark[0])
        mark[0] = now

    start = mark[0] = time.perf_counter()
    try:
        rnd.params, rnd.mem, _ = train.run_stream(
            wl.model, inputs.deltas, cfg, inputs.dim,
            train_sets=inputs.train_sets, eval_hook=hook,
            checkpoint_dir=ckpt_dir)
    except Exception:
        traceback.print_exc()
        rnd.raised = True
    rnd.stream_s = time.perf_counter() - start
    return rnd


def check_round(wl, inputs, cfg, rnd, ckpt_dir, fold):
    """Problems per finished step of a round; fold is the stream's fold."""
    problems = checks.check_reports(wl.model, rnd.reports, inputs.deltas,
                                    inputs.train_sets, cfg.memory_size,
                                    cfg.layers)
    for t, ev in enumerate(rnd.evals):
        bad = (checks.check_eval(ev.ids, ev.y_true, ev.y_pred, ev.f1, fold,
                                 checks.ref_macro_f1)
               + checks.check_eval(inputs.test_sets[0], ev.y0_true,
                                   ev.y0_pred, ev.acc0, fold,
                                   checks.ref_accuracy))
        if bad:
            problems.setdefault(t, []).extend(bad)
    if rnd.raised:
        return problems

    last = len(inputs.deltas) - 1
    ids = sorted(rnd.evals[last].ids)
    probs = model.predict_batch(rnd.params, [(rnd.state, v) for v in ids])
    bad = checks.check_snapshot(rnd.state, fold)
    bad += checks.check_probs(
        probs, checks.reference_probs(rnd.params.weights, fold, ids))
    if list(probs.argmax(axis=1)) != list(rnd.evals[last].y_pred):
        bad.append("last evaluation's predictions are not the argmax of "
                   "predict_batch")
    bad += checks.check_params(
        model.load_params(rnd.reports[last].checkpoint_path), rnd.params)
    if wl.model == "continual":
        bad += checks.check_memory(
            memory.load_memory(os.path.join(ckpt_dir, "step%d.mem" % last)),
            rnd.mem)
    if bad:
        problems.setdefault(last, []).extend(bad)
    return problems


def _tail(values):
    """The last quarter of a round's step times, where the graph is
    largest."""
    return values[len(values) - max(1, len(values) // 4):]


def per_layer(setup_traces, tracer, rnd, untraced):
    """Module metrics of the traced round rnd; set-up metrics from the
    traced set-ups; step times from the untraced rounds."""
    out = {}
    for layer in LAYERS:
        out[layer + ".busy_s"] = (tracer.busy[layer], "s")
    for fn in _TIMED:
        out[fn + "_s"] = (tracer.seconds[fn], "s")
    for fn in _CALLED:
        out[fn + "_calls"] = (tracer.calls[fn], "count")
    for what in _COUNTED:
        out[what] = (tracer.counts[what], "count")
    out["graph.load_stream_s"] = (statistics.median(
        t.seconds["graph.load_stream"] for t in setup_traces), "s")
    out["synth.generate_s"] = (statistics.median(
        t.seconds["synth.generate"] for t in setup_traces), "s")
    influenced = sum(r.influenced for r in rnd.reports)
    trained = sum(r.trained for r in rnd.reports)
    out["detect.influenced"] = (influenced, "count")
    out["detect.trained_share"] = (
        trained / influenced if influenced else 0.0, "ratio")
    # Model quality, from the same round: a property of the seed more than
    # of the code, so it is reported here, without a bound.
    out["harness.f1_mean"] = (statistics.fmean(
        e.f1 for e in rnd.evals) if rnd.evals else 0.0, "ratio")
    out["harness.cohort0_acc_final"] = (
        rnd.evals[-1].acc0 if rnd.evals else 0.0, "ratio")
    # Step times cover a second or two each, too short a window to hold
    # steady on a shared machine, so they are reported here, unbounded.
    out["train.step_s_p50"] = (statistics.median(
        s for r in untraced for s in r.step_s), "s")
    out["train.tail_step_s_p50"] = (statistics.median(
        s for r in untraced for s in _tail(r.step_s)), "s")
    out["trace.stream_s"] = (rnd.stream_s, "s")
    out["trace.overhead_s"] = (
        rnd.stream_s - statistics.median(r.stream_s for r in untraced), "s")
    return out


def run(wl, seed, seconds, trace, work_dir):
    """Set up, run and check one workload; returns the result object."""
    cfg = train_config(wl, seed)
    ckpt_dir = os.path.join(work_dir, "checkpoints")
    setup_s = []
    setup_traces = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # one copy at a time, so as not to inflate peak RSS
        tracer = Tracer()
        start = time.perf_counter()
        with tracer if trace else contextlib.nullcontext():
            inputs = make_inputs(wl, seed, work_dir)
        setup_s.append(time.perf_counter() - start)
        setup_traces.append(tracer)
    print("%s seed %d: %d steps, %d nodes, set-up %.3fs"
          % (wl.name, seed, len(inputs.deltas),
             sum(len(d.new_nodes) for d in inputs.deltas),
             statistics.median(setup_s)), file=sys.stderr)

    rounds = []
    problems = []
    fold = None
    while not rounds or sum(r.stream_s for r in rounds) < seconds:
        rnd = run_round(wl, inputs, cfg, ckpt_dir)
        if fold is None:
            # Sampled before the benchmark's own fold of the stream exists.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            checkpoint_mb = sum(
                os.path.getsize(os.path.join(ckpt_dir, f))
                for f in os.listdir(ckpt_dir)) / 1e6
            fold = checks.fold_all(inputs.deltas)
        problems.append(check_round(wl, inputs, cfg, rnd, ckpt_dir, fold))
        rounds.append(rnd)
        print("round %d: %.3fs" % (len(rounds), rnd.stream_s),
              file=sys.stderr)

    if trace:
        tracer = Tracer()
        with tracer:
            rnd = run_round(wl, inputs, cfg, ckpt_dir)
        problems.append(check_round(wl, inputs, cfg, rnd, ckpt_dir, fold))
        values = per_layer(setup_traces, tracer, rnd, list(rounds))
        rounds.append(rnd)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "stream_s": statistics.median(r.stream_s for r in rounds),
            "peak_rss_mb": peak_rss_mb,
            "checkpoint_mb": checkpoint_mb,
        }
        values = {name: (v, END_TO_END[name]) for name, v in values.items()}

    # A step that raised, or never ran because an earlier one raised,
    # failed; a finished step with a problem failed and is wrong.
    steps = len(inputs.deltas)
    unfinished = sum(steps - len(r.reports) for r in rounds)
    wrong = sum(len(p) for p in problems)
    for p in problems:
        for t, bad in sorted(p.items())[:5]:
            print("step %d: %s" % (t, "; ".join(bad)), file=sys.stderr)
    return {
        "correct": wrong == 0,
        "attempted": steps * len(rounds),
        "failed": unfinished + wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work_dir = os.path.join(ROOT, RUNS_DIR, "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))
    for name, m in result["metrics"].items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]),
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
