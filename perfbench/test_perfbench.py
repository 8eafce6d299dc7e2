"""Tests of the benchmark itself: each check rejects a corrupted output, and
a small run of every workload finishes with correct outputs.

    PYTHONPATH=src python -m pytest perfbench
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import run  # first: puts src/ on the import path
import checks
import tracer
import workloads
from cgnn import graph, harness, memory, model

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
SMALL = {"steps": 6, "per_step": 24, "structure_shift_step": 2,
         "attribute_shift_step": 4}


def small(name):
    wl = workloads.WORKLOADS[name]
    synth = dict(SMALL, steps=8) if wl.churn else SMALL
    return dataclasses.replace(wl, synth=synth, churn=min(wl.churn, 4))


@pytest.fixture(scope="module")
def continual(tmp_path_factory):
    """One checked round of a small continual stream."""
    work = str(tmp_path_factory.mktemp("continual"))
    wl = small("continual-default")
    inputs = workloads.make_inputs(wl, 5, work)
    cfg = run.train_config(wl, 5)
    ckpt = work + "/checkpoints"
    rnd = run.run_round(wl, inputs, cfg, ckpt)
    assert run.check_round(wl, inputs, cfg, rnd, ckpt,
                           checks.fold_all(inputs.deltas)) == {}
    return wl, inputs, cfg, rnd, ckpt


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_finishes(tmp_path, name, trace):
    result = run.run(small(name), 3, 0, trace, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == small(name).synth["steps"] * (1 + trace)
    got = result["metrics"]
    with open(BENCHMARK) as fh:
        listed = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in got.items()} == {
        m["name"]: m["unit"] for m in listed}
    if trace:
        busy = sum(got[layer + ".busy_s"]["value"]
                   for layer in tracer.LAYERS)
        assert math.isclose(busy, got["trace.stream_s"]["value"],
                            rel_tol=0.05)


def test_tracer_restores_functions(continual):
    wl, inputs, cfg, _, ckpt = continual
    before = (harness.evaluate, graph.GraphState.apply_delta,
              model.forward_batch)
    with tracer.Tracer() as tr:
        assert harness.evaluate is not before[0]
        run.run_round(wl, inputs, cfg, ckpt)
    assert (harness.evaluate, graph.GraphState.apply_delta,
            model.forward_batch) == before
    assert tr.calls["graph.apply_delta"] >= len(inputs.deltas)
    assert tr.counts["memory.admitted"] <= tr.counts["memory.offered"]


def test_snapshot_check_rejects_a_flipped_edge(continual):
    _, inputs, _, rnd, _ = continual
    fold = checks.fold_all(inputs.deltas)
    assert checks.check_snapshot(rnd.state, fold) == []
    v = next(v for v, nbrs in enumerate(fold.adj) if nbrs)
    u = min(fold.adj[v])
    fold.adj[v].discard(u)
    fold.adj[u].discard(v)
    assert checks.check_snapshot(rnd.state, fold)
    fold.adj[v].add(u)
    fold.adj[u].add(v)
    fold.features[3] = fold.features[3] + 1e-12
    assert checks.check_snapshot(rnd.state, fold)


def test_prob_check_rejects_a_perturbed_probability(continual):
    _, inputs, _, rnd, _ = continual
    fold = checks.fold_all(inputs.deltas)
    ids = sorted(rnd.evals[-1].ids)
    probs = model.predict_batch(rnd.params, [(rnd.state, v) for v in ids])
    ref = checks.reference_probs(rnd.params.weights, fold, ids)
    assert checks.check_probs(probs, ref) == []
    probs[len(ids) // 2, 0] += 1e-8
    assert checks.check_probs(probs, ref)


def test_score_checks_reject_altered_scores(continual):
    _, inputs, _, rnd, _ = continual
    fold = checks.fold_all(inputs.deltas)
    ev = rnd.evals[-1]
    assert checks.check_eval(ev.ids, ev.y_true, ev.y_pred, ev.f1, fold,
                             checks.ref_macro_f1) == []
    assert checks.check_eval(ev.ids, ev.y_true, ev.y_pred, ev.f1 + 1e-9,
                             fold, checks.ref_macro_f1)
    flipped = ev.y_pred.copy()
    flipped[0] = 1 - flipped[0]
    assert checks.check_eval(ev.ids, ev.y_true, flipped, ev.f1, fold,
                             checks.ref_macro_f1)
    cohort0 = inputs.test_sets[0]
    assert checks.check_eval(cohort0, ev.y0_true, ev.y0_pred, ev.acc0, fold,
                             checks.ref_accuracy) == []
    assert checks.check_eval(cohort0, ev.y0_true, ev.y0_pred,
                             ev.acc0 + 1.0 / len(cohort0), fold,
                             checks.ref_accuracy)


def _rewrite(path, out, key, index):
    with np.load(path) as data:
        arrays = dict(data)
    arrays[key] = arrays[key].copy()
    arrays[key][index] += 1
    with open(out, "wb") as fh:
        np.savez(fh, **arrays)
    return out


def test_checkpoint_checks_reject_an_altered_weight(continual, tmp_path):
    _, inputs, _, rnd, ckpt = continual
    last = len(inputs.deltas) - 1
    path = rnd.reports[last].checkpoint_path
    assert checks.check_params(model.load_params(path), rnd.params) == []
    bad = _rewrite(path, str(tmp_path / "bad.ckpt"), "w0", (0, 0))
    assert checks.check_params(model.load_params(bad), rnd.params)

    mem_path = "%s/step%d.mem" % (ckpt, last)
    assert checks.check_memory(memory.load_memory(mem_path), rnd.mem) == []
    for key, index in (("e0_feat", (0, 0)), ("seen_counts", 0),
                       ("e0_meta", 1)):
        bad = _rewrite(mem_path, str(tmp_path / "bad.mem"), key, index)
        assert checks.check_memory(memory.load_memory(bad), rnd.mem), key


def test_report_checks_reject_broken_properties(continual):
    wl, inputs, cfg, rnd, _ = continual
    args = (inputs.deltas, inputs.train_sets, cfg.memory_size, cfg.layers)

    def broken(model_name, t, **change):
        reports = list(rnd.reports)
        reports[t] = dataclasses.replace(reports[t], **change)
        return checks.check_reports(model_name, reports, *args)

    assert checks.check_reports("continual", rnd.reports, *args) == {}
    fold = checks.Fold()
    for delta in inputs.deltas[:3]:
        touched = fold.apply(delta)
    ball = len(fold.ball(touched, cfg.layers))
    assert 2 in broken("continual", 2, influenced=ball + 1)
    assert 2 in broken("continual", 2, influenced=math.ceil(0.8 * ball) - 1)
    losses = list(rnd.reports[3].per_epoch_loss)
    losses[-1] += 1e-6
    assert 3 in broken("continual", 3, per_epoch_loss=losses)
    assert 4 in broken("continual", 4,
                       replayed=rnd.reports[3].replayed - 1)
    assert 4 in broken("continual", 4, replayed=cfg.memory_size + 1)
    trainable = len(set().union(*inputs.train_sets[:3]))
    assert 2 in broken("retrained", 2, trained=trainable + 1)
    assert 2 not in broken("retrained", 2, trained=trainable)
    assert 2 in broken("pretrained", 2, trained=1)
    assert 2 not in broken("pretrained", 2, trained=0)


def test_churn_removes_readds_and_rewrites():
    deltas = workloads.add_churn(
        workloads.synth.generate(workloads.synth.SynthConfig(seed=2, **SMALL)),
        4, 2)
    graph.replay(deltas)  # every delta is legal
    for t in range(3, len(deltas)):
        assert len(deltas[t].edge_removes) == 4
        assert len(deltas[t].attr_changes) == 4
        assert set(deltas[t - 2].edge_removes) <= set(deltas[t].edge_adds)
    assert all(v < t * SMALL["per_step"]
               for t, d in enumerate(deltas) for v, _ in d.attr_changes)
