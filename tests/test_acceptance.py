"""End-to-end acceptance checks.

Each numbered test exercises one advertised behavior of the package, from
gradient exactness up to the full streaming comparisons, and records a
one-line verdict; the verdicts are echoed in a terminal section after the
run. The streaming tests share cached runs, and their time budgets are
checked against the summed wall time of the runs they consume, so cache
hits cannot flatter the numbers.
"""

import time

import numpy as np
import pytest

from cgnn.detect import score_approx, score_bfs, score_naive
from cgnn.graph import GraphState, SnapshotDelta, l_hop_set
from cgnn.harness import evaluate, make_splits, run_scalability, ExperimentSpec
from cgnn.memory import ReplayMemory, update_memory
from cgnn.metrics import accuracy, macro_f1
from cgnn.model import GnnParams
from cgnn.synth import SynthConfig, generate
from cgnn.train import TrainConfig, run_stream

from conftest import make_graph
from helpers import grad_check, propagate_f

SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture
def verdict(request):
    """Record one pass/fail line and assert it."""
    def record(num, name, ok, detail):
        line = "criterion %d (%s): %s  [%s]" % (
            num, name, "PASS" if ok else "FAIL", detail)
        request.config.acceptance_lines.append(line)
        print(line)
        assert ok, line
    return record


# ---------------------------------------------------------------- stream runs

_DATA = {}
_RUNS = {}


def stream_data(seed):
    if seed not in _DATA:
        deltas = generate(SynthConfig(seed=seed))
        train_sets, test_sets = make_splits(deltas, 0.7, seed)
        _DATA[seed] = (deltas, train_sets, test_sets)
    return _DATA[seed]


def stream_run(model, seed, **overrides):
    """One full run on the default stream; cached per (model, seed, cfg).

    Returns mean macro-F1 over steps on the accumulated test pool, the
    per-step accuracy of the t=0 and t=8 arrival cohorts' test nodes, and
    the measured wall seconds.
    """
    key = (model, seed) + tuple(sorted(overrides.items()))
    if key in _RUNS:
        return _RUNS[key]
    deltas, train_sets, test_sets = stream_data(seed)
    cfg = TrainConfig(seed=seed, **overrides)
    f1s, v0, v8 = [], [], []
    cohorts = {}

    def hook(t, state, params, report):
        cohorts[t] = {v for v in test_sets[t] if state.label(v) is not None}
        pool = set().union(*(cohorts[s] for s in range(t + 1)))
        y, p = evaluate(params, state, pool)
        f1s.append(macro_f1(y, p))
        y0, p0 = evaluate(params, state, cohorts[0])
        v0.append(accuracy(y0, p0))
        if t >= 8:
            y8, p8 = evaluate(params, state, cohorts[8])
            v8.append(accuracy(y8, p8))

    start = time.perf_counter()
    run_stream(model, deltas, cfg, 64, train_sets=train_sets, eval_hook=hook)
    _RUNS[key] = {"f1": float(np.mean(f1s)), "v0": v0, "v8": v8,
                  "secs": time.perf_counter() - start}
    return _RUNS[key]


def shift_drop(series, at):
    """Accuracy lost from just before the shift to the dip right after."""
    return series[at - 1] - min(series[at], series[at + 1])


def holds_within_std(better, worse):
    """Mean ordering with slack of one standard deviation of the gap."""
    diff = np.asarray(better, dtype=float) - np.asarray(worse, dtype=float)
    return diff.mean() >= -diff.std()


# -------------------------------------------------------------- 1: gradients


def test_gradient_exactness(rng, verdict):
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        dim = int(rng.integers(3, 7))
        g, _ = make_graph(rng, int(rng.integers(8, 15)), 0.25, dim)
        params = GnnParams.init(dim, int(rng.integers(4, 9)),
                                int(rng.integers(2, 4)), layers=2, rng=rng)
        nodes = rng.choice(g.n, size=4, replace=False)
        batch = [(g, int(v), int(rng.integers(2))) for v in nodes]
        worst = max(worst, grad_check(params, batch, eps=1e-5))
    took = time.perf_counter() - start
    ok = worst < 1e-4 and took < 10.0
    verdict(1, "gradient exactness", ok,
            "max rel err %.2e over 20 configs, %.1fs" % (worst, took))


# -------------------------------------------------------------- 2: detectors


def random_change(rng, g):
    """Delta mixing attribute rewrites, new edges and one new node."""
    targets = rng.choice(g.n, size=3, replace=False)
    attrs = tuple((int(v), rng.random(g.feature_dim)) for v in targets)
    adds = set()
    for _ in range(3):
        u, v = int(rng.integers(g.n)), int(rng.integers(g.n))
        if u != v and not g.has_edge(u, v):
            adds.add((min(u, v), max(u, v)))
    node = (g.n, rng.random(g.feature_dim), int(rng.integers(2)))
    adds.add((int(rng.integers(g.n)), g.n))
    return SnapshotDelta(time=g.time + 1, new_nodes=(node,),
                         edge_adds=tuple(sorted(adds)), attr_changes=attrs)


def test_detector_agreement(rng, verdict):
    worst_pair = 0.0
    worst_lin = 0.0
    for trial in range(30):
        n = int(rng.integers(20, 101))
        dim = int(rng.integers(3, 6))
        g, _ = make_graph(rng, n, 3.0 / n, dim)
        delta = random_change(rng, g)
        g2 = g.apply_delta(delta)
        params = GnnParams.init(dim, 5, 2, layers=2, rng=rng)

        # same quantity from both exact scorers, up to batch-shape float
        # reassociation, which stays at the last-ulp scale
        exact = score_bfs(params, g, g2, delta)
        full = score_naive(params, g, g2, range(g2.n))
        ball = l_hop_set(g2, delta.changed_nodes(), 2)
        assert set(exact) == ball
        worst_pair = max(worst_pair,
                         max(abs(exact[u] - full[u]) for u in exact))
        worst_pair = max(worst_pair,
                         max((s for u, s in full.items() if u not in ball),
                             default=0.0))
        assert worst_pair <= 1e-12

        # surrogate is exact when there is nothing it has to linearize
        lin = GnnParams.init(dim, 0, 2, layers=1, activation="linear",
                             rng=rng)
        change = SnapshotDelta(
            time=g.time + 1,
            attr_changes=((int(rng.integers(g.n)), rng.random(dim)),))
        gl = g.apply_delta(change)
        approx = score_approx(lin, g, gl, change, include_self=True)
        naive = score_naive(lin, g, gl, sorted(approx))
        for u in approx:
            rel = abs(approx[u] - naive[u]) / max(abs(naive[u]), 1e-12)
            worst_lin = max(worst_lin, rel)
    ok = worst_pair <= 1e-12 and worst_lin < 1e-8
    verdict(2, "detector agreement", ok,
            "exact scorers and ball locality within %.1e on 30 graphs, "
            "surrogate rel err %.1e" % (worst_pair, worst_lin))


# ------------------------------------------------------------- 3: propagation


def dense_walk(g, include_self):
    A = np.zeros((g.n, g.n))
    for v in range(g.n):
        for u in g.neighbors(v):
            A[v, u] = 1.0
    if include_self:
        A += np.eye(g.n)
    deg = A.sum(axis=1)
    return np.divide(A, deg[:, None], out=np.zeros_like(A),
                     where=deg[:, None] > 0)


def test_propagation_matches_dense_oracle(rng, verdict):
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(8, 20))
        g, _ = make_graph(rng, n, 0.2, 2)
        seeds = sorted(rng.choice(n, size=3, replace=False).tolist())
        depth = int(rng.integers(1, 4))
        include_self = bool(rng.integers(2))
        P = dense_walk(g, include_self)
        E = np.zeros((n, len(seeds)))
        for j, s in enumerate(seeds):
            E[s, j] = 1.0
        want = np.linalg.matrix_power(P, depth) @ E
        got = propagate_f(g, seeds, depth, include_self=include_self)
        for v in range(n):
            for j, s in enumerate(seeds):
                worst = max(worst, abs(got.get((v, s), 0.0) - want[v, j]))
    ok = worst < 1e-10
    verdict(3, "propagation weights", ok,
            "max abs err %.1e vs dense walk powers on 20 graphs" % worst)


# --------------------------------------------------------------- 4: reservoir


def ring(n, label, dim=2, base=0, mean=0.5):
    nodes = tuple((base + v, np.full(dim, mean), label) for v in range(n))
    edges = tuple((base + v, base + (v + 1) % n) for v in range(n - 1))
    edges += ((base, base + n - 1),)
    return nodes, edges


def test_reservoir_distribution(verdict):
    n, m, trials = 10000, 100, 200
    nodes, edges = ring(n, label=0)
    g = GraphState.empty(2).apply_delta(
        SnapshotDelta(time=0, new_nodes=nodes, edge_adds=edges))
    counts = np.zeros(n)
    for t in range(trials):
        mem = ReplayMemory(capacity=m, strategy="stepwise", alpha=0.0)
        mem = update_memory(mem, range(n), g, 1, np.random.default_rng(t))
        for e in mem.entries[0]:
            counts[e.ego.center] += 1
    p = m / n
    sigma = np.sqrt(trials * p * (1 - p))
    within = float((np.abs(counts - trials * p) <= 3 * sigma).mean())

    # class-count spread: per-class quotas versus one pooled reservoir
    nodes0, edges0 = ring(40, label=0, mean=0.2)
    nodes1, edges1 = ring(20, label=1, base=40, mean=0.8)
    g2 = GraphState.empty(2).apply_delta(SnapshotDelta(
        time=0, new_nodes=nodes0 + nodes1,
        edge_adds=edges0 + edges1 + ((0, 40),)))
    hier_minor, rand_minor = [], []
    for t in range(500):
        mh = update_memory(ReplayMemory(10, "hierarchical"), range(60), g2,
                           1, np.random.default_rng(t))
        mr = update_memory(ReplayMemory(10, "random"), range(60), g2,
                           1, np.random.default_rng(t))
        hier_minor.append(len(mh.entries.get(1, [])))
        rand_minor.append(len(mr.entries.get(1, [])))
    vh, vr = float(np.var(hier_minor)), float(np.var(rand_minor))
    ok = within >= 0.99 and vh <= vr
    verdict(4, "reservoir distribution", ok,
            "%.1f%% of nodes within 3 sigma of binomial; class-count "
            "variance %.3f quota vs %.3f pooled" % (100 * within, vh, vr))


# ------------------------------------------------------------ 5: regularizer


def toy_stream():
    """Two separable classes, then a cohort that contradicts them."""
    feats = np.array([[0.1, 0.1], [0.15, 0.2], [0.2, 0.1], [0.1, 0.25],
                      [0.9, 0.9], [0.85, 0.8], [0.8, 0.9], [0.9, 0.75]])
    first = tuple((v, feats[v], int(v >= 4)) for v in range(8))
    ring0 = tuple((v, (v + 1) % 4) for v in range(4))
    ring1 = tuple((4 + v, 4 + (v + 1) % 4) for v in range(4))
    flipped = np.array([[0.12, 0.18], [0.18, 0.12], [0.88, 0.82],
                        [0.82, 0.88]])
    second = tuple((8 + j, flipped[j], int(j < 2)) for j in range(4))
    links = ((0, 8), (1, 9), (4, 10), (5, 11))
    return [SnapshotDelta(time=0, new_nodes=first,
                          edge_adds=ring0 + ring1),
            SnapshotDelta(time=1, new_nodes=second, edge_adds=links)]


def test_regularizer_reductions(verdict):
    deltas = toy_stream()
    base = dict(hidden_dim=4, fanout=None, lr=0.05, epochs=50,
                batch_size=64, memory_size=8, threshold_mode="abs",
                threshold_value=0.0, seed=3)

    zero = run_stream("continual", deltas, TrainConfig(
        regularizer="ewc", lam=0.0, **base), 2)[0]
    none = run_stream("continual", deltas, TrainConfig(
        regularizer="none", lam=0.0, **base), 2)[0]
    bitwise = all(np.array_equal(a, b)
                  for a, b in zip(zero.weights, none.weights))

    anchors = {}

    def keep(t, state, params, report):
        anchors[t] = [w.copy() for w in params.weights]

    frozen = run_stream("continual", deltas, TrainConfig(
        regularizer="ewc", lam=1e9, **base), 2, eval_hook=keep)[0]
    moved_frozen = max(np.abs(w - a).max()
                       for w, a in zip(frozen.weights, anchors[0]))
    moved_free = max(np.abs(w - a).max()
                     for w, a in zip(zero.weights, anchors[0]))
    ok = bitwise and moved_frozen < 1e-3 and moved_free > 1e-2
    verdict(5, "regularizer reductions", ok,
            "lam=0 bitwise equal: %s; 50-epoch drift %.1e frozen vs %.1e "
            "free" % (bitwise, moved_frozen, moved_free))


# ---------------------------------------------------- 6: forgetting at shifts


def test_forgetting_at_shifts(verdict):
    gap0, gap8, secs = [], [], 0.0
    for seed in SEEDS:
        cont = stream_run("continual", seed)
        onl = stream_run("online", seed)
        secs += cont["secs"] + onl["secs"]
        gap0.append(shift_drop(onl["v0"], 8) - shift_drop(cont["v0"], 8))
        gap8.append(shift_drop(onl["v8"][7:], 1) -
                    shift_drop(cont["v8"][7:], 1))
    g0, g8 = float(np.mean(gap0)), float(np.mean(gap8))
    ok = g0 >= 0.10 and g8 >= 0.10 and secs < 600
    verdict(6, "forgetting at shifts", ok,
            "extra drop vs incremental: %.3f at t=8 cohort V0, %.3f at "
            "t=16 cohort V8 (need 0.10); %.0fs of runs" % (g0, g8, secs))


# ------------------------------------------------------- 7: model comparison


def test_model_comparison(verdict):
    f1 = {}
    secs = 0.0
    for model in ("continual", "online", "single", "pretrained"):
        f1[model] = []
        for seed in SEEDS:
            r = stream_run(model, seed)
            f1[model].append(r["f1"])
            secs += r["secs"]
    f1["retrained"] = []
    for seed in SEEDS:
        r = stream_run("retrained", seed, batch_size=1 << 30)
        f1["retrained"].append(r["f1"])
        secs += r["secs"]

    ordered = sum(1 for i in range(len(SEEDS))
                  if f1["continual"][i] > f1["online"][i] >
                  f1["single"][i] > f1["pretrained"][i])
    gap = float(np.mean(f1["continual"]) - np.mean(f1["online"]))
    ratio = float(np.mean(f1["continual"]) / np.mean(f1["retrained"]))
    ok = ordered >= 4 and gap >= 0.03 and ratio >= 0.90 and secs < 1800
    verdict(7, "model comparison", ok,
            "ordering held %d/5 seeds, incremental-online gap %.3f, "
            "%.0f%% of retrained, %.0fs of runs"
            % (ordered, gap, 100 * ratio, secs))


# ------------------------------------------------------------ 8: scaling cost


def test_scaling_cost(verdict):
    cfg = TrainConfig(epochs=40, batch_size=1 << 30, seed=0)
    spec = ExperimentSpec(cfg=cfg, synth=SynthConfig(seed=0))
    times = {}
    for attempt in range(2):
        for row in run_scalability(spec, "network_size", sizes=(4, 16)):
            key = (row["model"], row["nodes"])
            times[key] = min(times.get(key, np.inf), row["train_seconds"])
    retr = times[("retrained", 2048)] / times[("retrained", 512)]
    cont = times[("continual", 2048)] / times[("continual", 512)]

    deltas, _, _ = stream_data(0)
    state = GraphState.empty(64)
    for t in range(13):
        state = state.apply_delta(deltas[t])
    rng = np.random.default_rng(7)
    targets = rng.choice(state.n, size=24, replace=False)
    change = SnapshotDelta(time=state.time + 1, attr_changes=tuple(
        (int(v), rng.random(64)) for v in targets))
    after = state.apply_delta(change)
    ball = l_hop_set(after, change.changed_nodes(), 2)
    assert len(ball) <= 0.2 * after.n
    params = GnnParams.init(64, 64, 2, rng=np.random.default_rng(0))
    clocks = {}
    for name, call in (
            ("naive", lambda: score_naive(params, state, after,
                                          range(after.n))),
            ("bfs", lambda: score_bfs(params, state, after, change)),
            ("approx", lambda: score_approx(params, state, after, change))):
        best = np.inf
        for attempt in range(3):
            t0 = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - t0)
        clocks[name] = best
    ok = (retr >= 2.0 and cont < 1.3
          and clocks["approx"] <= clocks["bfs"] <= clocks["naive"])
    verdict(8, "scaling cost", ok,
            "4x nodes: retrained step %.2fx, incremental %.2fx; detection "
            "%.0f/%.0f/%.0f ms approx/bfs/naive"
            % (retr, cont, 1e3 * clocks["approx"], 1e3 * clocks["bfs"],
               1e3 * clocks["naive"]))


# -------------------------------------------------------- 9: ablation trends


def test_ablation_trends(verdict):
    variants = {
        "stepwise": {},
        "hierarchical": {"memory_strategy": "hierarchical"},
        "random": {"memory_strategy": "random"},
        "l2": {"regularizer": "l2"},
        "plain": {"regularizer": "none", "lam": 0.0},
        "data": {"lam": 0.0},
        "model": {"use_replay": False},
    }
    f1 = {name: [stream_run("continual", seed, **over)["f1"]
                 for seed in SEEDS]
          for name, over in variants.items()}
    sampling = (holds_within_std(f1["stepwise"], f1["hierarchical"])
                and holds_within_std(f1["hierarchical"], f1["random"]))
    penalty = (holds_within_std(f1["stepwise"], f1["l2"])
               and holds_within_std(f1["l2"], f1["plain"]))
    views = (holds_within_std(f1["stepwise"], f1["data"])
             and holds_within_std(f1["stepwise"], f1["model"]))
    means = {k: float(np.mean(v)) for k, v in f1.items()}
    ok = sampling and penalty and views
    verdict(9, "ablation trends", ok,
            "sampling %.3f/%.3f/%.3f step/hier/random; penalty "
            "%.3f/%.3f/%.3f anchored/l2/plain; views both %.3f vs data "
            "%.3f, model %.3f"
            % (means["stepwise"], means["hierarchical"], means["random"],
               means["stepwise"], means["l2"], means["plain"],
               means["stepwise"], means["data"], means["model"]))
