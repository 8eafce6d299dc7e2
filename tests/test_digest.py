"""Golden digests of the harness's output files.

The harness promises byte-identical output for a fixed seed, timing columns
aside. These SHA-256 digests pin that output on a small synthetic stream for
all five models and the main configuration variants, for the ablation and
scaling reports, and for the case study's embedding dumps. Each run also
pins its final weights and, with a replay memory, the (label, step, center)
list of its final memory, which the metrics file may not show. A refactor must
leave every digest unchanged. A change that alters behaviour on purpose
regenerates them (run this file with DIGEST_PRINT=1 and pytest's -s to
print the new values) and says so in CHANGES.md.
"""

import glob
import hashlib
import os
import re

import numpy as np
import pytest

from cgnn import harness
from cgnn.harness import (TIMING_COLUMNS, ExperimentSpec, run_ablation,
                          run_case_study, run_experiment, run_scalability)
from cgnn.memory import load_memory
from cgnn.synth import SynthConfig, build_stream
from cgnn.train import TrainConfig

SYNTH = SynthConfig(steps=8, per_step=48, structure_shift_step=3,
                    attribute_shift_step=6, seed=0)

# name -> (model, TrainConfig overrides)
RUNS = {
    "continual": ("continual", {}),
    "pretrained": ("pretrained", {}),
    "online": ("online", {}),
    "single": ("single", {}),
    "retrained": ("retrained", {}),
    "continual-l2": ("continual", {"regularizer": "l2"}),
    "online-detector": ("online", {"online_scope": "detector"}),
    # a memory smaller than the stream's training nodes, so that admission
    # and eviction decide what is replayed
    "continual-stepwise": ("continual", {"memory_size": 60}),
    "continual-random": ("continual", {"memory_size": 60,
                                       "memory_strategy": "random"}),
    "continual-hierarchical": ("continual",
                               {"memory_size": 60,
                                "memory_strategy": "hierarchical"}),
    "retrained-fullbatch": ("retrained", {"batch_size": 1 << 30}),
}

GOLDEN = {
    "ablate-view_combo": "7039bede9ec3936b67213a3e47918970a9312ec1530ad75567c7994cf7699b9c",
    "casestudy": "8d8f7ff095568ef36c77a39b7db9e7220c83fd62e9f3d5fc8e5ec1489ca8708b",
    "casestudy-embeddings": "bd328349614ff107855992c5826f3fb9117bf812c04798695acaec192018fe08",
    "continual": "cff5a95c2b777919b70c02f57645e582b9379e28addbd8cc0d650ea9954751e8",
    "continual-hierarchical": "f4a87653081227e1e4910ea3e73fbb8710c8c5f951611fec8f32ab5296bd21ae",
    "continual-l2": "5fee0fd43ae4d623796e4ba20895cecddc1b59ed968337ac74bc6f974869ef29",
    "continual-random": "9245b8abbe1dd050c2a4145791c8145afd5d0f8d117c58b978de967ab892171c",
    "continual-stepwise": "f4a87653081227e1e4910ea3e73fbb8710c8c5f951611fec8f32ab5296bd21ae",
    "online": "8bb0503fdb5d42986e077f9f5434db0610b386543066e1a17ad99a0a753a3eaf",
    "online-detector": "c6632c6fd7e0b21fc154694e5747fd7a7d121516ff51b3ceb3fd8535117fbf31",
    "pretrained": "cc5c07999ee64283bae554afda1b674af7ebcd6b8fe936e47889743b419f4f15",
    "retrained": "d8a24cb333e1d1867629ea3d535484eddcb8350944062d7f2550f88e037e7b89",
    "retrained-fullbatch": "bdde5b6fbd1aed6a3c66fbc158995eba80fa6ed13d309f99af39342be32710db",
    "scale-network_size": "e77591407a72d3593ce7214a0b989e6d64e526b01bff03f6f8c541e7126254ba",
    "single": "05996785aa7052e9dc682a35b9ca4c10326035b0c3526d9e2f8b8d49e7be5c4f",
}


# name -> SHA-256 of the run's final weights (activation, shapes, bytes)
WEIGHTS_GOLDEN = {
    "continual": "5cce9879d084b7897434024f51d0bc611dff539510349f58e2d58143cfb7e3ad",
    "continual-hierarchical": "d806762ab89c8ff006b62f52ebdb1db44855bce9c479407a3705278694562546",
    "continual-l2": "52a4972152ec9f4c9ea40aacf66334aa3a95443d595d686036e3e1c21b3b3b45",
    "continual-random": "cc43ff12f37164cf1139dc703403f71c46ea4190e34494ce08aa8b5c056a026d",
    "continual-stepwise": "0a8dbd37ccaedfd4cd34d9364b7244ae11828d8de3b90ce50b19c71e5c806623",
    "online": "8da37612219b29eb2d86587354640ef9c57603a5576f93435cd4de32ca0871a2",
    "online-detector": "fbc87be0a3f847dc473ebc712642d00fd848bde1896827007d24e1b1ef123b16",
    "pretrained": "af4e77c17f656f4c7101f27cc96a14c8afc3ae11848382d0069ca079c0d11954",
    "retrained": "8568cffe12ccbe79041f2c3bb205e73567a6b3dcaab9d3ceea6bd06d8d2c956b",
    "retrained-fullbatch": "50907c7796d9c7b2b9f9ce7ee5db562866070c6e4eac69e8c7682f651c345dfc",
    "single": "47dcb32352065f80f5aa13390be0ef95736afb6034aa1382c6329fab9c89554b",
}

# name -> SHA-256 of the run's final memory as (label, step, center) rows
MEMORY_GOLDEN = {
    "continual": "cdb0fc2529f6121a7be4b68c76637f2954e90ce13b83ea6ae5ed8457068d37d4",
    "continual-hierarchical": "18f5ee94f4b7319d772368b57767868871b79b9bdb96e5a810238c89680ad64c",
    "continual-l2": "6437b30815a3bba0cbc53fdf91ab7d063a2ea0e41fc54ae8baf0832dc4b8d582",
    "continual-random": "a8b8fabf6330d7f9ca7792d0d30e76987cb612b42eb0f2554439e998d16860af",
    "continual-stepwise": "2ee05f83fb6df42ae9876dad218f93d801759a82c29e43dc640c15d303690ed6",
}


# every array of the continual run's per-step .ckpt and .mem files
CHECKPOINT_GOLDEN = (
    "8ce643acc9cda87f2e9aa096ae632309b106c654e1bb1ea2c7e009df3d95a838")


def _spec(out_dir, model="continual", **overrides):
    return ExperimentSpec(cfg=TrainConfig(**overrides), synth=SYNTH,
                          model=model, out_dir=str(out_dir))


def _csv_digest(path):
    """SHA-256 of a metrics file with its timing columns dropped."""
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    keep = [i for i, c in enumerate(header)
            if not c.startswith(TIMING_COLUMNS)]
    body = "\n".join(",".join(line.split(",")[i] for i in keep)
                     for line in lines)
    return hashlib.sha256(body.encode()).hexdigest()


def _files_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _legacy_memory_arrays(path):
    """A .mem file's memory, loaded and laid out as a version-1 dump, in
    which every entry stored its whole feature block."""
    mem = load_memory(path)
    arrays = {
        "format_version": np.array(1, dtype=np.int64),
        "capacity": np.array(mem.capacity, dtype=np.int64),
        "strategy": np.array(mem.strategy),
        "alpha": np.array(mem.alpha, dtype=np.float64),
        "seen_classes": np.array(sorted(mem.seen), dtype=np.int64),
        "seen_counts": np.array([mem.seen[k] for k in sorted(mem.seen)],
                                dtype=np.int64),
    }
    entries = [e for k in sorted(mem.entries) for e in mem.entries[k]]
    for i, entry in enumerate(entries):
        ego = entry.ego
        arrays["e%d_meta" % i] = np.array(
            [entry.label, entry.step, ego.center, ego.depth], dtype=np.int64)
        arrays["e%d_nodes" % i] = np.array(ego.nodes, dtype=np.int64)
        arrays["e%d_edges" % i] = ego.edges
        arrays["e%d_feat" % i] = ego.features
    arrays["entry_count"] = np.array(len(entries), dtype=np.int64)
    return arrays


def _arrays_digest(paths):
    """SHA-256 over each file's arrays: key, dtype, shape and bytes.

    The zip container is left out, since it carries timestamps. A .mem
    file is digested in its version-1 layout, so that the digest also
    shows the deduplicated format to be lossless.
    """
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        if path.endswith(".mem"):
            arrays = _legacy_memory_arrays(path)
        else:
            with np.load(path) as data:
                arrays = dict(data)
        for key in sorted(arrays):
            arr = arrays[key]
            h.update(("%s %s %r" % (key, arr.dtype.str, arr.shape)).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _weights_digest(params):
    h = hashlib.sha256(params.activation.encode())
    for w in params.weights:
        h.update(("%s %r" % (w.dtype.str, w.shape)).encode())
        h.update(np.ascontiguousarray(w).tobytes())
    return h.hexdigest()


def _memory_digest(mem):
    rows = [(e.label, e.step, e.ego.center)
            for k in sorted(mem.entries) for e in mem.entries[k]]
    return hashlib.sha256(np.array(rows, dtype=np.int64).tobytes()).hexdigest()


def _check(name, got, golden=GOLDEN):
    if os.environ.get("DIGEST_PRINT"):
        print('\n    "%s": "%s",' % (name, got))
    assert got == golden[name], name


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_digest(tmp_path, monkeypatch, name):
    model, overrides = RUNS[name]
    final = []

    def run_stream(*args, real=harness.run_stream, **kwargs):
        final.append(real(*args, **kwargs))
        return final[-1]

    monkeypatch.setattr(harness, "run_stream", run_stream)
    run_experiment(_spec(tmp_path, model, **overrides))
    _check(name, _csv_digest(tmp_path / "metrics.csv"))
    (params, mem, _reports), = final
    _check(name, _weights_digest(params), WEIGHTS_GOLDEN)
    if mem.capacity:
        _check(name, _memory_digest(mem), MEMORY_GOLDEN)


@pytest.mark.parametrize("model", ["continual", "retrained"])
def test_file_stream_digest(tmp_path, model):
    """The stream written to files and read back gives the same output."""
    build_stream(SYNTH, str(tmp_path / "stream"))
    run_experiment(ExperimentSpec(cfg=TrainConfig(), model=model,
                                  data_dir=str(tmp_path / "stream"),
                                  out_dir=str(tmp_path / "out")))
    _check(model, _csv_digest(tmp_path / "out" / "metrics.csv"))


def test_ablation_digest(tmp_path):
    run_ablation(_spec(tmp_path), "view_combo")
    _check("ablate-view_combo", _csv_digest(tmp_path / "metrics.csv"))


def test_scalability_digest(tmp_path):
    run_scalability(_spec(tmp_path), "network_size", sizes=(2, 4))
    _check("scale-network_size", _csv_digest(tmp_path / "metrics.csv"))


def test_case_study_digest(tmp_path):
    spec = _spec(tmp_path)
    spec.cohort_steps = (0, 3)
    run_case_study(spec)
    _check("casestudy", _csv_digest(tmp_path / "metrics.csv"))
    dumps = sorted(glob.glob(str(tmp_path / "embeddings_step*.csv")),
                   key=lambda p: int(re.findall(r"\d+", os.path.basename(p))[0]))
    assert len(dumps) == SYNTH.steps
    _check("casestudy-embeddings", _files_digest(dumps))


def test_checkpoint_digest(tmp_path):
    """Checkpointed weights and replay memory hold the same arrays."""
    spec = _spec(tmp_path)
    spec.checkpoints = True
    run_experiment(spec)
    ckpt_dir = tmp_path / "run" / "continual"
    paths = [str(ckpt_dir / ("step%d%s" % (t, ext)))
             for t in range(SYNTH.steps) for ext in (".ckpt", ".mem")]
    got = _arrays_digest(paths)
    if os.environ.get("DIGEST_PRINT"):
        print('\nCHECKPOINT_GOLDEN = "%s"' % got)
    assert got == CHECKPOINT_GOLDEN
