"""Golden digests of the harness's output files.

The harness promises byte-identical output for a fixed seed, timing columns
aside. These SHA-256 digests pin that output on a small synthetic stream for
all five models and the main configuration variants, for the ablation and
scaling reports, and for the case study's embedding dumps. A refactor must
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

from cgnn.harness import (TIMING_COLUMNS, ExperimentSpec, run_ablation,
                          run_case_study, run_experiment, run_scalability)
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
    "ablate-view_combo": "47abe8780054150c979496bc19561975cfb9792db191d2eda0ae90c2a30399c4",
    "casestudy": "542690689ecb2bbedd77045df80d7399ad5e213b96928c439de7482035d18b8b",
    "casestudy-embeddings": "f1d9a26e6a172138392cef0576e93e20fce2652db45051451d337384550f8286",
    "continual": "99de0ab09768f0738e7d432732a2e8324bc5dcdcb8f7fa414964580858c20b6a",
    "continual-hierarchical": "a4834816ad8e9ecb9629527ebbb359760d908ddd44ac747db7bbf9463696260c",
    "continual-l2": "5fee0fd43ae4d623796e4ba20895cecddc1b59ed968337ac74bc6f974869ef29",
    "continual-random": "c13036c43ae14db3f4898de193cc5090b45882b878364adcdc84f28c7f82279a",
    "continual-stepwise": "81036210ed7aa48f844bb791e88ae36f2368a2f68da175f5584e773226f625dd",
    "online": "8bb0503fdb5d42986e077f9f5434db0610b386543066e1a17ad99a0a753a3eaf",
    "online-detector": "c6632c6fd7e0b21fc154694e5747fd7a7d121516ff51b3ceb3fd8535117fbf31",
    "pretrained": "cc5c07999ee64283bae554afda1b674af7ebcd6b8fe936e47889743b419f4f15",
    "retrained": "d8a24cb333e1d1867629ea3d535484eddcb8350944062d7f2550f88e037e7b89",
    "retrained-fullbatch": "bdde5b6fbd1aed6a3c66fbc158995eba80fa6ed13d309f99af39342be32710db",
    "scale-network_size": "e77591407a72d3593ce7214a0b989e6d64e526b01bff03f6f8c541e7126254ba",
    "single": "05996785aa7052e9dc682a35b9ca4c10326035b0c3526d9e2f8b8d49e7be5c4f",
}


# every array of the continual run's per-step .ckpt and .mem files
CHECKPOINT_GOLDEN = (
    "36069e415e8e62901390d87a78986d7bc74c3f9fbb2afb3c78c847c2e6d7adce")


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


def _arrays_digest(paths):
    """SHA-256 over each file's arrays: key, dtype, shape and bytes.

    The zip container is left out, since it carries timestamps.
    """
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with np.load(path) as data:
            for key in sorted(data.files):
                arr = data[key]
                h.update(("%s %s %r" % (key, arr.dtype.str, arr.shape))
                         .encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _check(name, got):
    if os.environ.get("DIGEST_PRINT"):
        print('\n    "%s": "%s",' % (name, got))
    assert got == GOLDEN[name], name


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_digest(tmp_path, name):
    model, overrides = RUNS[name]
    run_experiment(_spec(tmp_path, model, **overrides))
    _check(name, _csv_digest(tmp_path / "metrics.csv"))


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
