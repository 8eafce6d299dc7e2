"""Command line front end.

Configuration is a flat key=value file; any key can be overridden on the
command line. Unknown keys are rejected rather than ignored.
"""

import argparse
import dataclasses
import json
import sys

from .harness import (ABLATION_AXES, SCALE_AXES, ExperimentSpec,
                      run_ablation, run_case_study, run_experiment,
                      run_scalability)
from .memory import STRATEGIES
from .synth import SynthConfig, build_stream
from .train import DETECTORS, MODELS, REGULARIZERS, TrainConfig

_ALIAS = {"lambda": "lam", "data": "data_dir", "out": "out_dir",
          "cohorts": "cohort_steps"}


def _coerce(value, target_type):
    if target_type is bool:
        v = value.strip().lower()
        if v in ("1", "true", "yes", "on"):
            return True
        if v in ("0", "false", "no", "off"):
            return False
        raise ValueError("bad boolean %r" % value)
    if target_type is tuple:
        return tuple(float(x) if "." in x else int(x)
                     for x in value.split(",") if x != "")
    return target_type(value)


def parse_config_file(path):
    conf = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            key, value = line.split("=", 1)
            conf[key.strip()] = value.strip()
    return conf


def _field_types(cls):
    return {f.name: (type(f.default) if f.default is not None
                     and f.default is not dataclasses.MISSING else str)
            for f in dataclasses.fields(cls)}


def _spec_types():
    """ExperimentSpec's keys; cfg and synth are built from the others."""
    types = _field_types(ExperimentSpec)
    del types["cfg"], types["synth"]
    return types


def build_objects(conf):
    """Split a flat config dict into TrainConfig, SynthConfig and spec args."""
    conf = {_ALIAS.get(k, k): v for k, v in conf.items()}
    train_types = _field_types(TrainConfig)
    synth_types = _field_types(SynthConfig)
    spec_types = _spec_types()

    train_kwargs = {}
    synth_kwargs = {}
    spec_kwargs = {}
    for key, value in conf.items():
        if key.startswith("synth_"):
            name = key[len("synth_"):]
            if name not in synth_types:
                raise ValueError("unknown synth key %r" % key)
            synth_kwargs[name] = (value if not isinstance(value, str)
                                  else _coerce(value, synth_types[name]))
        elif key in train_types:
            train_kwargs[key] = (value if not isinstance(value, str)
                                 else _coerce(value, train_types[key]))
        elif key in spec_types:
            spec_kwargs[key] = (value if not isinstance(value, str)
                                else _coerce(value, spec_types[key]))
        else:
            raise ValueError("unknown config key %r" % key)

    cfg = TrainConfig(**train_kwargs)
    synth = None
    if "data_dir" not in spec_kwargs:
        synth_kwargs.setdefault("seed", cfg.seed)
        synth = SynthConfig(**synth_kwargs)
    if "cohort_steps" in spec_kwargs:
        steps = spec_kwargs["cohort_steps"]
        if any(int(x) != x for x in steps):
            raise ValueError("cohort_steps: arrival steps must be integers, "
                             "got %r" % (steps,))
        spec_kwargs["cohort_steps"] = tuple(int(x) for x in steps)
    return ExperimentSpec(cfg=cfg, synth=synth, **spec_kwargs)


def _add_common(p):
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any configuration key")
    p.add_argument("--data", help="stream directory (edges/features/labels)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--seed", type=int)
    p.add_argument("--split", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--fanout", type=int)
    p.add_argument("--detector", choices=DETECTORS)
    threshold = p.add_mutually_exclusive_group()
    threshold.add_argument("--threshold-ratio", type=float,
                           dest="threshold_ratio")
    threshold.add_argument("--threshold-abs", type=float,
                           dest="threshold_abs")
    p.add_argument("--memory-size", type=int, dest="memory_size")
    p.add_argument("--memory-strategy", dest="memory_strategy",
                   choices=STRATEGIES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--regularizer", choices=REGULARIZERS)
    p.add_argument("--accumulate-test", action="store_true", default=None,
                   dest="accumulate_test")
    p.add_argument("--checkpoints", action="store_true", default=None)
    p.add_argument("--cohorts", help="comma separated cohort arrival steps")


def _gather(args):
    conf = parse_config_file(args.config) if args.config else {}
    for item in args.set:
        if "=" not in item:
            raise ValueError("--set needs KEY=VALUE, got %r" % item)
        key, value = item.split("=", 1)
        conf[key.strip()] = value.strip()
    # canonical names, so that a flag replaces an aliased --set or file key
    conf = {_ALIAS.get(k, k): v for k, v in conf.items()}
    keys = set(_field_types(TrainConfig)) | set(_spec_types())
    for key, value in vars(args).items():
        key = _ALIAS.get(key, key)
        if value is not None and key in keys:
            conf[key] = value
    if args.threshold_ratio is not None:
        conf["threshold_mode"] = "ratio"
        conf["threshold_value"] = repr(args.threshold_ratio)
    if args.threshold_abs is not None:
        conf["threshold_mode"] = "abs"
        conf["threshold_value"] = repr(args.threshold_abs)
    return build_objects(conf)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cgnn",
        description="incremental graph model experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train and evaluate one model")
    _add_common(p_run)

    p_case = sub.add_parser("casestudy",
                            help="track arrival cohorts and dump embeddings")
    _add_common(p_case)

    p_abl = sub.add_parser("ablate", help="sweep one knob")
    _add_common(p_abl)
    p_abl.add_argument("--axis", required=True, choices=ABLATION_AXES)

    p_scale = sub.add_parser("scale", help="wall time scaling measurements")
    _add_common(p_scale)
    p_scale.add_argument("--axis", required=True, choices=SCALE_AXES)

    p_gen = sub.add_parser("synthgen", help="write a synthetic stream")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--steps", type=int)
    p_gen.add_argument("--per-step", type=int, dest="per_step")
    p_gen.add_argument("--dim", type=int, dest="feature_dim")
    p_gen.add_argument("--classes", type=int)

    args = parser.parse_args(argv)

    if args.command == "synthgen":
        kwargs = {key: getattr(args, key) for key in
                  ("seed", "steps", "per_step", "feature_dim", "classes")
                  if getattr(args, key) is not None}
        paths = build_stream(SynthConfig(**kwargs), args.out)
        for name in sorted(paths):
            print("%s: %s" % (name, paths[name]))
        return 0

    spec = _gather(args)
    if args.command == "run":
        result = run_experiment(spec)[1]["models"]
    elif args.command == "casestudy":
        result = run_case_study(spec)[1]["models"]
    elif args.command == "ablate":
        result = run_ablation(spec, args.axis)
    else:
        result = run_scalability(spec, args.axis)
    print(json.dumps(result, indent=2, sort_keys=True))
    if spec.out_dir:
        print("outputs in %s" % spec.out_dir, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
