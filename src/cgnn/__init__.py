"""Incremental training for graph neural networks on streaming graphs."""

from .graph import (EgoNet, GraphError, GraphState, SnapshotDelta,
                    freeze_ego, l_hop_set, load_stream, replay, write_stream)
from .model import (GnnParams, ModelError, forward_batch, load_params,
                    loss_and_grad, predict_batch, save_params, sgd_step)
from .detect import (ThresholdRule, score_approx, score_bfs, score_naive,
                     select_influenced, surrogate_weights)
from .memory import (MemoryEntry, ReplayMemory, load_memory, node_importance,
                     replace_prob, replay_batch, save_memory, update_memory)
from .ewc import FisherDiag, estimate_fisher, ewc_penalty, uniform_importance
from .train import MODELS, StepReport, TrainConfig, run_stream
from .synth import SynthConfig, build_stream, generate
from .harness import ExperimentSpec, run_ablation, run_case_study, \
    run_experiment, run_scalability
from .metrics import accuracy, macro_f1

__version__ = "0.1.0"
