"""Learned particle simulation: implicit-edge attention, an explicit-edge
message-passing baseline, synthetic spring-damper worlds, and the training,
evaluation, and cost-model tooling around them."""

from .tensor import (Tensor, Tape, backward, ShapeError, ContractError,
                     DegenerateRowError, save_checkpoint, load_checkpoint)
from .particles import (SystemState, NeighborGraph, NormStats, InputError,
                        build_neighbor_graph, brute_force_neighbor_graph,
                        integrate_positions, compute_norm_stats, assemble_inputs)
from .worlds import (WorldSpec, RolloutDataset, WORLD_KINDS, BlowUpError,
                     MetadataError, TruncationError, ChecksumError,
                     generate_rollout, generate_dataset, write_dataset, read_dataset)
from .nn import ModelConfig, BACKBONES
from .gnn import ExplicitEdgeGnn, expand_edge_linear
from .attention import (ImplicitEdgeModel, VanillaTransformer, build_model,
                        attach_abstract_pairs)
from .training import (TrainConfig, Adam, PlateauScheduler, fit, mse, m3se,
                       mse_loss, one_step_eval, constant_velocity_eval, rollout,
                       DivergenceError, dataset_norm_stats)
from .bench import CostProfile, count_macs, time_iteration, synthesize_pairs

__version__ = "0.1.0"

__all__ = [
    "Tensor", "Tape", "backward", "ShapeError", "ContractError", "DegenerateRowError",
    "save_checkpoint", "load_checkpoint",
    "SystemState", "NeighborGraph", "NormStats", "InputError",
    "build_neighbor_graph", "brute_force_neighbor_graph", "integrate_positions",
    "compute_norm_stats", "assemble_inputs",
    "WorldSpec", "RolloutDataset", "WORLD_KINDS", "BlowUpError", "MetadataError",
    "TruncationError", "ChecksumError", "generate_rollout", "generate_dataset",
    "write_dataset", "read_dataset",
    "ModelConfig", "BACKBONES",
    "ExplicitEdgeGnn", "expand_edge_linear",
    "ImplicitEdgeModel", "VanillaTransformer", "build_model", "attach_abstract_pairs",
    "TrainConfig", "Adam", "PlateauScheduler", "fit", "mse", "m3se", "mse_loss",
    "one_step_eval", "constant_velocity_eval", "rollout", "DivergenceError",
    "dataset_norm_stats",
    "CostProfile", "count_macs", "time_iteration", "synthesize_pairs",
]
