"""Translation-based knowledge-graph embeddings with path regularization.

Pipeline: load a triple dataset, mirror every train fact with an inverse
relation, mine 2-hop relation paths with per-pair resource flows, train
embeddings in stages (translation warm start, projected refinement with
optional path regularization), then rank entities for link prediction.
"""

from pathkge.evaluator import (
    EvalError,
    RankReport,
    evaluate,
)
from pathkge.kgdata import (
    DatasetError,
    KnowledgeGraph,
    Vocab,
    augment_inverse,
    load_dataset,
)
from pathkge.models import ModelError, ModelParams, score_ptransr, score_transr
from pathkge.paths import PathError, PathTable, build_path_table
from pathkge.trainer import TrainConfig, TrainError, train
from pathkge.cli import SyntheticKGSpec, SynthError, generate_synthetic_kg

__version__ = "0.1.0"

__all__ = [
    "DatasetError",
    "EvalError",
    "KnowledgeGraph",
    "ModelError",
    "ModelParams",
    "PathError",
    "PathTable",
    "RankReport",
    "SynthError",
    "SyntheticKGSpec",
    "TrainConfig",
    "TrainError",
    "Vocab",
    "augment_inverse",
    "build_path_table",
    "evaluate",
    "generate_synthetic_kg",
    "load_dataset",
    "score_ptransr",
    "score_transr",
    "train",
    "__version__",
]
