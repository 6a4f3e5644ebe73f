"""The package's public surface: exactly the pipeline's names."""

from __future__ import annotations

import pathkge

PUBLIC = {
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
}


def test_public_names_are_exactly_the_pipeline():
    # A name added here needs a verb or a documented use that calls it.
    assert len(pathkge.__all__) == len(set(pathkge.__all__))
    assert set(pathkge.__all__) == PUBLIC
    assert all(hasattr(pathkge, name) for name in pathkge.__all__)
