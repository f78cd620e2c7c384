"""Geospatial tabular regression with distance-biased attention.

A numpy library for predicting and explaining geo-referenced tabular
targets: a set-attention regressor whose attention logits are penalised by
learnable per-head Gaussian distance factors, a data-loading layer that
precomputes neighbourhoods once, from a grid index, and reuses them across
epochs and ensemble members, randomised-context ensembles with per-query
uncertainty, and an exact Shapley-style explainer that treats location as
one joint player.  It depends on numpy alone.
"""

from .autodiff import (
    AdamState,
    ContractError,
    ShapeError,
    Tape,
    Var,
    adam_step,
    backward,
    grad_check,
    matmul,
    multihead_attention,
    rope2d,
)
from .datasets import (
    CsvFormatError,
    GeoDataset,
    PointRecord,
    generate_gwr,
    generate_sl,
    gwr_beta1,
    gwr_beta2,
    load_csv,
    save_csv,
)
from .explain import (
    GeoShapleyResult,
    RowBatch,
    geoshapley_explain,
    local_coefficients,
    make_shap_predictor,
    shapley_exact,
)
from .kdtree import KdTree
from .model import (
    ModelConfig,
    ModelParams,
    bind_params,
    forward_batch,
    forward_on_tape,
    induced_block,
    init_params,
    load_params,
    save_params,
)
from .pipeline import (
    EnsemblePrediction,
    Metrics,
    TrainConfig,
    benchmark_inference,
    evaluate,
    predict_ensemble,
    split_dataset,
    train,
)
from .spatial import (
    ContextPool,
    NeighborCache,
    QueryPool,
    assemble_sequence,
    build_tree,
    precompute_neighbors,
)

__version__ = "0.1.0"
