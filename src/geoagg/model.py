"""Distance-aware set-attention regressor over geospatial point sequences.

An input sequence is the target point (row 0, its target value masked by a
learned placeholder) followed by nearby context points whose observed targets
are visible as features.  The forward pass is:

1. embed each point's covariates and (normalised) target value,
2. refresh the sequence through ``n_layers`` induced-point attention blocks,
   where ``m`` learnable summary tokens attend to the sequence and the
   sequence attends back, keeping the cost linear in sequence length,
3. aggregate into the target row with multi-head attention whose query/key
   vectors are rotated by a planar rotary encoding of the coordinates and
   whose logits are penalised by ``lam[h] * d2`` (one learnable nonnegative
   bias factor per head, or a single shared one in legacy mode), where ``d2``
   is the squared distance from the target to each sequence point,
4. map the aggregated vector through a small head (a linear bypass plus a
   tanh branch) and de-normalise to target units.

Coordinates influence the prediction only through the rotary rotation and the
distance penalty, so predictions are invariant to the target row's own target
value and to translations of the whole sequence (up to the rotary encoding's
relative-position property).

The pass is written once, in :func:`forward_on_tape`, over a sequence or a
batch of them: training records it on a tape, and inference runs it on a tape
that records nothing.

Parameters are plain named float64 matrices; the optimiser and the serialiser
treat them uniformly.  Inference over distinct sequences may run concurrently
because forward passes never mutate parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tape, Var
from .datasets import read_text

__all__ = [
    "ModelConfig",
    "ModelParams",
    "init_params",
    "bind_params",
    "param_grads",
    "embed",
    "induced_block",
    "forward_batch",
    "forward_on_tape",
    "save_params",
    "load_params",
    "check_config_value",
    "check_config_section",
]

PARAMS_FORMAT = "geoagg-params-v1"

# Rows per pass in forward_batch.  A pass allocates temporaries in proportion
# to its rows.  At 240 rows that is ~35 MB, which the allocator may hand back
# to the OS after each call, depending on the heap's history; the next call
# then faults every page in again, about a third of its CPU time.  Passes of
# 16 rows reuse their memory from one block to the next in every heap state
# tried; 32-64 rows still faulted in some.
_ROW_BLOCK = 16

# Sequences that an inference caller (ensemble prediction, the explainer's
# predictor) assembles and hands to forward_batch at a time, in whole row
# blocks, so that no caller holds a whole prediction's sequences at once.
_CHUNK_ROWS = 16 * _ROW_BLOCK


@dataclass
class ModelConfig:
    """Architecture hyperparameters."""

    d_model: int = 32
    n_heads: int = 4
    n_inducing: int = 8
    l_max: int = 64
    n_layers: int = 2
    lambda_init: float = 1.0
    rope_base: float = 100.0
    legacy_single_abf: bool = False

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )
        if self.head_dim % 2 != 0:
            raise ContractError(f"head_dim={self.head_dim} must be even")
        if self.n_inducing < 1:
            raise ContractError("need at least one inducing point")
        if self.l_max < 2:
            raise ContractError("l_max must be at least 2")
        if self.n_layers < 1:
            raise ContractError("need at least one encoder layer")
        if not 0.0 < self.lambda_init < np.inf:
            raise ContractError(f"lambda_init must be finite and positive, got {self.lambda_init}")
        if not 0.0 < self.rope_base < np.inf:
            raise ContractError(f"rope_base must be finite and positive, got {self.rope_base}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               list: "a list of integers", dict: "an object"}


def check_config_value(where: str, default, value) -> None:
    """Raise a one-line ContractError unless ``value`` fits its default's type.

    An int field takes an int, a float field an int or a float, an object
    field an object, and a bool is never a number.  The one list field,
    ``bench.lengths``, takes ints.
    """
    kind = type(default)
    if kind is float:
        fits = type(value) in (int, float)
    elif kind is list:
        fits = type(value) is list and all(type(item) is int for item in value)
    else:
        fits = type(value) is kind
    if not fits:
        raise ContractError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")


def check_config_section(owner: str, section: str, doc: dict, defaults: dict) -> None:
    """Reject a non-object ``doc``, keys that ``defaults`` lacks, and mistyped values."""
    check_config_value(f"{owner}'s {section}", defaults, doc)
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise ContractError(f"{owner} has unknown {section} key {unknown[0]!r}")
    for key, value in doc.items():
        check_config_value(f"{owner}'s {section} key {key!r}", defaults[key], value)


@dataclass
class ModelParams:
    """Named trainable matrices plus fixed input/output normalisation constants."""

    arrays: dict[str, np.ndarray]
    norm: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def p(self) -> int:
        return self.arrays["embed_w"].shape[0] - 1

    def copy(self) -> "ModelParams":
        return ModelParams(
            arrays={k: v.copy() for k, v in self.arrays.items()},
            norm={k: v.copy() for k, v in self.norm.items()},
        )


def _identity_norm(p: int) -> dict[str, np.ndarray]:
    return {
        "x_mean": np.zeros((1, p)),
        "x_std": np.ones((1, p)),
        "y_mean": np.zeros((1, 1)),
        "y_std": np.ones((1, 1)),
    }


def init_params(config: ModelConfig, p: int, rng: np.random.Generator) -> ModelParams:
    """Random initialisation for ``p`` covariates.

    Projections use 1/sqrt(fan_in) scaling; the output projections of the
    induced blocks and the tanh branch start at zero so the residual stream
    begins as the identity.
    """
    if p < 1:
        raise ContractError(f"need at least one covariate, got p={p}")
    d = config.d_model
    sd = 1.0 / np.sqrt(d)

    arrays: dict[str, np.ndarray] = {
        "embed_w": rng.normal(0.0, 1.0 / np.sqrt(p + 1), size=(p + 1, d)),
        "embed_b": np.zeros((1, d)),
        "y_mask": np.zeros((1, 1)),
    }
    for layer in range(config.n_layers):
        arrays[f"l{layer}.ind"] = rng.normal(0.0, 1.0, size=(config.n_inducing, d))
        for blk in ("a", "b"):
            arrays[f"l{layer}.{blk}.wq"] = rng.normal(0.0, sd, size=(d, d))
            arrays[f"l{layer}.{blk}.wk"] = rng.normal(0.0, sd, size=(d, d))
            arrays[f"l{layer}.{blk}.wv"] = rng.normal(0.0, sd, size=(d, d))
            arrays[f"l{layer}.{blk}.wo"] = np.zeros((d, d))
    arrays["agg.wq"] = rng.normal(0.0, sd, size=(d, d))
    arrays["agg.wk"] = rng.normal(0.0, sd, size=(d, d))
    arrays["agg.wv"] = rng.normal(0.0, sd, size=(d, d))
    arrays["agg.wo"] = rng.normal(0.0, sd, size=(d, d))
    lam_shape = (1, 1) if config.legacy_single_abf else (config.n_heads, 1)
    arrays["agg.lam_raw"] = np.full(lam_shape, ad.softplus_inv(config.lambda_init))
    arrays["head.w1"] = rng.normal(0.0, sd, size=(d, d))
    arrays["head.b1"] = np.zeros((1, d))
    arrays["head.w2"] = np.zeros((d, 1))
    arrays["head.w_lin"] = rng.normal(0.0, sd, size=(d, 1))
    arrays["head.b2"] = np.zeros((1, 1))

    return ModelParams(arrays=arrays, norm=_identity_norm(p))


class BoundParams:
    """Parameter matrices registered as slots on one tape."""

    def __init__(self, tape: Tape, params: ModelParams):
        self.vars = {name: tape.slot(arr) for name, arr in params.arrays.items()}
        self.norm = params.norm

    def __getitem__(self, name: str) -> Var:
        return self.vars[name]


def bind_params(tape: Tape, params: ModelParams) -> BoundParams:
    return BoundParams(tape, params)


def param_grads(tape: Tape, bound: BoundParams) -> dict[str, np.ndarray]:
    return {name: tape.grads[var.idx] for name, var in bound.vars.items()}


def embed(tape: Tape, bound: BoundParams, feats) -> Var:
    """Token embeddings for ``(..., L, p + 1)`` raw sequence features.

    Row i is ``W_e @ [x_normalised; y_normalised] + b``; row 0's target channel
    is the learned mask value instead of whatever the features carry there, so
    the embedding is invariant to the target row's y.
    """
    p = bound.norm["x_mean"].shape[1]
    if feats.shape[-1] != p + 1:
        raise ContractError(
            f"sequence carries {feats.shape[-1] - 1} covariates, model expects {p}"
        )
    norm = bound.norm
    feats = feats.copy()
    feats[..., :p] = (feats[..., :p] - norm["x_mean"]) / norm["x_std"]
    feats[..., 1:, p] = (feats[..., 1:, p] - norm["y_mean"][0, 0]) / norm["y_std"][0, 0]
    feats[..., 0, p] = 0.0

    mask_selector = np.zeros(feats.shape[-2:])
    mask_selector[0, p] = 1.0
    fvar = ad.add_const(ad.mul_const(bound["y_mask"], mask_selector), feats)
    return ad.add(ad.matmul(fvar, bound["embed_w"]), bound["embed_b"])


def induced_block(tokens: Var, inducing: Var, wq_a: Var, wk_a: Var, wv_a: Var,
                  wo_a: Var, wq_b: Var, wk_b: Var, wv_b: Var, wo_b: Var,
                  n_heads: int):
    """Induced-point attention block: summarise, then refresh.

    The inducing points attend to the tokens (m x L, plain attention since
    inducing points carry no coordinates) giving an updated summary; the
    tokens then attend back to the summary (L x m).  Both halves carry
    residual connections.  Cost is O(L * m) per sequence.  ``tokens`` may
    carry batch axes; the unbatched inducing points serve every sequence.
    """
    # projections and attention weights are not kept in locals: on a tape
    # that does not record, each is then freed as soon as it is consumed
    pooled = ad.multihead_attention(ad.matmul(inducing, wq_a), ad.matmul(tokens, wk_a),
                                    ad.matmul(tokens, wv_a), n_heads)[0]
    summary = ad.add(inducing, ad.matmul(pooled, wo_a))
    spread = ad.multihead_attention(ad.matmul(tokens, wq_b), ad.matmul(summary, wk_b),
                                    ad.matmul(summary, wv_b), n_heads)[0]
    refreshed = ad.add(tokens, ad.matmul(spread, wo_b))
    return summary, refreshed


def forward_on_tape(tape: Tape, bound: BoundParams, sequence, config: ModelConfig):
    """Prediction for the target point (row 0) of each sequence, as a tape Var.

    ``sequence`` is a ``(feats, coords)`` pair: ``feats`` holds raw
    covariates plus the observed target in the last channel (the target
    row's channel is ignored and masked), ``coords`` the planar positions.
    Their shapes are ``(L, p + 1)`` and ``(L, 2)``, optionally behind batch
    axes ``(..., L, p + 1)``; the prediction is ``(..., 1, 1)``, returned with
    ``alpha``, the read-only ``(..., n_heads, 1, L)`` aggregation weights.  On
    a tape that does not record, this is the inference path.
    """
    feats, coords = (np.asarray(a, dtype=np.float64) for a in sequence)
    if feats.ndim < 2 or coords.shape != feats.shape[:-1] + (2,):
        raise ContractError(f"sequence features {feats.shape} and coordinates "
                            f"{coords.shape} disagree")
    length = feats.shape[-2]
    if length == 0:
        raise ContractError("sequence must contain at least the target point")
    if length > config.l_max:
        raise ContractError(f"sequence length {length} exceeds l_max={config.l_max}")

    tokens = embed(tape, bound, feats)
    for layer in range(config.n_layers):
        pref = f"l{layer}."
        _, tokens = induced_block(
            tokens, bound[pref + "ind"],
            bound[pref + "a.wq"], bound[pref + "a.wk"], bound[pref + "a.wv"],
            bound[pref + "a.wo"],
            bound[pref + "b.wq"], bound[pref + "b.wk"], bound[pref + "b.wv"],
            bound[pref + "b.wo"],
            config.n_heads,
        )

    target = ad.slice_rows(tokens, 0, 1)
    q = ad.matmul(target, bound["agg.wq"])
    k = ad.matmul(tokens, bound["agg.wk"])
    v = ad.matmul(tokens, bound["agg.wv"])
    q = ad.rope2d(q, coords[..., 0:1, :], config.rope_base, config.head_dim)
    k = ad.rope2d(k, coords, config.rope_base, config.head_dim)
    sq_dist = ((coords - coords[..., 0:1, :]) ** 2).sum(axis=-1)[..., None, :]
    lam = ad.softplus(bound["agg.lam_raw"])
    heads, alpha = ad.multihead_attention(q, k, v, config.n_heads, lam=lam, sq_dist=sq_dist)
    agg = ad.matmul(heads, bound["agg.wo"])

    hidden = ad.tanh(ad.add(ad.matmul(agg, bound["head.w1"]), bound["head.b1"]))
    y_norm = ad.add(
        ad.add(ad.matmul(agg, bound["head.w_lin"]), ad.matmul(hidden, bound["head.w2"])),
        bound["head.b2"],
    )
    y_hat = ad.add_const(ad.mul_const(y_norm, bound.norm["y_std"]), bound.norm["y_mean"])
    return y_hat, alpha


def forward_batch(feats, coords, params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Vectorised inference over a stack of equal-length sequences.

    ``feats`` is ``(B, L, p + 1)`` and ``coords`` is ``(B, L, 2)``, as in
    :func:`forward_on_tape`, which runs here on a tape that records nothing.
    Returns ``(B,)`` predictions; ensemble members and explainer rows ride
    through here, in passes of at most ``_ROW_BLOCK`` rows.
    """
    feats = np.asarray(feats, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if feats.ndim != 3 or coords.shape != feats.shape[:2] + (2,):
        raise ContractError(
            f"forward_batch: feats {feats.shape} and coords {coords.shape} disagree"
        )
    p = params.norm["x_mean"].shape[1]
    if feats.shape[2] != p + 1:
        raise ContractError(
            f"forward_batch: {feats.shape[2] - 1} covariate channels, model expects {p}"
        )
    tape = Tape(record=False)
    bound = bind_params(tape, params)
    out = np.empty(feats.shape[0])
    for start in range(0, len(out), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        y_hat, _ = forward_on_tape(tape, bound, (feats[rows], coords[rows]), config)
        out[rows] = y_hat.value.reshape(-1)
    return out


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def save_params(path, params: ModelParams, config: ModelConfig,
                train_config: dict | None = None) -> None:
    """Self-describing JSON snapshot: format tag, configs, named row-major arrays.

    Arrays and constants must be finite; a non-finite one raises a one-line
    :class:`ContractError` and nothing is written.
    """
    _check_finite("model", "array", params.arrays)
    _check_finite("model", "constant", params.norm)
    doc = {
        "format": PARAMS_FORMAT,
        "model_config": asdict(config),
        "train_config": train_config,
        "arrays": {k: v.tolist() for k, v in params.arrays.items()},
        "constants": {k: v.tolist() for k, v in params.norm.items()},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def _check_fits(kind: str, got: dict, want: dict) -> None:
    """Same names and shapes in ``got`` as in ``want``, else a ContractError."""
    for name in sorted(set(got) | set(want)):
        if name not in got:
            raise ContractError(f"parameter file lacks {kind} {name!r}")
        if name not in want:
            raise ContractError(f"parameter file has unknown {kind} {name!r}")
        if got[name].shape != want[name].shape:
            raise ContractError(f"parameter file {kind} {name!r} has shape "
                                f"{got[name].shape}, its config needs {want[name].shape}")


def _check_finite(owner: str, kind: str, named: dict) -> None:
    """Every value of every named array finite, else a ContractError."""
    for name in sorted(named):
        if not np.isfinite(named[name]).all():
            raise ContractError(f"{owner} {kind} {name!r} holds non-finite values")


def load_params(path):
    """Inverse of :func:`save_params`: ``(params, config, train_config_dict)``.

    The file must fit its own ``model_config``: exactly the arrays and
    constants :func:`init_params` makes for that config, with the same
    shapes, the covariate count being read from ``embed_w``, and every value
    finite.  A file that does not fit raises a one-line :class:`ContractError`.
    """
    doc = json.loads(read_text(path, ContractError))
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != PARAMS_FORMAT:
        raise ContractError(
            f"unsupported parameter file format {found!r}, expected {PARAMS_FORMAT!r}"
        )
    config_doc = doc.get("model_config")
    check_config_section("parameter file", "model_config", config_doc, asdict(ModelConfig()))
    config = ModelConfig(**config_doc)
    try:
        arrays = {k: np.array(v, dtype=np.float64) for k, v in doc["arrays"].items()}
        norm = {k: np.array(v, dtype=np.float64) for k, v in doc["constants"].items()}
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        raise ContractError(f"parameter file arrays are malformed: {exc}") from None
    embed_w = arrays.get("embed_w")
    if embed_w is None or embed_w.ndim != 2:
        raise ContractError("parameter file lacks a matrix 'embed_w'")
    fitting = init_params(config, embed_w.shape[0] - 1, np.random.default_rng(0))
    _check_fits("array", arrays, fitting.arrays)
    _check_fits("constant", norm, fitting.norm)
    _check_finite("parameter file", "array", arrays)
    _check_finite("parameter file", "constant", norm)
    return ModelParams(arrays=arrays, norm=norm), config, doc.get("train_config")
