"""Shapley-style explanation with a joint location player.

Each prediction is decomposed into four parts: a base value (the mean
prediction over background rows), an intrinsic location effect, per-feature
effects, and per-feature location interactions:

    prediction = phi0 + phi_geo + sum_j phi_j + sum_j phi_geo_j

Location is one joint player, so the two coordinates are always swapped in and
out together, never mixed across background rows.  The game has ``p + 1``
players (player 0 is location) and is solved by exact coalition enumeration,
which makes the identity above hold to float precision at desk scale.  The
pairwise location/feature interaction is the Shapley interaction index, split
half-and-half between the two mains so the four components still sum to the
prediction.

A coalition's value is a mean of model outputs over the background rows, so
the coalition rows of a block are gathered into one table and each distinct
row is predicted once, in one predictor call per block: the full coalition
is the instance itself, and the empty coalition is the same background rows
for every instance.  The (instance, coalition) pairs are cut, in order, into
blocks of ``_BLOCK_ROWS // n_bg`` pairs (at least one), so a block may split
one instance's coalitions or span several instances.

Cost.  Explaining ``n`` instances with ``p`` covariates over ``n_bg``
background rows builds ``n * 2**(p+1) * n_bg`` coalition rows, and the
predictor sees nearly all of them: only the full coalition (one row repeated
``n_bg`` times) and the empty one (the same rows for every instance of a
block) repeat.  So time doubles with each covariate.  Each part of the
decomposition is a fixed linear combination of an instance's coalition
values, so the solve is numpy arithmetic over the whole ``(n, 2**(p+1))``
value table, with no interpreter loop per coalition, player or instance:
``O(n * p * 2**(p+1))`` multiply-adds, holding at most
``n * (p + 1) * 2**(p+1)`` float64 products at once.  A block holds at most
``max(_BLOCK_ROWS, n_bg)`` rows of ``3 + p`` int64 columns, so the memory of
coalition evaluation is bounded by one block and its deduplication at any
``n`` and ``p``; the predictor's memory for a block comes on top.

For the attention model, :class:`ShapPredictor` (also bound as
``make_shap_predictor``) keys every row by its point id and predicts through
:class:`~geoagg.pipeline.Ensemble`, the front end of ensemble prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError
from .datasets import GeoDataset, write_csv
# perfbench/tracer.py wraps these unused names: forward_batch, precompute_neighbors, subset_indices
from .model import ModelConfig, ModelParams, forward_batch  # noqa: F401
from .pipeline import Ensemble
from .spatial import ContextPool, QueryPool, precompute_neighbors, subset_indices  # noqa: F401

__all__ = [
    "GEO_PLAYER",
    "RowBatch",
    "GeoShapleyResult",
    "shapley_exact",
    "interaction_index",
    "make_shap_predictor",
    "geoshapley_explain",
    "local_coefficients",
    "write_explanations_csv",
]

GEO_PLAYER = 0
# location and ten covariates, the largest game a test covers; p = 19 would
# take about an hour per instance
MAX_EXACT_PLAYERS = 11
# coalition rows built, deduplicated and predicted together; a block holds at
# least one coalition of one instance, so memory grows with neither the
# instance count nor the covariate count
_BLOCK_ROWS = 8192


@dataclass
class RowBatch:
    """Rows a predictor consumes: point ids, planar coords, covariates."""

    ids: np.ndarray     # (n,)
    coords: np.ndarray  # (n, 2)
    x: np.ndarray       # (n, p)

    @classmethod
    def from_dataset(cls, ds: GeoDataset) -> "RowBatch":
        return cls(ids=ds.ids(), coords=ds.coords(), x=ds.covariates())

    @classmethod
    def from_records(cls, records) -> "RowBatch":
        return cls.from_dataset(GeoDataset.from_records(records))

    def __len__(self):
        return len(self.ids)


@dataclass
class GeoShapleyResult:
    """Per-row decomposition into base, location, feature, interaction parts."""

    ids: np.ndarray
    phi0: float
    phi_geo: np.ndarray    # (n,)
    phi: np.ndarray        # (n, p)
    phi_geo_x: np.ndarray  # (n, p)

    def reconstruct(self) -> np.ndarray:
        """Sum of all components; equals the model predictions row by row."""
        return self.phi0 + self.phi_geo + self.phi.sum(axis=1) + self.phi_geo_x.sum(axis=1)


def _check_player_count(n_players: int) -> None:
    if n_players < 1:
        raise ContractError("need at least one player")
    if n_players > MAX_EXACT_PLAYERS:
        raise ContractError(f"{n_players} players exceeds the exact-enumeration bound of "
                            f"{MAX_EXACT_PLAYERS}: n rows with p covariates over n_bg "
                            f"background rows predict n * 2**(p+1) * n_bg coalition rows")


def _present(n_players: int) -> np.ndarray:
    """``(2**n_players, n_players)``: 1 where coalition ``mask`` holds player a."""
    return np.arange(2 ** n_players)[:, None] >> np.arange(n_players) & 1


def _apply(values, n_players: int, columns: np.ndarray) -> np.ndarray:
    """Weight ``columns`` ``(c, 2**n_players)`` applied to the last axis of ``values``.

    Each product is summed along the contiguous coalition axis, which numpy
    adds in one order per row whatever rows or columns share the call; a
    BLAS product, or a sum over a strided axis, would not.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != 2 ** n_players:
        raise ContractError(
            f"expected {2 ** n_players} coalition values, got {values.shape[-1]}"
        )
    return (values[..., None, :] * columns).sum(axis=-1)


def shapley_exact(values: np.ndarray, n_players: int) -> np.ndarray:
    """Classic Shapley values from all ``2**n_players`` coalition values.

    ``values[..., mask]`` is the coalition value for the bitmask ``mask``
    (bit a set means player a present); leading axes are a batch of games.
    phi_a is the factorial-weighted sum of marginal contributions over all
    coalitions S not containing a: ``v(S+{a})`` gets ``+w(|S|)`` and
    ``v(S)`` gets ``-w(|S|)``, one linear map over the coalition values.
    """
    _check_player_count(n_players)
    fact = [math.factorial(i) for i in range(n_players + 1)]
    weight = np.array([fact[s] * fact[n_players - s - 1] / fact[n_players]
                       for s in range(n_players)])
    present = _present(n_players)
    # |S| is the coalition's size without player a
    size = present.sum(axis=1, keepdims=True) - present
    return _apply(values, n_players, (np.where(present, 1.0, -1.0) * weight[size]).T)


def interaction_index(values: np.ndarray, n_players: int, a: int, b) -> np.ndarray:
    """Shapley interaction index between player ``a`` and player ``b``.

    The coalition-weighted mixed difference
    ``v(S+{a,b}) - v(S+{a}) - v(S+{b}) + v(S)`` over all S excluding a and b,
    one linear map over the coalition values.  Leading axes of ``values``
    are a batch of games; ``b`` may be an array of players, which adds its
    shape to the result's.
    """
    _check_player_count(n_players)
    b = np.asarray(b)
    if np.any(b == a):
        raise ContractError("interaction index needs two distinct players")
    if not (0 <= a < n_players and np.all((0 <= b) & (b < n_players))):
        raise ContractError(f"players must lie in [0, {n_players})")
    fact = [math.factorial(i) for i in range(n_players)]
    weight = np.array([fact[s] * fact[n_players - s - 2] / fact[n_players - 1]
                       for s in range(n_players - 1)])
    present = _present(n_players)
    in_a, in_b = present[:, [a]], present[:, b.ravel()]
    # |S| leaves out a and b; the sign is + where both or neither are present
    size = present.sum(axis=1, keepdims=True) - in_a - in_b
    sii = _apply(values, n_players, (np.where(in_a == in_b, 1.0, -1.0) * weight[size]).T)
    return sii.reshape(sii.shape[:-1] + b.shape)[()]


# ---------------------------------------------------------------------------
# coalition evaluation
# ---------------------------------------------------------------------------


def _columns(rows: RowBatch) -> np.ndarray:
    """Rows as int64 columns: the point id, then u, v and the covariates with
    their float64 bits read as int64, so equal rows are equal bytes."""
    return np.column_stack([np.asarray(rows.ids, dtype=np.int64),
                            np.asarray(rows.coords, dtype=np.float64).view(np.int64),
                            np.asarray(rows.x, dtype=np.float64).view(np.int64)])


def _values(predictor, instances: RowBatch, background: RowBatch,
            n_players: int) -> np.ndarray:
    """``(n, 2**n_players)`` coalition values of every instance.

    ``values[i, mask]`` is the mean prediction over the background rows,
    each with player a's columns taken from instance i where bit a of
    ``mask`` is set; the location player owns the id, u and v columns, so
    ids always match the row whose location is used.  Each flat block of
    (instance, coalition) pairs makes one predictor call on its distinct
    ``(id, u, v, x)`` rows, by exact bytes: a row that recurs (the instance
    itself in the full coalition, the background rows in every instance's
    empty one) is predicted once per block.
    """
    if len(background) == 0:
        raise ContractError("background must not be empty")
    n_masks, n_bg = 2 ** n_players, len(background)
    values = np.empty((len(instances), n_masks))
    owner = np.concatenate([[GEO_PLAYER] * 3, np.arange(1, n_players)])
    # takes[mask, c]: coalition ``mask`` takes column c from the instance
    takes = _present(n_players)[:, owner] == 1
    inst, bg = _columns(instances), _columns(background)
    flat = values.reshape(-1)
    step = max(1, _BLOCK_ROWS // n_bg)
    for start in range(0, flat.size, step):
        pairs = np.arange(start, min(start + step, flat.size))
        table = np.where(takes[pairs % n_masks, None], inst[pairs // n_masks, None], bg)
        rows = table.reshape(-1, table.shape[-1])
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        distinct = rows[first]
        preds = predictor(distinct[:, 0], distinct[:, 1:3].view(np.float64),
                          distinct[:, 3:].view(np.float64))
        flat[start:start + step] = np.asarray(
            preds, dtype=np.float64)[inverse].reshape(len(pairs), n_bg).mean(axis=1)
    return values


class ShapPredictor:
    """Batched row predictor for the attention model, keyed by point id: the
    member mean of a :class:`~geoagg.pipeline.Ensemble`'s outputs.

    Context sequences are always rebuilt from the true neighbours of each
    row's id; the row's possibly perturbed coordinates and covariates feed
    only the model's own input channels.  Rows substituted from the
    background carry the background point's id, so the base value is the
    genuine mean prediction of the background points.  By default one
    deterministic member is used so Shapley identities are exact; set
    ``members > 1`` for ensemble-mean explanations.

    ``queries`` holds the true rows whose ids may later appear in perturbed
    rows; their neighbourhoods are precomputed at construction.  The
    ensemble holds every check and those neighbours, so an unperturbed
    query row gets the bytes of
    :func:`~geoagg.pipeline.predict_ensemble`'s mean, a row's output does
    not depend on the order or grouping of the rows, and concurrent calls
    are safe.
    """

    def __init__(self, params: ModelParams, config: ModelConfig,
                 context: ContextPool, queries: QueryPool, members: int = 1,
                 expansion: float = 1.0, seed: int = 0):
        self.ensemble = Ensemble(params, config, context, queries, members, expansion, seed)

    def __call__(self, ids, coords, x) -> np.ndarray:
        return self.ensemble.outputs(ids, coords, x).mean(axis=0)


make_shap_predictor = ShapPredictor


def geoshapley_explain(predictor, instances: RowBatch,
                       background: RowBatch) -> GeoShapleyResult:
    """Exact location-aware Shapley decomposition for every instance row.

    Instances' coalitions are evaluated a block at a time: the predictor is
    called once per block, on the block's distinct rows.  Then one
    :func:`shapley_exact` and one :func:`interaction_index` call solve every
    instance.  See the module docstring for the cost: ``n * 2**(p+1) * n_bg``
    coalition rows, in blocks of at most ``max(_BLOCK_ROWS, n_bg)`` rows.
    """
    if instances.x.shape[1] != background.x.shape[1]:
        raise ContractError("instances and background must share the covariate schema")
    p = instances.x.shape[1]
    n_players = p + 1
    _check_player_count(n_players)

    values = _values(predictor, instances, background, n_players)
    raw = shapley_exact(values, n_players)
    sii = interaction_index(values, n_players, GEO_PLAYER, np.arange(1, n_players))
    # the empty coalition is the same background rows for every instance
    phi0 = float(values[0, 0]) if len(values) else 0.0
    return GeoShapleyResult(ids=instances.ids.copy(), phi0=phi0,
                            phi_geo=raw[:, GEO_PLAYER] - sii.sum(axis=1) / 2.0,
                            phi=raw[:, 1:] - sii / 2.0, phi_geo_x=sii)


def local_coefficients(result: GeoShapleyResult, instances: RowBatch,
                       background: RowBatch) -> np.ndarray:
    """Per-row slope estimates ``(phi_j + phi_geo_j) / (x_ij - xbar_j)``.

    Rows where the covariate sits within ``1e-3`` background standard
    deviations of the background mean get NaN instead of a blown-up ratio.
    """
    if len(instances) != len(result.ids):
        raise ContractError("result and instances are not aligned")
    xbar = background.x.mean(axis=0)
    xstd = background.x.std(axis=0)
    denom = instances.x - xbar
    valid = np.abs(denom) >= 1e-3 * xstd
    beta = np.full_like(denom, np.nan)
    contrib = result.phi + result.phi_geo_x
    beta[valid] = contrib[valid] / denom[valid]
    return beta


def write_explanations_csv(path, result: GeoShapleyResult,
                           beta: np.ndarray | None = None) -> None:
    """``id,phi0,phi_geo,phi_x*,phi_geo_x*`` plus slope columns, non-finite as empty."""
    p = result.phi.shape[1]
    header = ["id", "phi0", "phi_geo"]
    header += [f"phi_x{j + 1}" for j in range(p)]
    header += [f"phi_geo_x{j + 1}" for j in range(p)]
    if beta is not None:
        header += [f"beta_hat_x{j + 1}" for j in range(p)]
    values = np.column_stack([np.full(len(result.ids), result.phi0), result.phi_geo,
                              result.phi, result.phi_geo_x] + ([] if beta is None else [beta]))
    blank = np.column_stack([np.zeros(len(values), dtype=bool), ~np.isfinite(values)])
    write_csv(path, header, [result.ids, *values.T], blank)
