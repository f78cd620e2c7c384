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
for every instance.  A block holds whole instances while one instance's
coalitions fit in ``_BLOCK_ROWS`` rows, and otherwise a group of one
instance's coalitions.

Cost.  Explaining ``n`` instances with ``p`` covariates over ``n_bg``
background rows builds ``n * 2**(p+1) * n_bg`` coalition rows, and the
predictor sees nearly all of them: only the full coalition (one row repeated
``n_bg`` times) and the empty one (the same rows for every instance of a
block) repeat.  So time doubles with each covariate, and the Shapley sums
add ``O(n * p * 2**(p+1))`` arithmetic.  A block holds at most
``max(_BLOCK_ROWS, n_bg)`` rows of ``3 + p`` int64 columns, so the memory
the explainer itself uses is bounded by one block and its deduplication at
any ``n`` and ``p``; the predictor's memory for a block comes on top.

For attention models whose input sequences come from neighbour lookups, the
:func:`make_shap_predictor` wrapper keys every row by its original point id:
perturbing a row's coordinates or covariates changes what the model sees, but
the context sequence is always rebuilt from the id's true neighbours.  Rows
substituted from the background carry the background point's id, so the base
value is the genuine mean prediction of the background points.  The wrapper
keeps no caches that calls fill: it is immutable once built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError
from .datasets import GeoDataset, write_csv
from .model import _CHUNK_ROWS, ModelConfig, ModelParams, forward_batch
from .spatial import (
    ContextPool,
    SequenceLookupError,
    neighbor_budget,
    precompute_neighbors,
    QueryPool,
    sequences,
    subset_indices,
)

__all__ = [
    "GEO_PLAYER",
    "RowBatch",
    "GeoShapleyResult",
    "shapley_exact",
    "interaction_index",
    "coalition_values",
    "make_shap_predictor",
    "geoshapley_explain",
    "local_coefficients",
    "write_explanations_csv",
]

GEO_PLAYER = 0
MAX_EXACT_PLAYERS = 20
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
        raise ContractError(
            f"{n_players} players exceeds the exact-enumeration bound of {MAX_EXACT_PLAYERS}"
        )


def shapley_exact(values: np.ndarray, n_players: int) -> np.ndarray:
    """Classic Shapley values from all ``2**n_players`` coalition values.

    ``values[mask]`` is the coalition value for the bitmask ``mask`` (bit a set
    means player a present).  phi_a is the factorial-weighted sum of marginal
    contributions over all coalitions not containing a.
    """
    _check_player_count(n_players)
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size != 2 ** n_players:
        raise ContractError(
            f"expected {2 ** n_players} coalition values, got {values.size}"
        )
    fact = [math.factorial(i) for i in range(n_players + 1)]
    denom = fact[n_players]
    weights = [fact[s] * fact[n_players - s - 1] / denom for s in range(n_players)]

    phi = np.zeros(n_players)
    for mask in range(2 ** n_players):
        size = bin(mask).count("1")
        for a in range(n_players):
            if not mask & (1 << a):
                phi[a] += weights[size] * (values[mask | (1 << a)] - values[mask])
    return phi


def interaction_index(values: np.ndarray, n_players: int, a: int, b: int) -> float:
    """Shapley interaction index between players ``a`` and ``b``.

    The coalition-weighted mixed difference
    ``v(S+{a,b}) - v(S+{a}) - v(S+{b}) + v(S)`` over all S excluding a and b.
    """
    _check_player_count(n_players)
    if a == b:
        raise ContractError("interaction index needs two distinct players")
    values = np.asarray(values, dtype=np.float64).ravel()
    fact = [math.factorial(i) for i in range(n_players)]
    denom = fact[n_players - 1]
    others = [i for i in range(n_players) if i not in (a, b)]
    total = 0.0
    for r in range(len(others) + 1):
        weight = fact[r] * fact[n_players - r - 2] / denom
        for combo in itertools.combinations(others, r):
            mask = sum(1 << i for i in combo)
            mixed = (
                values[mask | (1 << a) | (1 << b)]
                - values[mask | (1 << a)]
                - values[mask | (1 << b)]
                + values[mask]
            )
            total += weight * mixed
    return total


# ---------------------------------------------------------------------------
# coalition evaluation
# ---------------------------------------------------------------------------


def _coalition_rows(instances: RowBatch, background: RowBatch, masks: np.ndarray):
    """Every instance's rows over the background for the coalitions ``masks``,
    as one int64 table.

    The table is ``(n, len(masks), n_bg, 3 + p)``; a row holds the point
    id, then u, v and the covariates with their float64 bits read as int64,
    so equal rows are equal bytes.  Coalition ``mask`` takes player a's
    columns from the instance where bit a is set, and from the background
    row otherwise.  The location player owns the id, u and v columns, so ids
    always match the row whose location is used.
    """
    p = background.x.shape[1]
    # present[i, a]: player a is in the coalition ``masks[i]``
    present = (masks[:, None] >> np.arange(p + 1)) & 1 == 1
    owner = np.concatenate([[GEO_PLAYER] * 3, np.arange(1, p + 1)])

    def columns(rows: RowBatch) -> np.ndarray:
        return np.column_stack([np.asarray(rows.ids, dtype=np.int64),
                                np.asarray(rows.coords, dtype=np.float64).view(np.int64),
                                np.asarray(rows.x, dtype=np.float64).view(np.int64)])

    return np.where(present[:, None, owner], columns(instances)[:, None, None],
                    columns(background))


def _values(predictor, instances: RowBatch, background: RowBatch,
            n_players: int) -> np.ndarray:
    """``(n, 2**n_players)`` coalition values of every instance.

    ``values[i, mask]`` is the mean prediction over the background rows of
    instance i's coalition ``mask``.  A value is a mean of model outputs, so
    a row that recurs (the instance itself in the full coalition, the
    background rows in every instance's empty one) is predicted once per
    block, and the predictor sees each block's distinct ``(id, u, v, x)``
    rows, by exact bytes, once, in one call.  A block is as many instances
    as fit in ``_BLOCK_ROWS`` coalition rows, or, where one instance does
    not fit, a group of its coalitions that does (at least one coalition).
    """
    if len(background) == 0:
        raise ContractError("background must not be empty")
    n_masks = 2 ** n_players
    values = np.empty((len(instances), n_masks))
    group = min(n_masks, max(1, _BLOCK_ROWS // len(background)))
    step = max(1, _BLOCK_ROWS // (group * len(background)))
    for start in range(0, len(instances), step):
        block = slice(start, start + step)
        batch = RowBatch(instances.ids[block], instances.coords[block], instances.x[block])
        for lo in range(0, n_masks, group):
            masks = slice(lo, lo + group)
            table = _coalition_rows(batch, background, np.arange(n_masks)[masks])
            rows = np.ascontiguousarray(table.reshape(-1, table.shape[-1]))
            keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            distinct = rows[first]
            preds = predictor(distinct[:, 0], distinct[:, 1:3].view(np.float64),
                              distinct[:, 3:].view(np.float64))
            values[block, masks] = np.asarray(
                preds, dtype=np.float64)[inverse].reshape(table.shape[:3]).mean(axis=2)
    return values


def coalition_values(predictor, instance_row, background: RowBatch,
                     n_players: int) -> np.ndarray:
    """Values for every coalition bitmask of one instance row ``(id, coords, x)``.

    ``values[mask]`` is the mean prediction over the background rows with the
    coalition's players taken from the instance and the others from each row;
    the predictor is called once, on the distinct rows.
    """
    inst_id, inst_coord, inst_x = instance_row
    instance = RowBatch(ids=np.array([inst_id], dtype=np.int64),
                        coords=np.asarray(inst_coord, dtype=np.float64).reshape(1, 2),
                        x=np.asarray(inst_x, dtype=np.float64).reshape(1, -1))
    return _values(predictor, instance, background, n_players)[0]


class ShapPredictor:
    """Batched row predictor for the attention model, keyed by point id.

    Context sequences are always rebuilt from the true neighbours of each
    row's id; the row's possibly perturbed coordinates and covariates feed
    only the model's own input channels.  By default one deterministic
    member is used so Shapley identities are exact; set ``members > 1`` for
    ensemble-mean explanations.

    The predictor is immutable after construction, which searches the
    neighbours of every id in ``queries``.  Each call searches the ids
    outside ``queries`` (background rows from the context pool) in one
    batched tree search, and member m draws id i's context rows from the
    stream seeded ``[seed, m, i]``.  So a row's output does not depend on
    the order or grouping of the rows, and concurrent calls are safe.
    Sequences are built and run in chunks of at most ``_CHUNK_ROWS`` rows.
    """

    def __init__(self, params: ModelParams, config: ModelConfig,
                 context: ContextPool, queries: QueryPool, members: int = 1,
                 expansion: float = 1.0, seed: int = 0):
        if members < 1:
            raise ContractError("need at least one ensemble member")
        if len(context) < config.l_max:
            raise ContractError(
                f"only {len(context)} context points available, need {config.l_max}")
        self.params = params
        self.config = config
        self.context = context
        self.members = members
        self.seed = seed
        self._cache = precompute_neighbors(
            queries, context, neighbor_budget(config.l_max, expansion)
        )

    def neighbor_ids(self, pid: int, member: int = 0):
        """Context ids one member's sequence would use for ``pid``."""
        return self.context.ids[self._picks(np.array([pid]))[member, 0]].tolist()

    def _picks(self, ids: np.ndarray) -> np.ndarray:
        """``(members, len(ids), l_max - 1)`` context rows placed after each id."""
        context, cache = self.context, self._cache
        id_list = ids.tolist()
        entries = np.empty((len(id_list), cache.rows.shape[1]), dtype=np.intp)
        live = []
        for i, pid in enumerate(id_list):
            if pid in cache:
                entries[i] = cache.entry(pid)
            elif pid in context.row_of:
                live.append(i)
            else:
                raise SequenceLookupError(f"unknown point id {pid}")
        if live:
            # rows substituted from the background carry context-pool ids
            targets = [context.row_of[id_list[i]] for i in live]
            entries[live] = context.tree.search(context.coords[targets], cache.k)[0]
        picks = np.empty((self.members, len(id_list), self.config.l_max - 1), dtype=np.intp)
        for i, pid in enumerate(id_list):
            target = [context.row_of.get(pid, -1)]
            for member in range(self.members):
                rng = np.random.default_rng([self.seed, member, pid])
                picks[member, i] = subset_indices(entries[i:i + 1], target, self.config.l_max, rng)
        return picks

    def __call__(self, ids, coords, x) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64).ravel()
        coords = np.asarray(coords, dtype=np.float64).reshape(len(ids), 2)
        x = np.asarray(x, dtype=np.float64).reshape(len(ids), -1)
        distinct, slot = np.unique(ids, return_inverse=True)
        picks = self._picks(distinct)
        out = np.zeros(len(ids))
        for start in range(0, len(ids), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            for member_picks in picks:
                out[rows] += forward_batch(
                    *sequences(self.context, x[rows], coords[rows], member_picks[slot[rows]]),
                    self.params, self.config)
        return out / self.members


def make_shap_predictor(params: ModelParams, config: ModelConfig,
                        context: ContextPool, queries: QueryPool,
                        members: int = 1, expansion: float = 1.0,
                        seed: int = 0) -> ShapPredictor:
    """Predictor over (id, coords, covariates) rows for post-hoc explainers.

    ``queries`` holds the true rows whose ids may later appear in perturbed
    rows; their neighbourhoods are precomputed here.
    """
    return ShapPredictor(params, config, context, queries,
                         members=members, expansion=expansion, seed=seed)


def geoshapley_explain(predictor, instances: RowBatch,
                       background: RowBatch) -> GeoShapleyResult:
    """Exact location-aware Shapley decomposition for every instance row.

    Instances' coalitions are evaluated a block at a time: the predictor is
    called once per block, on the block's distinct rows.  See the module
    docstring for the cost: ``n * 2**(p+1) * n_bg`` coalition rows, in blocks
    of at most ``max(_BLOCK_ROWS, n_bg)`` rows.
    """
    if instances.x.shape[1] != background.x.shape[1]:
        raise ContractError("instances and background must share the covariate schema")
    p = instances.x.shape[1]
    n_players = p + 1
    _check_player_count(n_players)

    n = len(instances)
    all_values = _values(predictor, instances, background, n_players)
    phi_geo = np.zeros(n)
    phi = np.zeros((n, p))
    phi_geo_x = np.zeros((n, p))
    for i, values in enumerate(all_values):
        raw = shapley_exact(values, n_players)
        sii = np.array([
            interaction_index(values, n_players, GEO_PLAYER, j + 1) for j in range(p)
        ])
        phi_geo_x[i] = sii
        phi[i] = raw[1:] - sii / 2.0
        phi_geo[i] = raw[GEO_PLAYER] - sii.sum() / 2.0
    # the empty coalition is the same background rows for every instance
    phi0 = float(all_values[0, 0]) if n else 0.0
    return GeoShapleyResult(ids=instances.ids.copy(), phi0=phi0,
                            phi_geo=phi_geo, phi=phi, phi_geo_x=phi_geo_x)


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
