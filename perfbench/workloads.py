"""The benchmark's three workloads: set-up, timed rounds and output checks.

Every workload generates its dataset from the run's seed at the default
``reproduce`` size, writes it to CSV, reads it back and splits it with the
default train config.  Everything else uses the ``reproduce`` defaults too
(model config, ensemble members, expansion, explainer seed and background).

A workload times one kind of round (train, predict or explain); rounds are
identical, so each run attempts whole rounds of the same operations.  So that
every run reports every end-to-end metric, the other kinds run as smaller
side rounds, outside the trace; on the workloads whose set-up trains a model,
the training rate comes from those set-up calls.

Durations are CPU seconds of the process (see ``clock``); the wall seconds of
every round are kept beside them in the run record.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

import checks
from geoagg import datasets, explain, model, pipeline, spatial
from geoagg.cli import DEFAULT_CONFIG
from geoagg.explain import RowBatch

DATA = DEFAULT_CONFIG["data"]
PREDICT = DEFAULT_CONFIG["predict"]
EXPLAIN = DEFAULT_CONFIG["explain"]

EPOCHS = 2              # per train call, timed or in set-up: "falls every epoch" needs two
INSTANCES = 20          # test rows explained per explain round
NEIGHBOUR_SAMPLE = 25   # cached neighbour lists checked against brute force
TRAIN_CONFIG = pipeline.TrainConfig(**{**DEFAULT_CONFIG["train"], "epochs": EPOCHS})


@dataclass(frozen=True)
class Plan:
    """How a run of one workload spreads its work over ``blocks`` blocks.

    A block is: set-ups (``setups`` of them, in every ``setup_every``-th
    block), timed rounds for ``seconds / blocks`` (at least one), then side
    rounds, ``side[kind] = (size, rounds)`` per block.  The ~10 s training
    call sets the grain: ``train-sl`` has one per block, and the workloads
    whose set-up trains a model set up in every other block only.
    """

    generator: str
    primary: str
    blocks: int
    setups: int
    setup_every: int
    side: dict


WORKLOADS = {
    "train-sl": Plan("sl", "train", blocks=3, setups=2, setup_every=1,
                     side={"predict": (375, 2), "explain": (5, 3)}),
    "predict-gwr": Plan("gwr", "predict", blocks=4, setups=1, setup_every=2,
                        side={"explain": (5, 2)}),
    "explain-gwr": Plan("gwr", "explain", blocks=4, setups=1, setup_every=2,
                        side={"predict": (375, 1)}),
}


def clock():
    """(CPU seconds of this process and its waited-for children, wall seconds).

    The benchmark is one thread, so on a core of its own the two advance
    together.  On a shared host, time the core is given to other tenants
    passes on the wall clock only; the rates are measured in CPU seconds so
    that they speak of the program, not of its neighbours.
    """
    t = os.times()
    return time.process_time() + t.children_user + t.children_system, time.perf_counter()


def since(t0):
    """(CPU, wall) seconds since ``t0 = clock()``."""
    cpu, wall = clock()
    return cpu - t0[0], wall - t0[1]


@dataclass
class Setup:
    train_ds: object
    test_ds: object
    params: object = None
    config: object = None
    train_s: tuple = (0.0, 0.0)   # (CPU, wall) seconds of the set-up's train call
    # kept to be checked once the set-up has been timed
    generated: object = None
    loaded: object = None
    trained: object = None
    history: list = None


def set_up(generator, seed, workdir, with_model) -> Setup:
    if generator == "sl":
        ds = datasets.generate_sl(DATA["n"], seed, DATA["rho"])
    else:
        ds = datasets.generate_gwr(DATA["n"], seed)
    csv_path = workdir / f"{generator}.csv"
    datasets.save_csv(ds, csv_path)
    loaded = datasets.load_csv(csv_path)
    train_ds, test_ds = pipeline.split_dataset(loaded, TRAIN_CONFIG.split, TRAIN_CONFIG.seed)
    s = Setup(train_ds, test_ds, generated=ds, loaded=loaded)
    if with_model:
        t0 = clock()
        s.trained, s.history = pipeline.train(train_ds, model.ModelConfig(), TRAIN_CONFIG)
        s.train_s = since(t0)
        model_path = workdir / "model.json"
        model.save_params(model_path, s.trained, model.ModelConfig(), asdict(TRAIN_CONFIG))
        s.params, s.config, _ = model.load_params(model_path)
    return s


def check_setup(s: Setup) -> list[str]:
    errors = checks.same_dataset(s.generated, s.loaded)
    if s.trained is not None:
        errors += checks.training(s.history, s.train_ds, EPOCHS)
        errors += checks.same_params(s.trained, s.params)
    return errors


# Each round returns (operations attempted, units for the rate, output).


def train_round(s: Setup):
    params, history = pipeline.train(s.train_ds, model.ModelConfig(), TRAIN_CONFIG)
    return EPOCHS, EPOCHS * s.train_ds.n, (params, history)


def predict_round(s: Setup, n_queries=None):
    context = spatial.ContextPool(s.train_ds.points)
    queries = spatial.QueryPool(s.test_ds.points[:n_queries])
    pred = pipeline.predict_ensemble(s.params, s.config, queries, context,
                                     members=PREDICT["members"],
                                     expansion=PREDICT["expansion"],
                                     seed=PREDICT["seed"])
    return len(queries), len(queries), (pred, context)


def explain_round(s: Setup, n_instances=INSTANCES):
    # the same draws as `geoagg reproduce`: background rows, then instances
    rng = np.random.default_rng([4, EXPLAIN["seed"]])
    bg_idx = rng.choice(s.train_ds.n, size=EXPLAIN["background"], replace=False)
    background = RowBatch.from_records([s.train_ds.points[i] for i in sorted(bg_idx)])
    pick = rng.choice(s.test_ds.n, size=n_instances, replace=False)
    inst_recs = [s.test_ds.points[i] for i in sorted(pick)]
    instances = RowBatch.from_records(inst_recs)
    predictor = explain.make_shap_predictor(
        s.params, s.config, spatial.ContextPool(s.train_ds.points),
        spatial.QueryPool(inst_recs), seed=EXPLAIN["seed"])
    result = explain.geoshapley_explain(predictor, instances, background)
    beta = explain.local_coefficients(result, instances, background)
    return n_instances, n_instances, (predictor, result, beta, instances, background)


ROUNDS = {"train": train_round, "predict": predict_round, "explain": explain_round}


def _fingerprint(kind, out):
    """Bytes that must repeat exactly when a round is run again on the same input."""
    if kind == "train":
        return np.asarray(out[1]).tobytes()
    if kind == "predict":
        return out[0].mean.tobytes() + out[0].std.tobytes()
    result = out[1]
    return b"".join(a.tobytes() for a in (result.phi_geo, result.phi, result.phi_geo_x))


def check_round(kind, s: Setup, out, primary: bool) -> list[str]:
    if kind == "train":
        params, history = out
        errors = checks.training(history, s.train_ds, EPOCHS)
        if primary:
            errors += checks.gradient(params, model.ModelConfig(), s.train_ds,
                                      TRAIN_CONFIG.expansion_factor, TRAIN_CONFIG.seed)
        return errors
    if kind == "predict":
        pred, context = out
        errors = checks.prediction(pred, s.test_ds.ids()[:len(pred.ids)],
                                   context.tree.query_count, PREDICT["members"])
        if primary:
            errors += checks.accuracy(pred, s.train_ds, s.test_ds)
            rng = np.random.default_rng(0)
            sample = rng.choice(s.test_ds.n, size=NEIGHBOUR_SAMPLE, replace=False)
            queries = spatial.QueryPool([s.test_ds.points[i] for i in sorted(sample)])
            k = spatial.neighbor_budget(s.config.l_max, PREDICT["expansion"])
            errors += checks.neighbours(context, queries, k)
        return errors
    predictor, result, _, instances, background = out
    errors = checks.explanation(predictor, result, instances, background)
    if primary:
        errors += checks.oracle_recovery(instances, background)
    return errors


@dataclass
class Outcome:
    errors: list
    attempted: int
    setup_s: list             # CPU seconds of each set-up
    work: dict                # round kind -> (units, CPU seconds) of its untraced rounds
    round_s: list             # CPU seconds of the untraced primary rounds
    traced_round_s: list      # CPU seconds of the traced primary rounds
    wall: dict                # "setup", round kinds and "traced" -> wall seconds


def run(workload, seed, seconds, workdir, tracer=None) -> Outcome:
    """Run the workload's blocks of set-ups, timed rounds and side rounds.

    Spreading set-ups and rounds over the whole run makes every median cover
    the run's full length, not one stretch of it.  With a tracer, set-ups
    are traced and timed rounds alternate between untraced and traced, so the
    run measures its own tracing overhead.
    """
    plan = WORKLOADS[workload]
    primary = plan.primary
    with_model = primary != "train"
    errors: list[str] = []
    out = Outcome(errors, 0, [], {}, [], [], {})

    def record(key, dt, units=None):
        out.wall.setdefault(key, []).append(dt[1])
        if units is not None:
            out.work.setdefault(key, []).append((units, dt[0]))

    fingerprints: dict[str, bytes] = {}
    last: dict[str, object] = {}

    def traced(name, on=True):
        return tracer.root(name) if tracer is not None and on else nullcontext()

    def keep(kind, result):
        fp = _fingerprint(kind, result)
        if fingerprints.setdefault(kind, fp) != fp:
            errors.append(f"{kind} output changed between identical rounds")
        last[kind] = result

    for block in range(plan.blocks):
        for _ in range(plan.setups if block % plan.setup_every == 0 else 0):
            t0 = clock()
            with traced("setup"):
                s = set_up(plan.generator, seed, workdir, with_model)
            dt = since(t0)
            out.setup_s.append(dt[0])
            record("setup", dt)
            errors += check_setup(s)
            if with_model:
                record("train", s.train_s, EPOCHS * s.train_ds.n)

        start = time.perf_counter()
        while True:
            trace_this = tracer is not None and len(out.round_s) > len(out.traced_round_s)
            t0 = clock()
            with traced("round", trace_this):
                ops, units, result = ROUNDS[primary](s)
            dt = since(t0)
            out.attempted += ops
            if trace_this:
                out.traced_round_s.append(dt[0])
                record("traced", dt)
            else:
                out.round_s.append(dt[0])
                record(primary, dt, units)
            keep(primary, result)
            balanced = len(out.round_s) == len(out.traced_round_s)
            if (time.perf_counter() - start >= seconds / plan.blocks
                    and (tracer is None or balanced or block < plan.blocks - 1)):
                break

        if primary == "train":
            s.params, s.config = result[0], model.ModelConfig()
        for kind, (size, repeats) in plan.side.items():
            for _ in range(repeats):
                t0 = clock()
                _, units, side = ROUNDS[kind](s, size)
                record(kind, since(t0), units)
                keep(kind, side)

    for kind, result in last.items():
        errors += check_round(kind, s, result, primary=kind == primary)
    return out
