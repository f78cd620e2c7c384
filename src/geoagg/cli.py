"""Command-line front end: generate, train, predict, explain, bench, reproduce.

Every command is a pure function of its flags and input files.  Settings
resolve in :func:`_settings`: ``DEFAULT_CONFIG``, then ``--config``, then
flags; each seed comes from its flag, then ``GA_SEED``, then the config.  One
check, :func:`_check_settings`, then judges them against the model the step
runs, the config's or the model file's, before any dataset is read.  The
steps are each written once, and ``reproduce`` runs them on the datasets it
generates.  Model files embed the architecture and the training config, so
``predict``, ``explain`` and ``bench`` re-derive the exact train/test split
from the model file and the dataset alone.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .autodiff import ContractError
from .datasets import CsvFormatError, generate_gwr, generate_sl, load_csv, read_json, save_csv
from .explain import (
    RowBatch,
    geoshapley_explain,
    local_coefficients,
    make_shap_predictor,
    write_explanations_csv,
)
from .model import (ModelConfig, build_config, check_config_value, load_params, param_shapes,
                    save_params)
from .pipeline import (
    TrainConfig,
    benchmark_inference,
    predict_ensemble,
    split_dataset,
    train,
    write_bench_csv,
    write_loss_csv,
    write_predictions_csv,
)
from .spatial import ContextPool, QueryPool, SequenceLookupError, neighbor_budget

__all__ = ["main", "DEFAULT_CONFIG", "load_config"]

DEFAULT_CONFIG = {
    "model": asdict(ModelConfig()),
    "train": asdict(TrainConfig()),
    "data": {"n": 2500, "gwr_seed": 42, "sl_seed": 7, "rho": 0.6},
    "predict": {"members": 8, "expansion": 1.25, "seed": 100},
    "explain": {"background": 30, "instances": 50, "seed": 200},
    "bench": {"lengths": [16, 32, 64, 128], "members": 8},
}


def _merge_strict(defaults: dict, user: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}{key}"
        if key not in defaults:
            raise ContractError(f"unknown config key {here!r}")
        value = check_config_value(f"config key {here!r}", defaults[key], value)
        if isinstance(value, dict):
            value = _merge_strict(defaults[key], value, here + ".")
        merged[key] = value
    return merged


def load_config(path=None) -> dict:
    """Defaults overlaid with a JSON config file; unknown keys are rejected."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    user = read_json(path, ContractError)
    if not isinstance(user, dict):
        raise ContractError("config file must hold a JSON object")
    return _merge_strict(DEFAULT_CONFIG, user)


def _resolve_seed(flag_value, config_value):
    """Precedence: command-line flag, then GA_SEED, then config/default."""
    seed, env = flag_value, os.environ.get("GA_SEED")
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ContractError(f"GA_SEED must be an integer, got {env!r}") from None
    seed = int(config_value if seed is None else seed)
    if seed < 0:
        raise ContractError(f"seed must be nonnegative, got {seed}")
    if seed >= 2 ** 63:
        raise ContractError(f"seed must be below 2**63, got {seed}")
    return seed


def _settings(args, *sections) -> dict:
    """The run config, where a set flag replaces its key in the command's own
    section and every seed of ``sections`` goes through :func:`_resolve_seed`."""
    cfg = load_config(getattr(args, "config", None))
    for name in sections:
        for key, value in cfg[name].items():
            flag = getattr(args, key, None) if name == args.command else None
            if key.endswith("seed"):
                cfg[name][key] = _resolve_seed(flag, value)
            elif flag is not None:
                cfg[name][key] = flag
    return cfg


def _check_settings(cfg: dict, model_cfg: ModelConfig) -> None:
    """Reject explain, predict and bench settings that their steps would, running ``model_cfg``."""
    for key in ("background", "instances"):
        if (size := cfg["explain"][key]) < 1:
            raise ContractError(f"config key 'explain.{key}' must be at least 1, got {size}")
    if min(cfg["predict"]["members"], cfg["bench"]["members"]) < 1:
        raise ContractError("need at least one ensemble member")
    neighbor_budget(model_cfg.l_max, cfg["predict"]["expansion"])
    lengths = cfg["bench"]["lengths"]
    if not lengths:
        raise ContractError("config key 'bench.lengths' must hold at least one length")
    if lengths != sorted(lengths):
        raise ContractError("lengths must be ascending")
    for length in lengths:
        replace(model_cfg, l_max=length)
    # one layer suffices: every layer repeats its shapes, and a huge layer count is not walked
    shapes, _ = param_shapes(replace(model_cfg, n_layers=1), 1)
    for name, (shape, _) in shapes.items():
        if math.prod(shape) >= 2 ** 60:
            raise ContractError(f"model array {name!r} of shape {shape} cannot be addressed")


def _load_run(model, data, cfg):
    """A model file's parameters, configs and split; ``cfg`` is checked before the data."""
    params, model_cfg, tc_doc = load_params(model)
    tc = build_config(TrainConfig, "model file", "train_config", {} if tc_doc is None else tc_doc)
    _check_settings(cfg, model_cfg)
    return (params, model_cfg, tc, *split_dataset(load_csv(data), tc.split, tc.seed))


def _train(data, model_cfg, tc, model_out, loss_out):
    train_ds, _ = split_dataset(load_csv(data), tc.split, tc.seed)
    params, history = train(train_ds, model_cfg, tc)
    save_params(model_out, params, model_cfg, asdict(tc))
    write_loss_csv(loss_out, history)
    return train_ds.n, history


def _predict(model, data, cfg, out):
    params, model_cfg, _, train_ds, test_ds = _load_run(model, data, cfg)
    pred = predict_ensemble(params, model_cfg, QueryPool(test_ds), ContextPool(train_ds),
                            **cfg["predict"])
    write_predictions_csv(out, pred)
    return len(pred.ids)


def _explain(model, data, cfg, out, instances=None):
    """Explains the whole test split, or ``instances`` rows drawn from it."""
    params, model_cfg, _, train_ds, test_ds = _load_run(model, data, cfg)
    rng = np.random.default_rng([4, cfg["explain"]["seed"]])
    bg_idx = rng.choice(train_ds.n, min(cfg["explain"]["background"], train_ds.n), replace=False)
    background = RowBatch.from_dataset(train_ds.take(np.sort(bg_idx)))
    if instances is not None and instances < test_ds.n:
        test_ds = test_ds.take(np.sort(rng.choice(test_ds.n, size=instances, replace=False)))
    rows = RowBatch.from_dataset(test_ds)
    predictor = make_shap_predictor(params, model_cfg, ContextPool(train_ds), QueryPool(test_ds),
                                    seed=cfg["explain"]["seed"])
    result = geoshapley_explain(predictor, rows, background)
    write_explanations_csv(out, result, local_coefficients(result, rows, background))
    return len(result.ids)


def _bench(model, data, cfg, out):
    params, model_cfg, tc, train_ds, test_ds = _load_run(model, data, cfg)
    records = benchmark_inference(params, model_cfg, QueryPool(test_ds), ContextPool(train_ds),
                                  **cfg["bench"], expansion=tc.expansion_factor)
    write_bench_csv(out, records)
    return len(records)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    gwr = args.dataset == "gwr-r"
    seed = _resolve_seed(args.seed, DEFAULT_CONFIG["data"]["gwr_seed" if gwr else "sl_seed"])
    if gwr:
        ds = generate_gwr(args.n, seed)
    else:
        ds = generate_sl(args.n, seed, args.rho)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} rows to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _settings(args, "model", "train")
    model_cfg, tc = ModelConfig(**cfg["model"]), TrainConfig(**cfg["train"])
    _check_settings(cfg, model_cfg)
    loss_path = Path(args.model_out).with_suffix(".loss.csv")
    n, history = _train(args.data, model_cfg, tc, args.model_out, loss_path)
    final = history[-1] if history else float("nan")
    print(f"trained {tc.epochs} epochs on {n} points "
          f"(final mse {final:.6g}); model -> {args.model_out}, losses -> {loss_path}")
    return 0


def _cmd_predict(args) -> int:
    cfg = _settings(args, "predict")
    n = _predict(args.model, args.data, cfg, args.out)
    print(f"wrote {n} predictions ({cfg['predict']['members']} members) to {args.out}")
    return 0


def _cmd_explain(args) -> int:
    n = _explain(args.model, args.data, _settings(args, "explain"), args.out)
    print(f"wrote explanations for {n} rows to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    if args.threads != 1:
        raise ContractError("only --threads 1 (serial benchmarking) is supported")
    n = _bench(args.model, args.data, _settings(args, "bench"), args.out)
    print(f"wrote {n} timing rows to {args.out}")
    return 0


def _cmd_reproduce(args) -> int:
    cfg = _settings(args, *DEFAULT_CONFIG)
    model_cfg, tc = ModelConfig(**cfg["model"]), TrainConfig(**cfg["train"])
    _check_settings(cfg, model_cfg)
    # the generators judge data.n before the split sizes below are read from it
    data = cfg["data"]
    runs = {"gwr": generate_gwr(data["n"], data["gwr_seed"]),
            "sl": generate_sl(data["n"], data["sl_seed"], data["rho"])}
    # the train split is the context pool of every step
    n_context = int(round(tc.split * data["n"]))
    if n_context < model_cfg.l_max:
        raise ContractError(f"dataset has {n_context} points, need at least "
                            f"l_max={model_cfg.l_max}")
    lengths = cfg["bench"]["lengths"]
    if n_context < lengths[-1]:
        raise ContractError(f"only {n_context} context points available, need {lengths[-1]}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for tag, ds in runs.items():
        data_path, model_path = outdir / f"{tag}_r.csv", outdir / f"model_{tag}.json"
        save_csv(ds, data_path)
        _train(data_path, model_cfg, tc, model_path, outdir / f"loss_{tag}.csv")
        n = _predict(model_path, data_path, cfg, outdir / f"predictions_{tag}.csv")
        print(f"[{tag}] trained and predicted {n} rows")
        if tag == "gwr":
            n = _explain(model_path, data_path, cfg,
                         outdir / "explanations_gwr.csv", cfg["explain"]["instances"])
            print(f"[gwr] explained {n} rows")
        else:
            _bench(model_path, data_path, cfg, outdir / "bench_sl.csv")
            print("[sl] benchmark written")
    print(f"reproduction artifacts in {outdir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, then exits with code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _int_list(text: str) -> list[int]:
    if not all(tok.strip().isdigit() for tok in text.split(",")):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return [int(tok) for tok in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="geoagg",
        description="Geospatial tabular regression: generate, train, predict, "
                    "explain, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    step = _ArgumentParser(add_help=False)  # what predict, explain and bench read and write
    for flag in ("--model", "--data", "--out"):
        step.add_argument(flag, required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("--dataset", required=True, choices=["gwr-r", "sl-r"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rho", type=float, default=DEFAULT_CONFIG["data"]["rho"],
                   help="spatial-lag strength (sl-r only, default %(default)s)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train a model on the train split of a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="run-config JSON (defaults used if omitted)")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", parents=[step], help="ensemble predictions on the test split")
    p.add_argument("--members", type=int)
    p.add_argument("--expansion", type=float)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("explain", parents=[step],
                       help="location-aware Shapley explanations of the test split")
    p.add_argument("--background", type=_positive_int)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("bench", parents=[step], help="inference timing in both cache modes")
    p.add_argument("--lengths", type=_int_list,
                   help="comma-separated ascending sequence lengths")
    p.add_argument("--members", type=int)
    p.add_argument("--threads", type=int, default=1,
                   help="benchmark worker count (only 1 is supported)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("reproduce",
                       help="chain gen, train, predict, explain, bench with config defaults")
    p.add_argument("--config", default=None)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, CsvFormatError, SequenceLookupError, OSError, MemoryError) as exc:
        print(f"geoagg: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
