"""Command-line front end: generate, train, predict, explain, bench, reproduce.

Every command is a pure function of its flags and input files; all randomness
comes from explicit seeds (flag, then the ``GA_SEED`` environment variable,
then the config value or documented default, in that order).  Model files
embed both the architecture and the training configuration, so ``predict``,
``explain`` and ``bench`` re-derive the exact train/test split from the model
file and the dataset alone.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .autodiff import ContractError
from .datasets import CsvFormatError, generate_gwr, generate_sl, load_csv, save_csv
from .explain import (
    RowBatch,
    geoshapley_explain,
    local_coefficients,
    make_shap_predictor,
    write_explanations_csv,
)
from .model import (ModelConfig, check_config_section, check_config_value, load_params,
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
from .spatial import ContextPool, QueryPool, SequenceLookupError

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
        check_config_value(f"config key {here!r}", defaults[key], value)
        if isinstance(value, dict):
            value = _merge_strict(defaults[key], value, here + ".")
        merged[key] = value
    return merged


def load_config(path=None) -> dict:
    """Defaults overlaid with a JSON config file; unknown keys are rejected."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    user = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(user, dict):
        raise ContractError("config file must hold a JSON object")
    merged = _merge_strict(DEFAULT_CONFIG, user)
    for key in ("background", "instances"):
        if merged["explain"][key] < 1:
            raise ContractError(f"config key 'explain.{key}' must be at least 1, "
                                f"got {merged['explain'][key]}")
    return merged


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
    return seed


def _load_model(path):
    params, config, train_dict = load_params(path)
    train_dict = train_dict or {}
    check_config_section("model file", "train_config", train_dict, asdict(TrainConfig()))
    return params, config, TrainConfig(**train_dict)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    seed = _resolve_seed(args.seed, 42)
    if args.dataset == "gwr-r":
        ds = generate_gwr(args.n, seed)
    else:
        rho = 0.6 if args.rho is None else args.rho
        ds = generate_sl(args.n, seed, rho)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} rows to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    model_cfg = ModelConfig(**cfg["model"])
    tc = TrainConfig(**cfg["train"])
    train_ds, _ = split_dataset(load_csv(args.data), tc.split, tc.seed)
    params, history = train(train_ds, model_cfg, tc)
    save_params(args.model_out, params, model_cfg, asdict(tc))
    loss_path = Path(args.model_out).with_suffix(".loss.csv")
    write_loss_csv(loss_path, history)
    final = history[-1] if history else float("nan")
    print(f"trained {tc.epochs} epochs on {train_ds.n} points "
          f"(final mse {final:.6g}); model -> {args.model_out}, losses -> {loss_path}")
    return 0


def _cmd_predict(args) -> int:
    params, model_cfg, tc = _load_model(args.model)
    train_ds, test_ds = split_dataset(load_csv(args.data), tc.split, tc.seed)
    seed = _resolve_seed(args.seed, DEFAULT_CONFIG["predict"]["seed"])
    pred = predict_ensemble(
        params, model_cfg,
        QueryPool(test_ds), ContextPool(train_ds),
        members=args.members, expansion=args.expansion, seed=seed,
    )
    write_predictions_csv(args.out, pred)
    print(f"wrote {len(pred.ids)} predictions ({args.members} members) to {args.out}")
    return 0


def _cmd_explain(args) -> int:
    params, model_cfg, tc = _load_model(args.model)
    train_ds, test_ds = split_dataset(load_csv(args.data), tc.split, tc.seed)
    seed = _resolve_seed(args.seed, DEFAULT_CONFIG["explain"]["seed"])
    result, beta = _run_explain(params, model_cfg, train_ds, test_ds,
                                n_background=args.background, seed=seed,
                                n_instances=None)
    write_explanations_csv(args.out, result, beta)
    print(f"wrote explanations for {len(result.ids)} rows to {args.out}")
    return 0


def _run_explain(params, model_cfg, train_ds, test_ds, n_background, seed,
                 n_instances=None):
    rng = np.random.default_rng([4, seed])
    bg_idx = rng.choice(train_ds.n, size=min(n_background, train_ds.n), replace=False)
    background = RowBatch.from_dataset(train_ds.take(np.sort(bg_idx)))

    inst_ds = test_ds
    if n_instances is not None and n_instances < test_ds.n:
        pick = rng.choice(test_ds.n, size=n_instances, replace=False)
        inst_ds = test_ds.take(np.sort(pick))
    instances = RowBatch.from_dataset(inst_ds)

    predictor = make_shap_predictor(
        params, model_cfg, ContextPool(train_ds), QueryPool(inst_ds), seed=seed,
    )
    result = geoshapley_explain(predictor, instances, background)
    beta = local_coefficients(result, instances, background)
    return result, beta


def _cmd_bench(args) -> int:
    if args.threads != 1:
        raise ContractError("only --threads 1 (serial benchmarking) is supported")
    params, model_cfg, tc = _load_model(args.model)
    train_ds, test_ds = split_dataset(load_csv(args.data), tc.split, tc.seed)
    records = benchmark_inference(
        params, model_cfg, QueryPool(test_ds), ContextPool(train_ds),
        args.lengths, members=args.members, expansion=tc.expansion_factor,
    )
    write_bench_csv(args.out, records)
    print(f"wrote {len(records)} timing rows to {args.out}")
    return 0


def _cmd_reproduce(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    model_cfg = ModelConfig(**cfg["model"])
    tc = TrainConfig(**{**cfg["train"], "seed": _resolve_seed(None, cfg["train"]["seed"])})
    data_cfg = cfg["data"]

    runs = {
        "gwr": generate_gwr(data_cfg["n"], _resolve_seed(None, data_cfg["gwr_seed"])),
        "sl": generate_sl(data_cfg["n"], _resolve_seed(None, data_cfg["sl_seed"]),
                          data_cfg["rho"]),
    }
    for tag, ds in runs.items():
        data_path = outdir / f"{tag}_r.csv"
        save_csv(ds, data_path)
        train_ds, test_ds = split_dataset(ds, tc.split, tc.seed)
        params, history = train(train_ds, model_cfg, tc)
        save_params(outdir / f"model_{tag}.json", params, model_cfg, asdict(tc))
        write_loss_csv(outdir / f"loss_{tag}.csv", history)

        pred = predict_ensemble(
            params, model_cfg, QueryPool(test_ds), ContextPool(train_ds),
            members=cfg["predict"]["members"], expansion=cfg["predict"]["expansion"],
            seed=_resolve_seed(None, cfg["predict"]["seed"]),
        )
        write_predictions_csv(outdir / f"predictions_{tag}.csv", pred)
        print(f"[{tag}] trained and predicted {len(pred.ids)} rows")

        if tag == "gwr":
            result, beta = _run_explain(
                params, model_cfg, train_ds, test_ds,
                n_background=cfg["explain"]["background"],
                seed=_resolve_seed(None, cfg["explain"]["seed"]),
                n_instances=cfg["explain"]["instances"],
            )
            write_explanations_csv(outdir / "explanations_gwr.csv", result, beta)
            print(f"[gwr] explained {len(result.ids)} rows")
        else:
            records = benchmark_inference(
                params, model_cfg, QueryPool(test_ds), ContextPool(train_ds),
                cfg["bench"]["lengths"], members=cfg["bench"]["members"],
                expansion=tc.expansion_factor,
            )
            write_bench_csv(outdir / "bench_sl.csv", records)
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

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("--dataset", required=True, choices=["gwr-r", "sl-r"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rho", type=float, default=None,
                   help="spatial-lag strength (sl-r only, default 0.6)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train a model on the train split of a CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="run-config JSON (defaults used if omitted)")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="ensemble predictions on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--members", type=int, default=8)
    p.add_argument("--expansion", type=float, default=1.25)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("explain", help="location-aware Shapley explanations of the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--background", type=_positive_int, default=30)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("bench", help="inference timing in both cache modes")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lengths", type=_int_list, default="16,32,64,128",
                   help="comma-separated ascending sequence lengths")
    p.add_argument("--members", type=int, default=8)
    p.add_argument("--threads", type=int, default=1,
                   help="benchmark worker count (only 1 is supported)")
    p.add_argument("--out", required=True)
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
    except (ContractError, CsvFormatError, SequenceLookupError,
            OSError, json.JSONDecodeError) as exc:
        print(f"geoagg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
