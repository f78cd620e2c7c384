"""Command-line interface tests (run in-process through main())."""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoagg.autodiff import ContractError
from geoagg.cli import DEFAULT_CONFIG, _merge_strict, load_config, main
from geoagg.datasets import load_csv
from geoagg.model import ModelConfig, build_config, init_params, load_params, save_params
from geoagg.pipeline import TrainConfig, split_dataset
from geoagg.spatial import neighbor_budget


SMALL_CONFIG = {
    "model": {"d_model": 8, "n_heads": 2, "n_inducing": 2, "l_max": 8, "n_layers": 1},
    "train": {"epochs": 2, "batch": 16, "seed": 3},
    "data": {"n": 144, "gwr_seed": 5, "sl_seed": 6, "rho": 0.5},
    "predict": {"members": 3, "expansion": 1.25, "seed": 11},
    "explain": {"background": 5, "instances": 4, "seed": 12},
    "bench": {"lengths": [4, 8], "members": 2},
}


# settings the predict and bench steps would reject, and their messages
BAD_INFERENCE_SETTINGS = pytest.mark.parametrize("section, key, value, message", [
    ("predict", "members", 0, "need at least one ensemble member"),
    ("predict", "expansion", 0.5, "expansion factor must be finite and >= 1, got 0.5"),
    ("bench", "members", 0, "need at least one ensemble member"),
    ("bench", "lengths", [8, 4], "lengths must be ascending"),
    ("bench", "lengths", [1], "l_max must be at least 2"),
    ("bench", "lengths", [], "config key 'bench.lengths' must hold at least one length"),
], ids=["predict-members", "predict-expansion", "bench-members", "bench-descending",
        "bench-length-1", "bench-no-lengths"])


def write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    if overrides:
        cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def run_captured(*argv):
    """``main``'s exit code, a usage error's included, and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run(*argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def save_small_model(path):
    """An untrained model file of SMALL_CONFIG's model and train sections, for
    checks that end before any data is read."""
    config = ModelConfig(**SMALL_CONFIG["model"])
    params = init_params(config, 2, np.random.default_rng(0))
    save_params(path, params, config, asdict(TrainConfig(**SMALL_CONFIG["train"])))
    return path


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    return save_small_model(tmp_path_factory.mktemp("small_model") / "model.json")


class TestGen:
    def test_writes_rows_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "ds.csv"
        assert run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 42,
                   "--out", out) == 0
        assert out.exists()
        assert (tmp_path / "ds.csv.meta.json").exists()
        assert len(out.read_text().splitlines()) == 145

    def test_same_command_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "--dataset", "sl-r", "--n", 121, "--seed", 9, "--out", a)
        run("gen", "--dataset", "sl-r", "--n", 121, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_non_square_n_is_a_data_error(self, tmp_path, capsys):
        code = run("gen", "--dataset", "gwr-r", "--n", 145, "--seed", 1,
                   "--out", tmp_path / "x.csv")
        assert code == 1
        assert "square" in capsys.readouterr().err

    def test_sl_default_seed_is_the_config_sl_seed(self, tmp_path):
        """Without ``--seed``, ``gen`` writes the dataset ``reproduce`` writes."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("gen", "--dataset", "sl-r", "--n", 144, "--out", a) == 0
        assert run("gen", "--dataset", "sl-r", "--n", 144, "--seed", 7, "--out", b) == 0
        assert DEFAULT_CONFIG["data"]["sl_seed"] == 7
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--dataset", "gwr-r", "--n", 144, "--nope", 1)
        assert exc.value.code == 2

    def test_bad_dataset_choice_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--dataset", "other", "--n", 144, "--out", tmp_path / "x.csv")
        assert exc.value.code == 2


@pytest.fixture()
def trained(tmp_path):
    data = tmp_path / "data.csv"
    model = tmp_path / "model.json"
    cfg = write_config(tmp_path)
    run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 5, "--out", data)
    assert run("train", "--data", data, "--config", cfg, "--model-out", model) == 0
    return data, model, cfg, tmp_path


class TestTrainPredictExplainBench:
    def test_train_writes_model_and_loss_history(self, trained):
        data, model, cfg, tmp_path = trained
        assert model.exists()
        loss = tmp_path / "model.loss.csv"
        lines = loss.read_text().splitlines()
        assert lines[0] == "epoch,mse"
        assert len(lines) == 1 + SMALL_CONFIG["train"]["epochs"]

    def test_predict_writes_nonnegative_std(self, trained, capsys):
        data, model, cfg, tmp_path = trained
        out = tmp_path / "pred.csv"
        assert run("predict", "--model", model, "--data", data, "--members", 3,
                   "--expansion", 1.25, "--seed", 11, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,y_mean,y_std"
        stds = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert len(stds) == 144 - round(0.7 * 144)
        assert min(stds) >= 0.0

    def test_predict_is_deterministic(self, trained):
        data, model, cfg, tmp_path = trained
        a, b = tmp_path / "p1.csv", tmp_path / "p2.csv"
        run("predict", "--model", model, "--data", data, "--seed", 11, "--out", a)
        run("predict", "--model", model, "--data", data, "--seed", 11, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_explain_writes_decomposition(self, trained):
        data, model, cfg, tmp_path = trained
        out = tmp_path / "explain.csv"
        assert run("explain", "--model", model, "--data", data, "--background", 5,
                   "--seed", 12, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("id,phi0,phi_geo,phi_x1,phi_x2,phi_geo_x1")
        assert len(lines) == 1 + (144 - round(0.7 * 144))

    def test_bench_rows_and_ratio(self, trained):
        data, model, cfg, tmp_path = trained
        out = tmp_path / "bench.csv"
        assert run("bench", "--model", model, "--data", data, "--lengths", "4,8",
                   "--members", 2, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "length,mode,seconds"
        assert len(lines) == 6  # 2 lengths x 2 modes + ratio
        assert lines[-1].startswith("all,ratio,")

    def test_bench_rejects_multithreading(self, trained, capsys):
        data, model, cfg, tmp_path = trained
        code = run("bench", "--model", model, "--data", data, "--threads", 4,
                   "--out", tmp_path / "b.csv")
        assert code == 1
        assert "threads" in capsys.readouterr().err

    def test_non_finite_covariate_is_a_data_error(self, trained, capsys):
        data, model, cfg, tmp_path = trained
        lines = data.read_text().splitlines()
        cells = lines[1].split(",")
        cells[3] = "nan"
        lines[1] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        # predict pools both splits, so the bad row is caught wherever it lands
        code = run("predict", "--model", model, "--data", bad, "--out", tmp_path / "p.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert f"id {cells[0]} has non-finite covariates" in err
        assert len(err.strip().splitlines()) == 1

    def test_id_outside_int64_is_a_data_error(self, trained, capsys):
        data, model, cfg, tmp_path = trained
        lines = data.read_text().splitlines()
        lines[1] = "99999999999999999999," + lines[1].split(",", 1)[1]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run("predict", "--model", model, "--data", bad, "--out", tmp_path / "p.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2, column 'id'" in err
        assert len(err.strip().splitlines()) == 1

    def test_model_file_that_does_not_fit_its_config_is_runtime_error(self, trained, capsys):
        data, model, cfg, tmp_path = trained
        doc = json.loads(model.read_text())
        doc["model_config"]["n_layers"] = 2  # the file holds one layer's arrays
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = run("predict", "--model", bad, "--data", data, "--out", tmp_path / "p.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert "parameter file lacks array 'l1.a.wk'" in err
        assert len(err.strip().splitlines()) == 1

    def test_non_finite_model_file_is_runtime_error(self, trained, capsys):
        data, model, cfg, tmp_path = trained
        doc = json.loads(model.read_text())
        doc["arrays"]["agg.lam_raw"][1][0] = float("nan")
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = run("explain", "--model", bad, "--data", data, "--out", tmp_path / "e.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert "parameter file array 'agg.lam_raw' holds non-finite values" in err
        assert len(err.strip().splitlines()) == 1

    def test_diverging_training_is_runtime_error(self, trained, capsys):
        data, _, _, tmp_path = trained
        cfg = write_config(tmp_path, {"train": {**SMALL_CONFIG["train"], "lr": 1e30}})
        with pytest.warns(RuntimeWarning):
            code = run("train", "--data", data, "--config", cfg,
                       "--model-out", tmp_path / "diverged.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "training diverged: epoch" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "diverged.json").exists()

    def test_missing_context_target_is_a_data_error(self, trained, capsys):
        """A blank ``y`` on a train-split row stops every command at the pool."""
        data, model, cfg, tmp_path = trained
        train_ds, _ = split_dataset(load_csv(data), 0.7, SMALL_CONFIG["train"]["seed"])
        pid = train_ds.points[0].id
        lines = data.read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.split(",")[0] == str(pid))
        lines[row] = lines[row].rsplit(",", 1)[0] + ","
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        commands = [
            ("train", "--data", bad, "--config", cfg, "--model-out", tmp_path / "m2.json"),
            ("predict", "--model", model, "--data", bad, "--out", tmp_path / "p.csv"),
            ("explain", "--model", model, "--data", bad, "--background", 5,
             "--out", tmp_path / "e.csv"),
        ]
        for argv in commands:
            assert run(*argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert f"context point id {pid} lacks a target value" in err, argv[0]
            assert len(err.strip().splitlines()) == 1, argv[0]
        assert not (tmp_path / "e.csv").exists()

    def test_unknown_train_config_key_is_runtime_error(self, trained, capsys):
        data, model, cfg, tmp_path = trained
        doc = json.loads(model.read_text())
        doc["train_config"]["warmup"] = 3
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = run("predict", "--model", bad, "--data", data, "--out", tmp_path / "p.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown train_config key 'warmup'" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--background", "0"), ("--background", "-1"),
        ("--lengths", "4,x"), ("--lengths", ""),
    ])
    def test_bad_argument_is_one_line_usage_error(self, trained, capsys, flag, value):
        data, model, cfg, tmp_path = trained
        command = "explain" if flag == "--background" else "bench"
        with pytest.raises(SystemExit) as exc:
            run(command, "--model", model, "--data", data, flag, value,
                "--out", tmp_path / "o.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("section, key, value, message", [
        ("train_config", "epochs", "3",
         "model file's train_config key 'epochs' must be an integer, got '3'"),
        ("model_config", "l_max", "16",
         "parameter file's model_config key 'l_max' must be an integer, got '16'"),
        ("train_config", "lr", True,
         "model file's train_config key 'lr' must be a number, got True"),
    ], ids=["epochs-string", "l_max-string", "lr-bool"])
    def test_mistyped_model_file_value_is_runtime_error(self, trained, capsys,
                                                        section, key, value, message):
        data, model, cfg, tmp_path = trained
        doc = json.loads(model.read_text())
        doc[section][key] = value
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = run("predict", "--model", bad, "--data", data, "--out", tmp_path / "p.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("source", [
        "gen-flag", "predict-flag", "explain-flag", "env", "config-file", "model-file",
    ])
    def test_negative_seed_is_runtime_error(self, trained, capsys, monkeypatch, source):
        data, model, cfg, tmp_path = trained
        out = tmp_path / "o.csv"
        if source == "gen-flag":
            argv = ["gen", "--dataset", "gwr-r", "--n", 144, "--seed", -1, "--out", out]
        elif source.endswith("-flag"):
            argv = [source[:-5], "--model", model, "--data", data, "--seed", -1, "--out", out]
        elif source == "env":
            monkeypatch.setenv("GA_SEED", "-3")
            argv = ["predict", "--model", model, "--data", data, "--out", out]
        elif source == "config-file":
            bad = write_config(tmp_path, {"train": {**SMALL_CONFIG["train"], "seed": -2}})
            argv = ["train", "--data", data, "--config", bad, "--model-out", tmp_path / "m.json"]
        else:
            doc = json.loads(model.read_text())
            doc["train_config"]["seed"] = -2
            bad = tmp_path / "bad_model.json"
            bad.write_text(json.dumps(doc))
            argv = ["predict", "--model", bad, "--data", data, "--out", out]
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "seed must be nonnegative, got -" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("source, seed", [
        ("predict-flag", 2 ** 63), ("predict-flag", 99999999999999999999999),
        ("env", 2 ** 63), ("reproduce-config", 2 ** 63),
    ], ids=["predict-flag", "predict-flag-huge", "env", "reproduce-config"])
    def test_seed_past_int64_is_runtime_error(self, trained, capsys, monkeypatch,
                                              source, seed):
        data, model, cfg, tmp_path = trained
        out = tmp_path / "o.csv"
        if source == "predict-flag":
            argv = ["predict", "--model", model, "--data", data, "--seed", seed, "--out", out]
        elif source == "env":
            monkeypatch.setenv("GA_SEED", str(seed))
            argv = ["predict", "--model", model, "--data", data, "--out", out]
        else:
            bad = write_config(tmp_path, {"predict": {**SMALL_CONFIG["predict"], "seed": seed}})
            out = tmp_path / "run"
            argv = ["reproduce", "--config", bad, "--outdir", out]
        capsys.readouterr()
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"geoagg: error: seed must be below 2**63, got {seed}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("source, key, value, message", [
        ("predict-flag", "expansion", "nan", "expansion factor must be finite and >= 1, got nan"),
        ("predict-flag", "expansion", "inf", "expansion factor must be finite and >= 1, got inf"),
        ("predict-flag", "expansion", "1e308",
         "expansion factor 1e+308 times l_max=8 is not finite"),
        ("config-file", "expansion_factor", float("nan"),
         "expansion_factor must be finite and >= 1, got nan"),
        ("config-file", "lr", -1.0, "lr must be finite and positive, got -1.0"),
        ("train_config", "expansion_factor", float("nan"),
         "expansion_factor must be finite and >= 1, got nan"),
        ("model_config", "rope_base", -5, "rope_base must be finite and positive, got -5"),
    ])
    def test_out_of_range_float_is_runtime_error(self, trained, capsys,
                                                 source, key, value, message):
        data, model, cfg, tmp_path = trained
        out = tmp_path / "o.csv"
        if source == "predict-flag":
            argv = ["predict", "--model", model, "--data", data, f"--{key}", value, "--out", out]
        elif source == "config-file":
            bad = write_config(tmp_path, {"train": {**SMALL_CONFIG["train"], key: value}})
            out = tmp_path / "m.json"
            argv = ["train", "--data", data, "--config", bad, "--model-out", out]
        else:
            doc = json.loads(model.read_text())
            doc[source][key] = value
            bad = tmp_path / "bad_model.json"
            bad.write_text(json.dumps(doc))
            argv = ["predict", "--model", bad, "--data", data, "--out", out]
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err == f"geoagg: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config-file", "model-file"])
    @pytest.mark.parametrize("heads, message", [
        ({"n_heads": 0}, "n_heads must be at least 1, got 0"),
        ({"n_heads": -4}, "n_heads must be at least 1, got -4"),
        ({"d_model": 0}, "d_model must be at least 1, got 0"),
        ({"d_model": 24, "n_heads": 4}, "head_dim=6 must be divisible by 4"),
    ], ids=["zero-heads", "negative-heads", "zero-width", "head-width-6"])
    def test_impossible_heads_are_runtime_errors(self, trained, capsys, source, heads, message):
        """Each fails in one line as the model config is read, before any data."""
        data, model, cfg, tmp_path = trained
        if source == "config-file":
            bad = write_config(tmp_path, {"model": {**SMALL_CONFIG["model"], **heads}})
            out = tmp_path / "m.json"
            argv = ["train", "--data", data, "--config", bad, "--model-out", out]
        else:
            doc = json.loads(model.read_text())
            doc["model_config"].update(heads)
            bad = tmp_path / "bad_model.json"
            bad.write_text(json.dumps(doc))
            out = tmp_path / "p.csv"
            argv = ["predict", "--model", bad, "--data", data, "--out", out]
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err == f"geoagg: error: {message}\n"
        assert not out.exists()

    def test_missing_model_file_is_runtime_error(self, tmp_path, capsys):
        code = run("predict", "--model", tmp_path / "absent.json",
                   "--data", tmp_path / "absent.csv", "--out", tmp_path / "o.csv")
        assert code == 1


class TestBadDataFiles:
    """An input file that cannot be read fails in one line, with exit code 1."""

    def _train(self, tmp_path, data):
        return run("train", "--data", data, "--config", write_config(tmp_path),
                   "--model-out", tmp_path / "m.json")

    def test_sidecar_that_is_not_an_object(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 1, "--out", data)
        sidecar = tmp_path / "d.csv.meta.json"
        sidecar.write_text("[1]")
        capsys.readouterr()
        assert self._train(tmp_path, data) == 1
        err = capsys.readouterr().err
        assert err == f"geoagg: error: {sidecar}: must hold a JSON object, found list\n"
        assert not (tmp_path / "m.json").exists()

    def test_csv_that_is_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"id,u,v,x1,y\n0,0.5,0.5,1.0,\xff\n")
        assert self._train(tmp_path, data) == 1
        err = capsys.readouterr().err
        assert err == (f"geoagg: error: {data}: not UTF-8 text "
                       f"(invalid start byte at byte 26)\n")

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        data, cfg = tmp_path / "d.csv", tmp_path / "c.json"
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 1, "--out", data)
        cfg.write_bytes(b'{"train": {"epochs": 1}}\xff')
        capsys.readouterr()
        assert run("train", "--data", data, "--config", cfg,
                   "--model-out", tmp_path / "m.json") == 1
        err = capsys.readouterr().err
        assert err == f"geoagg: error: {cfg}: not UTF-8 text (invalid start byte at byte 24)\n"
        assert not (tmp_path / "m.json").exists()

    def test_model_file_that_is_not_utf8(self, trained, capsys):
        data, model, _, tmp_path = trained
        bad = tmp_path / "bad_model.json"
        bad.write_bytes(model.read_bytes() + b"\xff")
        capsys.readouterr()
        assert run("predict", "--model", bad, "--data", data, "--out", tmp_path / "p.csv") == 1
        err = capsys.readouterr().err
        assert err == (f"geoagg: error: {bad}: not UTF-8 text "
                       f"(invalid start byte at byte {len(model.read_bytes())})\n")
        assert not (tmp_path / "p.csv").exists()

    def test_config_that_is_not_json(self, tmp_path, capsys):
        data, cfg = tmp_path / "d.csv", tmp_path / "c.json"
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 1, "--out", data)
        cfg.write_text('{"train": {')
        capsys.readouterr()
        assert run("train", "--data", data, "--config", cfg,
                   "--model-out", tmp_path / "m.json") == 1
        err = capsys.readouterr().err
        assert err == (f"geoagg: error: {cfg}: not valid JSON (Expecting property name "
                       f"enclosed in double quotes at line 1 column 12)\n")
        assert not (tmp_path / "m.json").exists()

    def test_model_file_that_is_not_json(self, trained, capsys):
        data, model, _, tmp_path = trained
        bad = tmp_path / "bad_model.json"
        bad.write_text(model.read_text().replace("{", "[", 1))
        capsys.readouterr()
        assert run("predict", "--model", bad, "--data", data, "--out", tmp_path / "p.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"geoagg: error: {bad}: not valid JSON (")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "p.csv").exists()

    def test_sidecar_that_is_not_json(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 1, "--out", data)
        sidecar = tmp_path / "d.csv.meta.json"
        sidecar.write_text("{]")
        capsys.readouterr()
        assert self._train(tmp_path, data) == 1
        err = capsys.readouterr().err
        assert err == (f"geoagg: error: {sidecar}: not valid JSON (Expecting property name "
                       f"enclosed in double quotes at line 1 column 2)\n")
        assert not (tmp_path / "m.json").exists()

    def test_coordinates_too_far_apart(self, tmp_path, capsys, time_limit):
        """Squared distances that would overflow once hung the neighbour search."""
        data = tmp_path / "d.csv"
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 1, "--out", data)
        lines = data.read_text().splitlines()
        assert lines[0].split(",")[1] == "u"
        # every other row far out along u, so the train split holds some of them
        for i in range(1, len(lines), 2):
            cells = lines[i].split(",")
            cells[1] = "1e200"
            lines[i] = ",".join(cells)
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        with time_limit(60):
            code = self._train(tmp_path, data)
        assert code == 1
        assert capsys.readouterr().err == (
            "geoagg: error: coordinates must span at most 2**510 along each axis\n")
        assert not (tmp_path / "m.json").exists()

    def test_data_path_that_is_a_directory(self, tmp_path, capsys):
        folder = tmp_path / "folder.csv"
        folder.mkdir()
        assert self._train(tmp_path, folder) == 1
        err = capsys.readouterr().err
        assert err.startswith("geoagg: error: ") and str(folder) in err
        assert len(err.strip().splitlines()) == 1


class TestLeanProcess:
    """No command loads scipy, the spatial-lag generator and ``reproduce`` included."""

    def test_commands_load_no_scipy(self, tmp_path):
        data, model, cfg = tmp_path / "gwr.csv", tmp_path / "model.json", write_config(tmp_path)
        steps = [
            ["gen", "--dataset", "sl-r", "--n", 144, "--seed", 6, "--out", tmp_path / "sl.csv"],
            ["gen", "--dataset", "gwr-r", "--n", 144, "--seed", 5, "--out", data],
            ["train", "--data", data, "--config", cfg, "--model-out", model],
            ["predict", "--model", model, "--data", data, "--out", tmp_path / "p.csv"],
            ["explain", "--model", model, "--data", data, "--background", 5,
             "--out", tmp_path / "e.csv"],
            ["reproduce", "--config", cfg, "--outdir", tmp_path / "run"],
        ]
        script = (
            "import sys\n"
            "from geoagg.cli import main\n"
            f"for argv in {[[str(a) for a in step] for step in steps]!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = run_child(script, tmp_path)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "[]"


def run_child(script, cwd):
    """``script`` run by a fresh interpreter that imports this checkout's geoagg."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def trained_once(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained_once")
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    assert run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 5, "--out", data) == 0
    assert run("train", "--data", data, "--config", write_config(tmp_path),
               "--model-out", model) == 0
    return data, model, tmp_path


class TestResourceBounds:
    """Member counts whose outputs cannot be allocated, or not even
    addressed, end in one line with exit code 1.  Each run is a child
    process whose address space is capped at 1 GiB, so none really
    allocates more.  Model and dataset sizes that numpy cannot address are
    refused, in one line, before anything is allocated."""

    @pytest.mark.parametrize("d_model", [2 ** 62, 10 ** 20])
    def test_unaddressable_model_arrays(self, tmp_path, d_model):
        cfg = write_config(tmp_path, {"model": {"d_model": d_model, "n_heads": 4}})
        code, err = run_captured("train", "--data", tmp_path / "missing.csv", "--config", cfg,
                                 "--model-out", tmp_path / "m.json")
        assert code == 1
        assert err == (f"geoagg: error: model array 'embed_w' of shape (2, {d_model}) "
                       "cannot be addressed\n")

    @pytest.mark.parametrize("n", [2 ** 62, 10 ** 20])
    @pytest.mark.parametrize("dataset", ["gwr-r", "sl-r"])
    def test_unaddressable_dataset_size(self, tmp_path, dataset, n):
        out = tmp_path / "data.csv"
        code, err = run_captured("gen", "--dataset", dataset, "--n", n, "--out", out)
        assert code == 1
        assert err == f"geoagg: error: n={n} points need more memory than can be addressed\n"
        assert not out.exists()

    @pytest.mark.parametrize("members", [10 ** 10, 2 ** 60, 10 ** 20])
    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_huge_member_count(self, trained_once, command, members):
        data, model, tmp_path = trained_once
        argv = [command, "--model", str(model), "--data", str(data), "--members", str(members),
                *(["--lengths", "4,8"] if command == "bench" else []),
                "--out", str(tmp_path / f"{command}.csv")]
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from geoagg.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        proc = run_child(script, tmp_path)
        assert proc.returncode == 1, proc.stderr[-2000:]
        assert proc.stderr.startswith("geoagg: error: ")
        assert len(proc.stderr.splitlines()) == 1
        if members < 2 ** 60:
            assert proc.stderr.startswith("geoagg: error: Unable to allocate ")
        else:
            assert proc.stderr == (f"geoagg: error: {members} ensemble members over 43 "
                                   "queries need more memory than can be addressed\n")


class TestSeedPrecedence:
    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("GA_SEED", "77")
        run("gen", "--dataset", "gwr-r", "--n", 144, "--out", a)
        monkeypatch.delenv("GA_SEED")
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 77, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("GA_SEED", "1000")
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 3, "--out", a)
        monkeypatch.delenv("GA_SEED")
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestRunConfig:
    def test_defaults_returned_without_file(self):
        assert load_config(None) == DEFAULT_CONFIG

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"modle": {}}))
        data = tmp_path / "d.csv"
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 1, "--out", data)
        code = run("train", "--data", data, "--config", bad,
                   "--model-out", tmp_path / "m.json")
        assert code == 1
        assert "modle" in capsys.readouterr().err

    def test_nested_unknown_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"epoch": 3}}))
        data = tmp_path / "d.csv"
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 1, "--out", data)
        code = run("train", "--data", data, "--config", bad,
                   "--model-out", tmp_path / "m.json")
        assert code == 1
        assert "train.epoch" in capsys.readouterr().err


    def test_mistyped_value_rejected(self, tmp_path, capsys):
        bad = write_config(tmp_path, {"train": {"epochs": "3"}})
        data = tmp_path / "d.csv"
        run("gen", "--dataset", "gwr-r", "--n", 144, "--seed", 1, "--out", data)
        code = run("train", "--data", data, "--config", bad,
                   "--model-out", tmp_path / "m.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "config key 'train.epochs' must be an integer, got '3'" in err
        assert len(err.strip().splitlines()) == 1

    @BAD_INFERENCE_SETTINGS
    def test_train_rejects_bad_inference_settings_at_load(self, tmp_path, capsys,
                                                          section, key, value, message):
        """A config file is checked whole, whichever command reads it: the
        error comes before the data file is read."""
        cfg = write_config(tmp_path, {section: {**SMALL_CONFIG[section], key: value}})
        model = tmp_path / "m.json"
        assert run("train", "--data", tmp_path / "missing.csv", "--config", cfg,
                   "--model-out", model) == 1
        captured = capsys.readouterr()
        assert captured.err == f"geoagg: error: {message}\n"
        assert captured.out == ""
        assert not model.exists()

    def test_readme_documents_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Run config", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == DEFAULT_CONFIG

    def test_integer_past_int64_is_read_as_its_float(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, {"model": {**SMALL_CONFIG["model"], "lambda_init": 10 ** 19}}))
        assert type(cfg["model"]["lambda_init"]) is float
        assert cfg["model"]["lambda_init"] == 1e19
        params = init_params(ModelConfig(**cfg["model"]), 2, np.random.default_rng(0))
        assert params.arrays["agg.lam_raw"].tolist() == [[1e19], [1e19]]


class TestChecksBeforeData:
    """A setting fails with its step's one-line message before the dataset is
    read, whether it comes from a flag, a config file or a model file."""

    @pytest.mark.parametrize("argv, message", [
        (["predict", "--members", "0"], "need at least one ensemble member"),
        (["predict", "--expansion", "0.5"], "expansion factor must be finite and >= 1, got 0.5"),
        (["predict", "--expansion", "1e308"],
         "expansion factor 1e+308 times l_max=8 is not finite"),
        (["bench", "--members", "0"], "need at least one ensemble member"),
        (["bench", "--lengths", "8,4"], "lengths must be ascending"),
        (["bench", "--lengths", "1"], "l_max must be at least 2"),
    ], ids=["predict-members", "predict-expansion", "predict-expansion-times-l_max",
            "bench-members", "bench-descending", "bench-length-1"])
    def test_bad_flag(self, small_model, tmp_path, capsys, argv, message):
        out = tmp_path / "o.csv"
        assert run(*argv, "--model", small_model, "--data", tmp_path / "missing.csv",
                   "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"geoagg: error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("section, key, message", [
        ("model", "lambda_init", "config key 'model.lambda_init' must be a number, got {}"),
        ("train", "lr", "config key 'train.lr' must be a number, got {}"),
        ("model", "rope_base", "config key 'model.rope_base' must be a number, got {}"),
        ("predict", "expansion", "config key 'predict.expansion' must be a number, got {}"),
        ("model", "l_max", "expansion factor 1.25 times l_max={} is not finite"),
    ], ids=["lambda_init", "lr", "rope_base", "predict-expansion", "l_max"])
    def test_integer_without_a_float_value_in_a_config_file(self, tmp_path, capsys,
                                                            section, key, message):
        huge = 10 ** 400
        cfg = write_config(tmp_path, {section: {**SMALL_CONFIG[section], key: huge}})
        model = tmp_path / "m.json"
        assert run("train", "--data", tmp_path / "missing.csv", "--config", cfg,
                   "--model-out", model) == 1
        assert capsys.readouterr().err == f"geoagg: error: {message.format(huge)}\n"
        assert not model.exists()

    def test_integer_without_a_float_value_in_a_model_file(self, small_model, tmp_path, capsys):
        doc = json.loads(small_model.read_text())
        doc["model_config"]["rope_base"] = 10 ** 400
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        assert run("predict", "--model", bad, "--data", tmp_path / "missing.csv",
                   "--out", tmp_path / "p.csv") == 1
        assert capsys.readouterr().err == ("geoagg: error: parameter file's model_config key "
                                           f"'rope_base' must be a number, got {10 ** 400}\n")

    @pytest.mark.parametrize("value", [0, False, "", []], ids=["0", "false", "empty-string",
                                                              "empty-list"])
    def test_train_config_that_is_not_an_object(self, small_model, tmp_path, capsys, value):
        """Only ``null``, which a model file saved without one holds, reads as the defaults."""
        doc, missing = json.loads(small_model.read_text()), tmp_path / "missing.csv"

        def predict(train_config):
            doc["train_config"] = train_config
            bad = tmp_path / "bad_model.json"
            bad.write_text(json.dumps(doc))
            assert run("predict", "--model", bad, "--data", missing,
                       "--out", tmp_path / "p.csv") == 1
            return capsys.readouterr().err

        assert predict(None).endswith(f"{missing}'\n")  # the defaults, then the data
        assert predict(value) == ("geoagg: error: model file's train_config must be an "
                                  f"object, got {value!r}\n")


def _typed_value(default):
    """Values of the type a config field with this default takes."""
    if type(default) is bool:
        return st.booleans()
    if type(default) is int:
        return st.integers(-10**6, 10**6)
    if type(default) is float:
        return st.integers(-10**6, 10**6) | st.floats(allow_nan=False)
    return st.lists(st.integers(-10**6, 10**6), max_size=5)


def _well_typed(default, value):
    """Whether ``value`` has the type of its field: a float field also takes
    an int, the list field takes ints, and a bool is never a number."""
    if type(default) is float and type(value) is int:
        return True
    if type(default) is list:
        return type(value) is list and all(type(x) is int for x in value)
    return type(value) is type(default)


@st.composite
def typed_subsets(draw):
    """A well-typed user config: any subset of sections, and of their keys."""
    user = {}
    for section, fields in DEFAULT_CONFIG.items():
        if draw(st.booleans()):
            keys = draw(st.lists(st.sampled_from(sorted(fields)), unique=True))
            user[section] = {key: draw(_typed_value(fields[key])) for key in keys}
    return user


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
known_keys = st.sampled_from(sorted(DEFAULT_CONFIG)
                             + sorted({k for sec in DEFAULT_CONFIG.values() for k in sec}))


class TestMergeStrictProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(user=typed_subsets())
    def test_accepts_every_well_typed_subset(self, user):
        merged = _merge_strict(DEFAULT_CONFIG, user)
        assert merged.keys() == DEFAULT_CONFIG.keys()
        for section, fields in DEFAULT_CONFIG.items():
            assert merged[section] == {**fields, **user.get(section, {})}

    @settings(max_examples=200, deadline=None, database=None)
    @given(user=typed_subsets(), data=st.data())
    def test_rejects_an_unknown_key(self, user, data):
        section = data.draw(st.sampled_from([None] + sorted(DEFAULT_CONFIG)))
        scope = user if section is None else user.setdefault(section, {})
        known = DEFAULT_CONFIG if section is None else DEFAULT_CONFIG[section]
        key = data.draw(st.text(max_size=8).filter(lambda k: k not in known))
        scope[key] = data.draw(json_values)
        with pytest.raises(ContractError, match="unknown config key") as err:
            _merge_strict(DEFAULT_CONFIG, user)
        assert "\n" not in str(err.value)

    @settings(max_examples=200, deadline=None, database=None)
    @given(user=typed_subsets(), data=st.data())
    def test_rejects_a_mistyped_value(self, user, data):
        section = data.draw(st.sampled_from(sorted(DEFAULT_CONFIG)))
        key = data.draw(st.sampled_from(sorted(DEFAULT_CONFIG[section])))
        default = DEFAULT_CONFIG[section][key]
        wrong = data.draw(json_values.filter(lambda v: not _well_typed(default, v)))
        user.setdefault(section, {})[key] = wrong
        with pytest.raises(ContractError, match=f"config key '{section}.{key}' must be") as err:
            _merge_strict(DEFAULT_CONFIG, user)
        assert "\n" not in str(err.value)

    @settings(max_examples=300, deadline=None, database=None)
    @given(user=st.dictionaries(known_keys | st.text(max_size=8), json_values, max_size=4))
    def test_any_json_object_merges_or_fails_in_one_line(self, user):
        try:
            merged = _merge_strict(DEFAULT_CONFIG, user)
        except ContractError as err:
            assert "\n" not in str(err)
        else:
            assert merged.keys() == DEFAULT_CONFIG.keys()


class TestReproduce:
    @pytest.mark.parametrize("key", ["instances", "background"])
    @pytest.mark.parametrize("value", [-1, 0])
    def test_explain_sizes_below_one_fail_before_training(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"explain": {**SMALL_CONFIG["explain"], key: value}})
        outdir = tmp_path / "run"
        assert run("reproduce", "--config", cfg, "--outdir", outdir) == 1
        err = capsys.readouterr().err
        assert err == f"geoagg: error: config key 'explain.{key}' must be at least 1, got {value}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("section, value, message", [
        ("bench", {"lengths": [16, 32, 64, 128]}, "only 101 context points available, need 128"),
        ("model", {"l_max": 128}, "dataset has 101 points, need at least l_max=128"),
    ], ids=["bench-length", "l_max"])
    def test_lengths_past_the_train_split_fail_before_writing(self, tmp_path, capsys,
                                                              section, value, message):
        # 144 points split 70/30 leave 101 context points
        cfg = write_config(tmp_path, {section: {**SMALL_CONFIG[section], **value}})
        outdir = tmp_path / "run"
        assert run("reproduce", "--config", cfg, "--outdir", outdir) == 1
        captured = capsys.readouterr()
        assert captured.err == f"geoagg: error: {message}\n"
        assert captured.out == ""
        assert not outdir.exists()

    @pytest.mark.parametrize("n, message", [
        (401, "n must be a perfect square for the grid layout, got 401"),
        (-5, "need n >= 100, got -5"),
        (2 ** 62, f"n={2 ** 62} points need more memory than can be addressed"),
    ], ids=["not-square", "negative", "unaddressable"])
    def test_bad_data_size_fails_with_the_generator_message(self, tmp_path, capsys, n,
                                                           message):
        cfg = write_config(tmp_path, {"data": {**SMALL_CONFIG["data"], "n": n}})
        outdir = tmp_path / "run"
        assert run("reproduce", "--config", cfg, "--outdir", outdir) == 1
        captured = capsys.readouterr()
        assert captured.err == f"geoagg: error: {message}\n"
        assert captured.out == ""
        assert not outdir.exists()

    def test_chain_produces_all_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        outdir = tmp_path / "run"
        assert run("reproduce", "--config", cfg, "--outdir", outdir) == 0
        for name in ("gwr_r.csv", "sl_r.csv", "model_gwr.json", "model_sl.json",
                     "loss_gwr.csv", "loss_sl.csv", "predictions_gwr.csv",
                     "predictions_sl.csv", "explanations_gwr.csv", "bench_sl.csv"):
            assert (outdir / name).exists(), name

    @BAD_INFERENCE_SETTINGS
    def test_bad_inference_settings_fail_before_training(self, tmp_path, capsys,
                                                         section, key, value, message):
        cfg = write_config(tmp_path, {section: {**SMALL_CONFIG[section], key: value}})
        outdir = tmp_path / "run"
        assert run("reproduce", "--config", cfg, "--outdir", outdir) == 1
        captured = capsys.readouterr()
        assert captured.err == f"geoagg: error: {message}\n"
        assert captured.out == ""
        assert not (outdir / "model_gwr.json").exists()


class TestOnePath:
    """``reproduce`` runs the same steps as the standalone commands."""

    @pytest.mark.parametrize("ga_seed", [None, "5"], ids=["no-GA_SEED", "GA_SEED"])
    def test_reproduce_matches_the_standalone_commands(self, tmp_path, monkeypatch, ga_seed):
        monkeypatch.delenv("GA_SEED", raising=False)
        if ga_seed is not None:
            monkeypatch.setenv("GA_SEED", ga_seed)
        # instances at least the test split, which standalone explain always covers
        cfg = write_config(tmp_path, {"explain": {**SMALL_CONFIG["explain"], "instances": 144}})
        outdir = tmp_path / "run"
        assert run("reproduce", "--config", cfg, "--outdir", outdir) == 0
        pred, expl = SMALL_CONFIG["predict"], SMALL_CONFIG["explain"]
        # a seed flag would beat GA_SEED, which reproduce applied to every seed
        pred_seed = [] if ga_seed else ["--seed", pred["seed"]]
        expl_seed = [] if ga_seed else ["--seed", expl["seed"]]
        same = {}
        for tag in ("gwr", "sl"):
            data, model = outdir / f"{tag}_r.csv", tmp_path / f"model_{tag}.json"
            assert run("train", "--data", data, "--config", cfg, "--model-out", model) == 0
            assert run("predict", "--model", model, "--data", data, "--members", pred["members"],
                       "--expansion", pred["expansion"], *pred_seed,
                       "--out", tmp_path / f"predictions_{tag}.csv") == 0
            same[f"model_{tag}.json"] = model
            same[f"loss_{tag}.csv"] = tmp_path / f"model_{tag}.loss.csv"
            same[f"predictions_{tag}.csv"] = tmp_path / f"predictions_{tag}.csv"
        assert run("explain", "--model", same["model_gwr.json"], "--data", outdir / "gwr_r.csv",
                   "--background", expl["background"], *expl_seed,
                   "--out", tmp_path / "explanations_gwr.csv") == 0
        same["explanations_gwr.csv"] = tmp_path / "explanations_gwr.csv"
        for name, path in same.items():
            assert (outdir / name).read_bytes() == path.read_bytes(), name

    def test_flags_default_to_the_run_config(self, tmp_path):
        data, model = tmp_path / "data.csv", tmp_path / "model.json"
        # enough context points for the default bench lengths
        run("gen", "--dataset", "gwr-r", "--n", 400, "--seed", 5, "--out", data)
        assert run("train", "--data", data, "--config", write_config(tmp_path),
                   "--model-out", model) == 0
        pred, expl, bench = (DEFAULT_CONFIG[k] for k in ("predict", "explain", "bench"))
        flags = {
            "predict": ["--members", pred["members"], "--expansion", pred["expansion"],
                        "--seed", pred["seed"]],
            "explain": ["--background", expl["background"], "--seed", expl["seed"]],
            "bench": ["--lengths", ",".join(map(str, bench["lengths"])),
                      "--members", bench["members"]],
        }
        for command, given in flags.items():
            a, b = tmp_path / f"{command}_a.csv", tmp_path / f"{command}_b.csv"
            assert run(command, "--model", model, "--data", data, "--out", a) == 0
            assert run(command, "--model", model, "--data", data, *given, "--out", b) == 0
            if command == "bench":  # timings differ; the rows and their lengths do not
                rows_a, rows_b = ([ln.split(",")[:2] for ln in f.read_text().splitlines()]
                                  for f in (a, b))
                assert rows_a == rows_b
                assert {int(r[0]) for r in rows_a[1:-1]} == set(bench["lengths"])
            else:
                assert a.read_bytes() == b.read_bytes(), command


# integers, floats, booleans and lists of integers, with the edges of each
BOUNDARY_VALUES = (
    st.sampled_from([0, -1, 2 ** 63, -2 ** 63, 10 ** 19, 10 ** 400, -10 ** 400]) | st.integers()
    | st.sampled_from([0.0, -0.0, -1.5, float("nan"), float("inf"), float("-inf"), 1e308])
    | st.floats() | st.booleans()
    | st.lists(st.integers(-3, 300) | st.sampled_from([2 ** 63, 10 ** 400]), max_size=4)
)
COMMAND_FLAGS = {
    "predict": ["--members", "--expansion", "--seed"],
    "explain": ["--background", "--seed"],
    "bench": ["--lengths", "--members", "--threads"],
}


def flag_text(value):
    return ",".join(map(str, value)) if type(value) is list else str(value)


def read_as_typed(default, value):
    """Whether a setting read as ``value`` has its field's type: a number field
    holds a float, or an int that numpy holds as an int64."""
    if type(default) is float and type(value) is int:
        return abs(value) < 2 ** 63
    return type(value) is type(default)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestBoundaryFuzz:
    """Boundary values in every setting end in a result or one line, and no
    draw reaches training: each run's data file does not exist."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_config_keys(self, fuzz_dir, data):
        section = data.draw(st.sampled_from(sorted(DEFAULT_CONFIG)))
        key = data.draw(st.sampled_from(sorted(DEFAULT_CONFIG[section])))
        value = data.draw(BOUNDARY_VALUES)
        path = fuzz_dir / "config.json"
        path.write_text(json.dumps({section: {key: value}}))
        try:
            merged = load_config(path)
        except ContractError as err:
            assert "\n" not in str(err)
        else:
            assert read_as_typed(DEFAULT_CONFIG[section][key], merged[section][key])
        model = fuzz_dir / "m.json"
        code, err = run_captured("train", "--data", fuzz_dir / "missing.csv", "--config", path,
                                 "--model-out", model)
        assert code == 1
        assert len(err.splitlines()) == 1
        assert not model.exists()

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_model_file_fields(self, small_model, fuzz_dir, data):
        fields = [(section, key) for section, cls in (("model_config", ModelConfig),
                                                      ("train_config", TrainConfig))
                  for key in asdict(cls())]
        section, key = data.draw(st.sampled_from(sorted(fields)))
        doc = json.loads(small_model.read_text())
        doc[section][key] = data.draw(BOUNDARY_VALUES)
        path = fuzz_dir / "model.json"
        path.write_text(json.dumps(doc))
        try:
            _, config, train_doc = load_params(path)
            tc = build_config(TrainConfig, "model file", "train_config", train_doc)
        except ContractError as err:
            assert "\n" not in str(err)
        else:
            for built in (config, tc):
                defaults = asdict(type(built)())
                assert all(read_as_typed(defaults[key], value)
                           for key, value in asdict(built).items())
        code, err = run_captured("predict", "--model", path, "--data", fuzz_dir / "missing.csv",
                                 "--out", fuzz_dir / "p.csv")
        assert code == 1
        assert len(err.splitlines()) == 1

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_flags(self, small_model, fuzz_dir, data):
        command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS)))
        flags = data.draw(st.dictionaries(st.sampled_from(COMMAND_FLAGS[command]),
                                          BOUNDARY_VALUES.map(flag_text)))
        out = fuzz_dir / "o.csv"
        code, err = run_captured(command, "--model", small_model,
                                 "--data", fuzz_dir / "missing.csv", "--out", out,
                                 *(f"{flag}={text}" for flag, text in flags.items()))
        assert code in (1, 2)
        assert len(err.splitlines()) == 1
        assert not out.exists()
        if err.endswith(f"{fuzz_dir / 'missing.csv'}'\n"):
            # only settings that their steps accept reach the data
            assert int(flags.get("--members", 1)) >= 1
            neighbor_budget(SMALL_CONFIG["model"]["l_max"], float(flags.get("--expansion", 1)))
            lengths = [int(text) for text in flags.get("--lengths", "2").split(",")]
            assert lengths == sorted(lengths) and lengths[0] >= 2
