"""geoagg benchmark: one workload, one seed, one run, one process.

    python3 perfbench/run.py --workload train-sl --seed 1 --seconds 6 --trace 0

Workloads are ``train-sl``, ``predict-gwr`` and ``explain-gwr`` (see
workloads.py and README.md).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  A record of the run (environment, round times
and, when traced, the per-layer tables and every span) is written to
``perfbench/out/``.  Exit code 2 means the run could not start.
"""

import os

# one BLAS/OpenMP thread, pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# (metric, root span, layer, field): per traced round, or per set-up
PER_LAYER = [
    ("kdtree.build_s", "round", "kdtree.build", "total_s"),
    ("kdtree.knn_calls", "round", "kdtree.knn", "calls"),
    ("kdtree.knn_s", "round", "kdtree.knn", "total_s"),
    ("spatial.precompute_s", "round", "spatial.precompute", "total_s"),
    ("spatial.assemble_s", "round", "spatial.assemble", "total_s"),
    ("spatial.subset_calls", "round", "spatial.subset", "calls"),
    ("spatial.subset_s", "round", "spatial.subset", "total_s"),
    ("pipeline.train_self_s", "round", "pipeline.train", "self_s"),
    ("pipeline.predict_self_s", "round", "pipeline.predict", "self_s"),
    ("model.forward_batch_calls", "round", "model.forward_batch", "calls"),
    ("model.forward_batch_seqs", "round", "model.forward_batch", "n"),
    ("model.forward_batch_s", "round", "model.forward_batch", "total_s"),
    ("model.forward_on_tape_calls", "round", "model.forward_on_tape", "calls"),
    ("model.forward_on_tape_s", "round", "model.forward_on_tape", "total_s"),
    ("autodiff.backward_s", "round", "autodiff.backward", "total_s"),
    ("autodiff.adam_step_s", "round", "autodiff.adam_step", "total_s"),
    ("autodiff.tape_ops", "round", "autodiff.backward", "n"),
    ("explain.make_predictor_s", "round", "explain.make_predictor", "total_s"),
    ("explain.predictor_rows", "round", "explain.predictor", "n"),
    ("explain.predictor_s", "round", "explain.predictor", "total_s"),
    ("explain.predictor_self_s", "round", "explain.predictor", "self_s"),
    ("explain.solve_s", "round", "explain.solve", "total_s"),
    ("explain.live_knn_calls", "round", "kdtree.knn", "live_knn"),
    ("datasets.generate_s", "setup", "datasets.generate", "total_s"),
    ("datasets.csv_s", "setup", "datasets.csv", "total_s"),
    ("model.params_io_s", "setup", "model.params_io", "total_s"),
]


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None for another BLAS."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)  # symbol lookup covers its BLAS dependency
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def rate_median(samples):
    """Median of the per-round rates of (units, seconds) samples."""
    return statistics.median(units / seconds for units, seconds in samples)


def end_to_end(outcome):
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "train_seqs_per_s": rate_median(outcome.work["train"]),
        "predict_queries_per_s": rate_median(outcome.work["predict"]),
        "explain_instances_per_s": rate_median(outcome.work["explain"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tables, counts, outcome):
    """Layer totals per traced round (set-up layers per set-up), plus overhead."""
    metrics = {name: tables[root].get(layer, {}).get(field, 0) / counts[root]
               for name, root, layer, field in PER_LAYER}
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(outcome.traced_round_s) / statistics.median(outcome.round_s) - 1.0)
    return metrics


def print_tables(tables, counts):
    for root, table in tables.items():
        print(f"per {root} (mean of {counts[root]}): layer calls work total_s self_s")
        for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["total_s"]):
            c = counts[root]
            print(f"  {layer:28s} {row['calls'] / c:10.1f} {row['n'] / c:10.1f} "
                  f"{row['total_s'] / c:10.4f} {row['self_s'] / c:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geoagg benchmark (one run)")
    parser.add_argument("--workload", required=True,
                        choices=["train-sl", "predict-gwr", "explain-gwr"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "geoagg" / "__init__.py").is_file():
        print(f"perfbench: no geoagg sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(ROOT / "src"))
    import selftest
    import tracer as tracing
    import workloads

    selftest.run_all()
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        outcome = workloads.run(args.workload, args.seed, args.seconds, Path(tmp), tracer)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "errors": outcome.errors,
              "setup_s": outcome.setup_s, "round_s": outcome.round_s,
              "traced_round_s": outcome.traced_round_s, "work": outcome.work,
              "wall_s": outcome.wall}
    if tracer is None:
        values, declared = end_to_end(outcome), spec["end_to_end"]
    else:
        tables = {root: tracing.layer_table(tracer.spans, root) for root in ("setup", "round")}
        counts = {"setup": len(outcome.setup_s), "round": len(outcome.traced_round_s)}
        print_tables(tables, counts)
        values, declared = per_layer(tables, counts, outcome), spec["per_layer"]
        record.update(layers=tables, spans=tracer.spans)
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics disagree with BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": not outcome.errors, "attempted": outcome.attempted,
              "failed": 0, "metrics": metrics}
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n", encoding="utf-8")

    for error in outcome.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
