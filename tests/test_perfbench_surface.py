"""The library surface that the benchmark in ``perfbench/`` reads.

The benchmark drives geoagg through fixed names and attributes: the traced
functions it wraps, the record views of datasets and pools, and a few
constructors.  A change that drops one of them would only show when the
benchmark runs, so these tests make it fail in the suite first.
``perfbench/`` is imported from here and never changed.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import tracer  # noqa: E402

from geoagg import datasets, explain, model, pipeline, spatial  # noqa: E402


def test_every_traced_layer_is_bound():
    for owner, attr, layer, _ in tracer.LAYERS:
        # the tracer reads and replaces ``owner.__dict__[attr]``
        assert attr in vars(owner), f"{owner.__name__}.{attr} ({layer}) is not bound"


def test_benchmark_reads_work_on_a_small_dataset(tmp_path):
    generated = datasets.generate_gwr(400, 1)
    path = tmp_path / "gwr.csv"
    datasets.save_csv(generated, path)
    loaded = datasets.load_csv(path)
    assert checks.same_dataset(generated, loaded) == []

    train_ds, test_ds = pipeline.split_dataset(loaded, 0.7, 0)
    rec = train_ds.points[3]
    assert (rec.id, rec.u, rec.v, rec.y) == (
        train_ds.ids()[3], *train_ds.coords()[3], train_ds.targets()[3])
    np.testing.assert_array_equal(rec.x, train_ds.covariates()[3])
    assert [r.id for r in test_ds.points[:7]] == test_ds.ids()[:7].tolist()
    assert np.isfinite(checks.ols_r2(train_ds, test_ds))

    context = spatial.ContextPool(train_ds.points)
    queries = spatial.QueryPool(test_ds.points[:20])
    assert [r.id for r in context.records] == train_ds.ids().tolist()
    assert [r.id for r in queries.records] == test_ds.ids()[:20].tolist()
    assert checks.neighbours(context, queries, 10) == []

    batch = explain.RowBatch.from_records([test_ds.points[i] for i in (4, 1, 9)])
    np.testing.assert_array_equal(batch.ids, test_ds.ids()[[4, 1, 9]])
    np.testing.assert_array_equal(batch.coords, test_ds.coords()[[4, 1, 9]])
    np.testing.assert_array_equal(batch.x, test_ds.covariates()[[4, 1, 9]])

    # the gradient check builds a one-record query pool and assembles from it
    config = model.ModelConfig(d_model=8, n_heads=2, n_inducing=2, l_max=8, n_layers=2)
    params = model.init_params(config, train_ds.p, np.random.default_rng(0))
    assert checks.gradient(params, config, train_ds, 1.25, 0) == []
