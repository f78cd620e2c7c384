"""In-memory span tracer that wraps geoagg's public functions from outside.

Each wrapper is installed at the name its caller binds: ``pipeline`` imports
``forward_batch`` into its own namespace, so ``pipeline.forward_batch`` and
``explain.forward_batch`` are replaced separately, while methods such as
``KdTree.knn`` are replaced on the class.  Nothing is installed unless
:meth:`Tracer.installed` is entered, so an untraced run executes the library
unchanged.

A span is ``[name, start, end, parent, n]``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``n`` a work count taken from the call's
arguments (sequences in a forward batch, rows in a predictor call, ops on a
tape).  A span's self time is its duration minus the durations of its direct
children; calls are single-threaded and properly nested, so children never
overlap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from geoagg import datasets, explain, kdtree, model, pipeline, spatial


def _one(args):
    return 1


def _batch_rows(args):
    return len(args[0])


def _predictor_rows(args):
    return len(args[1])  # args[0] is the ShapPredictor instance


def _tape_ops(args):
    return len(args[0].ops)


# (owner, attribute, layer, work count); owners are modules or classes
LAYERS = [
    (spatial, "build_tree", "kdtree.build", _one),
    (kdtree.KdTree, "knn", "kdtree.knn", _one),
    (pipeline, "precompute_neighbors", "spatial.precompute", _one),
    (explain, "precompute_neighbors", "spatial.precompute", _one),
    (pipeline, "assemble_sequence", "spatial.assemble", _one),
    # assemble_sequence reaches subset_indices through spatial's own namespace
    (spatial, "subset_indices", "spatial.subset", _one),
    (pipeline, "subset_indices", "spatial.subset", _one),
    (explain, "subset_indices", "spatial.subset", _one),
    (pipeline, "train", "pipeline.train", _one),
    (pipeline, "predict_ensemble", "pipeline.predict", _one),
    (pipeline, "forward_batch", "model.forward_batch", _batch_rows),
    (explain, "forward_batch", "model.forward_batch", _batch_rows),
    (pipeline, "forward_on_tape", "model.forward_on_tape", _one),
    (pipeline, "backward", "autodiff.backward", _tape_ops),
    (pipeline, "adam_step", "autodiff.adam_step", _one),
    (explain, "make_shap_predictor", "explain.make_predictor", _one),
    (explain.ShapPredictor, "__call__", "explain.predictor", _predictor_rows),
    (explain, "geoshapley_explain", "explain.geoshapley", _one),
    (explain, "shapley_exact", "explain.solve", _one),
    (explain, "interaction_index", "explain.solve", _one),
    (explain, "local_coefficients", "explain.local_coefficients", _one),
    (datasets, "generate_gwr", "datasets.generate", _one),
    (datasets, "generate_sl", "datasets.generate", _one),
    (datasets, "save_csv", "datasets.csv", _one),
    (datasets, "load_csv", "datasets.csv", _one),
    (model, "save_params", "model.params_io", _one),
    (model, "load_params", "model.params_io", _one),
]


class Tracer:
    """Records spans in memory; the benchmark writes them out at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, n: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, n])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, n: int = 1):
        idx = self._open(name, n)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, layer: str, count):
        def wrapper(*args, **kwargs):
            idx = self._open(layer, count(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every layer entry point by a recording wrapper, then restore."""
        saved = []
        try:
            for owner, attr, layer, count in LAYERS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def root(self, name: str):
        """Trace everything run inside, under one root span named ``name``."""
        with self.installed(), self.span(name):
            yield


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def root_of(spans) -> list[int]:
    """Index of each span's outermost ancestor (parents precede children)."""
    roots = []
    for i, span in enumerate(spans):
        parent = span[3]
        roots.append(i if parent < 0 else roots[parent])
    return roots


def layer_table(spans, root_name: str) -> dict[str, dict[str, float]]:
    """Per layer: calls, work count, total and self seconds under named roots.

    Only spans below root spans called ``root_name`` count; the roots
    themselves are not layers.  ``live_knn`` counts tree searches made inside
    a predictor call, i.e. after ``make_shap_predictor`` had returned.
    """
    selfs = self_times(spans)
    roots = root_of(spans)
    in_predictor = []
    table: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, n) in enumerate(spans):
        inside = parent >= 0 and (in_predictor[parent]
                                  or spans[parent][0] == "explain.predictor")
        in_predictor.append(inside)
        if parent < 0 or spans[roots[i]][0] != root_name:
            continue
        row = table.setdefault(name, {"calls": 0, "n": 0, "total_s": 0.0,
                                      "self_s": 0.0, "live_knn": 0})
        row["calls"] += 1
        row["n"] += n
        row["total_s"] += end - start
        row["self_s"] += selfs[i]
        if name == "kdtree.knn" and inside:
            row["live_knn"] += 1
    return table
