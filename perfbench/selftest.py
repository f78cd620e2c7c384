"""Small tests of the benchmark's own arithmetic, run before every workload.

They cover span self times and layer totals, wrapper install and removal, and
the brute-force neighbour oracle, including grid ties broken by id.
"""

from __future__ import annotations

import math

import numpy as np

import tracer as tracing
from checks import brute_knn
from geoagg import pipeline


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def test_self_times():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    # (which holds a [6, 7.5]); self = duration - direct children
    spans = [["root", 0.0, 10.0, -1, 1], ["a", 1.0, 4.0, 0, 1],
             ["b", 2.0, 3.0, 1, 1], ["c", 5.0, 9.0, 0, 2],
             ["a", 6.0, 7.5, 3, 5]]
    expect(tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.5, 1.5],
           "self time is duration minus direct children")
    expect(tracing.root_of(spans) == [0, 0, 0, 0, 0], "root of nested spans")
    table = tracing.layer_table(spans, "root")
    expect(set(table) == {"a", "b", "c"}, "root spans are not layers")
    a = table["a"]
    expect((a["calls"], a["n"]) == (2, 6), "calls and work counts add up")
    expect(math.isclose(a["total_s"], 4.5) and math.isclose(a["self_s"], 3.5),
           "total and self seconds add up across calls")
    expect(tracing.layer_table(spans, "other") == {}, "only the named roots count")


def test_live_knn():
    spans = [["round", 0.0, 9.0, -1, 1], ["explain.make_predictor", 0.0, 2.0, 0, 1],
             ["kdtree.knn", 0.5, 1.0, 1, 1], ["explain.predictor", 3.0, 8.0, 0, 240],
             ["spatial.precompute", 3.5, 4.5, 3, 1], ["kdtree.knn", 3.6, 4.0, 4, 1]]
    table = tracing.layer_table(spans, "round")
    expect(table["kdtree.knn"]["calls"] == 2, "both searches are tree searches")
    expect(table["kdtree.knn"]["live_knn"] == 1,
           "only the search below a predictor call is live")


def test_tracer_records_and_restores():
    original = pipeline.__dict__["forward_batch"]
    tr = tracing.Tracer()
    with tr.root("round"):
        expect(pipeline.forward_batch is not original, "wrapper installed")
        with tr.span("inner", 3):
            pass
    expect(pipeline.forward_batch is original, "wrapper removed on exit")
    expect([(s[0], s[3], s[4]) for s in tr.spans] == [("round", -1, 1), ("inner", 0, 3)],
           "spans keep name, parent and work count")
    expect(all(s[1] <= s[2] for s in tr.spans), "spans end after they start")


def test_brute_knn_grid_ties():
    # 3x3 unit grid, row-major, with shuffled ids
    coords = np.array([[i // 3, i % 3] for i in range(9)], dtype=np.float64)
    ids = np.array([8, 3, 5, 0, 7, 1, 6, 2, 4])
    # from the centre: itself, then the four edge cells, then the corners,
    # each tie group in ascending id order
    expect(brute_knn(coords, ids, (1.0, 1.0), 9)
           == [(7, 0.0), (0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0),
               (4, 2.0), (5, 2.0), (6, 2.0), (8, 2.0)],
           "ties at equal distance rank by id")
    expect(brute_knn(coords, ids, (1.0, 1.0), 3) == [(7, 0.0), (0, 1.0), (1, 1.0)],
           "a cut inside a tie keeps the smallest ids")
    # from a cell corner four points tie at the nearest distance
    expect(brute_knn(coords, ids, (0.5, 0.5), 2) == [(0, 0.5), (3, 0.5)],
           "a four-way tie keeps the two smallest ids")


def run_all():
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
