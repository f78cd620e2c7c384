#!/usr/bin/env python3
"""Measure what the precomputed neighbour cache buys at inference time.

With M ensemble members, recomputing neighbourhoods on the fly costs
M * n_queries tree searches; the cache costs exactly n_queries.  The script
times both modes across sequence lengths and prints the query counters, which
are the mechanism behind the wall-clock gap.
"""

from geoagg import (
    ContextPool,
    ModelConfig,
    QueryPool,
    TrainConfig,
    benchmark_inference,
    generate_sl,
    split_dataset,
    train,
)

ds = generate_sl(900, seed=7, rho=0.6)
train_ds, test_ds = split_dataset(ds, split=0.7, seed=0)
config = ModelConfig(l_max=64)
params, _ = train(train_ds, config, TrainConfig(epochs=5, seed=0))

context = ContextPool(train_ds)
queries = QueryPool(test_ds)
lengths = [16, 32, 64]
members = 8

records = benchmark_inference(params, config, queries, context, lengths, members=members)
rows = {mode: [r for r in records if r.mode == mode] for mode in ("on_the_fly", "precomputed")}

print(f"{'L':>4} {'on_the_fly':>12} {'precomputed':>12} {'ratio':>7} {'queries':>16}")
for fly, pre in zip(rows["on_the_fly"], rows["precomputed"]):
    print(f"{fly.length:>4} {fly.seconds:>11.2f}s {pre.seconds:>11.2f}s "
          f"{pre.seconds / fly.seconds:>7.2f} "
          f"{fly.tree_queries:>7} vs {pre.tree_queries:<6}")
total_fly = sum(r.seconds for r in rows["on_the_fly"])
total_pre = sum(r.seconds for r in rows["precomputed"])
print(f"overall saving: {100 * (1 - total_pre / total_fly):.0f}% of inference wall time")
