#!/usr/bin/env python3
"""Train the regressor, predict with a randomised-context ensemble, and read
the per-query spread.

Each ensemble member sees a slightly different context draw for every query
(the neighbour cache over-fetches by the expansion factor and the surplus is
removed at random); the mean is the usual accuracy win.  The members share
one set of weights, so the spread of their outputs measures how sensitive a
prediction is to the context draw.  It is not a calibrated predictive
spread: on the spatial-lag data it does not rank errors at all (Spearman
-0.02 to -0.09 between spread and absolute error).
"""

import numpy as np

from geoagg import (
    ContextPool,
    ModelConfig,
    QueryPool,
    TrainConfig,
    evaluate,
    generate_gwr,
    predict_ensemble,
    split_dataset,
    train,
)

ds = generate_gwr(900, seed=42)
train_ds, test_ds = split_dataset(ds, split=0.7, seed=0)

config = ModelConfig(d_model=32, n_heads=4, n_inducing=8, l_max=32, n_layers=2)
params, history = train(train_ds, config, TrainConfig(epochs=15, seed=0))
print(f"training MSE: {history[0]:.3f} -> {history[-1]:.3f} over {len(history)} epochs")

context = ContextPool(train_ds)
queries = QueryPool(test_ds)
truth = test_ds.targets()

for members in (1, 4, 8):
    pred = predict_ensemble(params, config, queries, context,
                            members=members, expansion=1.25, seed=100)
    m = evaluate(pred.mean, truth)
    print(f"members={members}: test R^2 {m.r2:.4f}  MAE {m.mae:.4f}  "
          f"mean sigma {pred.std.mean():.4f}")

# whether the spread tracks error: compare the residuals of the two halves
pred = predict_ensemble(params, config, queries, context, members=8,
                        expansion=1.25, seed=100)
resid = np.abs(pred.mean - truth)
hi = pred.std > np.median(pred.std)
print(f"mean |error| on high-sigma half: {resid[hi].mean():.4f}, "
      f"low-sigma half: {resid[~hi].mean():.4f}")
