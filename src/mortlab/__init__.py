"""Multi-population mortality decomposition, recurrent factor forecasting,
and longevity tail-risk tooling.

Importing the package loads none of its modules.  Import each name from
the module that defines it:

- `data`: mortality files, cluster CSVs and the synthetic generator;
- `lilee`: the rank-1 decomposition (`fit_lilee`, `FactorPanel`) and the
  linear benchmark's models;
- `stationarity`: ADF and KPSS tests and their joint verdict;
- `windows`: differences, train-only scaling and sliding windows;
- `lstm`: the stacked LSTM and its training (`TrainConfig`);
- `forecast`: the bias-corrected forecaster (`HybridConfig`) and its ensemble;
- `lifetable`: death rates from factor levels, life tables and e0;
- `risk`: VaR, expected shortfall, SCR and the reverse stress test;
- `explain`: temporal saliency and Kernel SHAP;
- `benchmark`: validation against the linear benchmark, the ablations and
  the lookback sweep;
- `errors`: the exception types and their exit codes;
- `cli`: the eight-stage command-line pipeline.
"""
