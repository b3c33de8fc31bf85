import numpy as np
import pytest

import compare
import spans


def table(rows, work=None):
    """rows: (name, parent, start, end)."""
    names, parent, start, end = zip(*rows)
    n = len(rows)
    return spans.SpanTable(
        names=list(names), parent=np.array(parent), start=np.array(start, float),
        end=np.array(end, float),
        work=np.array(work if work is not None else [0.0] * n, float),
        work2=np.zeros(n),
    )


TREE = table([
    ("cli.main", -1, 0.0, 10.0),
    ("cli.cmd_forecast", 0, 1.0, 9.0),
    ("forecast.forecast_stochastic", 1, 2.0, 4.0),
    ("lstm.forward", 2, 2.5, 3.0),
    ("lifetable.e0_paths", 1, 3.5, 6.0),  # overlaps the span before it
    ("risk.quantile", 1, 8.0, 9.5),  # runs past its parent's end
])


def test_self_time_is_duration_minus_child_coverage():
    own = TREE.self_times()
    # main: 10 - 8; cmd: 8 - |[2,6] u [8,9]|; clipped and merged children
    assert own == pytest.approx([2.0, 3.0, 1.5, 0.5, 2.5, 1.5])


def test_layer_metrics_startup_self_time_and_overhead():
    proc = spans.StageProcess("forecast", wall_s=10.75, spans=TREE)
    out = spans.layer_metrics(
        [proc], ensemble_bytes=123,
        overhead=spans.tracing_overhead([10.75, 2.0], [10.0, 1.5]))
    m = out["metrics"]
    assert m["cli.startup_s"] == pytest.approx(0.75)
    assert m["cli.forecast.self_s"] == pytest.approx(3.0)
    assert m["forecast.forecast_stochastic.self_s"] == pytest.approx(1.5)
    assert m["lstm.forward_calls"] == 1
    assert m["trace.overhead_s"] == pytest.approx(1.25)
    assert m["trace.overhead_ratio"] == pytest.approx(1.25 / 11.5)
    assert m["trace.spans"] == 6
    assert list(m) == [name for name, _, _ in spans.LAYER_METRICS]


def test_coalition_rows_count_only_predicts_under_kernel_shap():
    t = table([
        ("cli.main", -1, 0.0, 5.0),
        ("explain.kernel_shap", 0, 1.0, 3.0),
        ("lstm.predict", 1, 1.5, 2.0),
        ("lstm.predict", 0, 4.0, 4.5),
    ], work=[0, 2, 40, 7])
    m = spans.layer_metrics([spans.StageProcess("explain", 5.0, t)], ensemble_bytes=0,
                            overhead=(0.0, 0.0))["metrics"]
    assert m["explain.coalition_rows"] == 40
    assert m["lstm.predict_rows"] == 47
    assert m["explain.test_windows"] == 2


@pytest.mark.parametrize("pairs, expected", [
    ([(10.0, 8.0)] * 9 + [(10.0, 10.5)], "improved"),
    ([(10.0, 10.2), (10.1, 10.0), (9.9, 10.1), (10.0, 9.9)], "no worse"),
    ([(10.0, 12.0), (10.0, 12.5), (10.1, 12.2)], "regressed"),
    ([(10.0, 10.0), (14.0, 14.0), (7.0, 7.0), (10.0, 10.0)], "unresolved"),
])
def test_verdicts(pairs, expected):
    assert compare.verdict(pairs, bound=0.1, lower_is_better=True)["verdict"] == expected


def test_folded_stage_times_have_no_regression_verdict():
    slower = [(10.0, 12.0), (10.0, 12.5), (10.1, 12.2)]
    assert compare.verdict(slower, bound=None, lower_is_better=True)["verdict"] == "-"
