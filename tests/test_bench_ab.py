"""tools/bench_ab.py's summary and verdicts, on synthetic run records.

The script is loaded by path and only its pure functions run: no
subprocess, no git, no benchmark.
"""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

LOWER, HIGHER = "kum_us_per_symbol", "inputs_per_s"
# two metrics as BENCHMARK.json gives them, with a bound of 25%
SPEC = {LOWER: {"name": LOWER, "better": "lower", "bound": 0.25},
        HIGHER: {"name": HIGHER, "better": "higher", "bound": 0.25}}


def _runs(metric, base, change, workload="w"):
    """Untraced run records, pair i holding base[i] and change[i], and
    one traced run per side that summarize must leave out."""
    runs = []
    for side, values in (("base", base), ("change", change)):
        for pair, v in enumerate(values):
            runs.append({"workload": workload, "trace": 0, "side": side,
                         "pair": pair, "fingerprint": "f%d" % pair,
                         "metrics": {metric: {"value": v}}})
        runs.append({"workload": workload, "trace": 1, "side": side,
                     "pair": None, "fingerprint": "traced",
                     "metrics": {metric: {"value": 1e9}}})
    return runs


def _row(metric, base, change):
    summary = bench_ab.summarize(_runs(metric, base, change), SPEC)
    assert summary["w"]["pairs"] == len(base)
    assert summary["w"]["fingerprints_equal"] == len(base)
    return summary["w"]["metrics"][metric]


def test_spec_reads_directions_and_bounds():
    spec = bench_ab.end_to_end()
    assert spec[LOWER]["better"] == "lower"
    assert spec[HIGHER]["better"] == "higher"
    for name, metric in spec.items():
        assert metric["name"] == name
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] < 1


def test_ten_of_ten_gain():
    base = [10.0 + 0.1 * i for i in range(10)]
    row = _row(LOWER, base, [v - 2 for v in base])
    assert row["wins"] == {"base": 0, "change": 10}
    assert row["base"]["median"] == pytest.approx(10.45)
    assert row["change"]["median"] == pytest.approx(8.45)
    assert row["verdict"] == "gain"


def test_nine_of_ten_inside_the_base_iqr_holds():
    # the change wins 9 pairs, but its median moves less than the base's
    # own spread
    base = [10.0 + 0.2 * i for i in range(10)]  # IQR 0.9
    change = [v - 0.1 for v in base[:9]] + [base[9] + 0.1]
    row = _row(LOWER, base, change)
    assert row["wins"] == {"base": 1, "change": 9}
    assert row["verdict"] == "held"


def test_fewer_than_ten_pairs_give_no_gain():
    assert bench_ab.verdict([10.0], [9.0], "lower", 0.25) == "held"
    row = _row(LOWER, [10.0, 10.1, 10.2], [8.0, 8.1, 8.2])
    assert row["wins"] == {"base": 0, "change": 3}
    assert row["verdict"] == "held"


def test_regression_past_the_bound_is_worse():
    base = [10.0 + 0.1 * i for i in range(10)]
    assert _row(LOWER, base, [v * 1.3 for v in base])["verdict"] == "worse"
    # inside the bound it holds, though every pair is lost
    row = _row(LOWER, base, [v * 1.2 for v in base])
    assert row["wins"] == {"base": 10, "change": 0}
    assert row["verdict"] == "held"


def test_spread_wider_than_the_bound_is_unresolved():
    base = [5.0, 15.0] * 5  # IQR 10 against 0.25 * median 10
    assert _row(LOWER, base, list(base))["verdict"] == "unresolved"
    # unless every change run beats every base run
    base = [10.0] * 5 + [30.0] * 5  # IQR 20 against 0.25 * 20
    assert _row(LOWER, base, [9.0] * 10)["verdict"] == "held"
    assert _row(LOWER, base, [9.0] * 9 + [10.0])["verdict"] == "unresolved"


def test_a_tied_pair_counts_for_neither_side():
    base = [10.0] * 10
    row = _row(LOWER, base, [9.0] * 9 + [10.0])
    assert row["wins"] == {"base": 0, "change": 9}
    assert row["verdict"] == "gain"
    row = _row(LOWER, base, [9.0] * 8 + [10.0] * 2)
    assert row["wins"] == {"base": 0, "change": 8}
    assert row["verdict"] == "held"


def test_higher_is_better():
    base = [100.0 + i for i in range(10)]
    row = _row(HIGHER, base, [v * 1.5 for v in base])
    assert row["better"] == "higher"
    assert row["wins"] == {"base": 0, "change": 10}
    assert row["verdict"] == "gain"
    row = _row(HIGHER, base, [v * 0.7 for v in base])
    assert row["wins"] == {"base": 10, "change": 0}
    assert row["verdict"] == "worse"
    assert _row(HIGHER, base, [v * 0.8 for v in base])["verdict"] == "held"


def test_a_metric_without_a_bound_gets_no_verdict():
    row = _row("engine.link_ns", [1.0] * 3, [2.0] * 3)
    assert row["better"] == "lower"
    assert row["wins"] == {"base": 3, "change": 0}
    assert "verdict" not in row


def test_fingerprints_are_compared_per_pair():
    runs = _runs(LOWER, [1.0] * 3, [1.0] * 3)
    runs[1]["fingerprint"] = "other"  # base, pair 1
    assert bench_ab.summarize(runs, SPEC)["w"]["fingerprints_equal"] == 2
