"""Fast tests of the benchmark's own arithmetic: python3 -m pytest perfbench -q"""

import json

import pytest

import compare
import stats
import tracing
import workloads


# -- percentiles ------------------------------------------------------------

def test_nearest_rank_percentile_is_a_measured_sample():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.5], 95) == 7.5


def test_p95_needs_two_hundred_samples_for_ten_above():
    assert stats.ranked_above(200, 95) == 10
    assert stats.ranked_above(199, 95) == 9
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(199) == 90
    assert stats.tail_percentile(720) == 95
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(9) is None


def test_chosen_tail_has_ten_samples_above_it():
    for n in (20, 21, 57, 199, 200, 240, 720, 1001, 12000):
        pct = stats.tail_percentile(n)
        values = list(range(n))
        cut = stats.percentile(values, pct)
        assert sum(1 for v in values if v > cut) >= stats.MIN_TAIL


# -- self time --------------------------------------------------------------

def _span(name, start, end, parent=None):
    return [name, start, end, parent, "i"]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),     # overlaps a
        _span("c", 8.0, 12.0, 0),    # runs past its parent's end
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1:] == pytest.approx([3.0, 3.0, 4.0])


def test_self_time_counts_only_direct_children():
    spans = [_span("a", 0.0, 10.0), _span("b", 1.0, 5.0, 0), _span("c", 2.0, 4.0, 1)]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 2.0])


def test_covered_length_ignores_intervals_outside():
    assert tracing.covered_length([(-3.0, -1.0), (11.0, 12.0)], 0.0, 10.0) == 0.0
    assert tracing.covered_length([(2.0, 3.0), (2.5, 2.7), (1.0, 2.0)], 0.0, 10.0) == 2.0


# -- verdicts ---------------------------------------------------------------

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_verdict_better_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread():
    change = [v * 0.8 for v in PARENT]
    assert stats.verdict(PARENT, change, "lower", 0.1) == ("better", 1.0)
    # Eight of ten pairs won is not enough, however large the gap.
    mixed = change[:8] + [v * 1.01 for v in PARENT[8:]]
    assert stats.verdict(PARENT, mixed, "lower", 0.25)[0] == "within bound"


def test_verdict_ties_count_for_neither_side():
    assert stats.verdict(PARENT, PARENT, "lower", 0.1) == ("within bound", 0.0)


def test_verdict_worse_beyond_the_bound():
    assert stats.verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.1)[0] == "worse"
    assert stats.verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1)[0] \
        == "within bound"


def test_verdict_higher_is_better():
    assert stats.verdict(PARENT, [v * 1.3 for v in PARENT], "higher", 0.1)[0] == "better"
    assert stats.verdict(PARENT, [v * 0.8 for v in PARENT], "higher", 0.1)[0] == "worse"


def test_verdict_unresolved_when_the_spread_exceeds_the_bound():
    wide = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    assert stats.verdict(wide, [v * 1.05 for v in wide], "lower", 0.1)[0] == "unresolved"


def test_verdict_every_change_run_better_than_every_parent_run_is_not_unresolved():
    wide = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    change = [9.9, 9.8, 9.7, 9.9, 9.6, 9.95, 9.85, 9.75, 9.9, 9.8]
    assert stats.relative_spread(wide) > 0.1
    assert stats.verdict(wide, change, "lower", 0.1)[0] == "within bound"


def test_verdict_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        stats.verdict(PARENT, PARENT[:-1], "lower", 0.1)


# -- compare ----------------------------------------------------------------

def _result(workload, seed, docs, value):
    return {"meta": {"workload": workload, "seed": seed, "documents_sha256": docs},
            "failed": 0, "metrics": {"wall_s": {"value": value, "unit": "s"}}}


def test_compare_refuses_runs_of_different_documents():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    parent = {("elim", s): _result("elim", s, "aa", 1.0) for s in range(3)}
    change = {("elim", s): _result("elim", s, "aa", 0.5) for s in range(3)}
    assert compare.compare(parent, change, spec)[0][-1] == "better"
    change[("elim", 1)] = _result("elim", 1, "bb", 0.5)
    with pytest.raises(ValueError):
        compare.compare(parent, change, spec)


# -- candidate arithmetic ---------------------------------------------------

def _term(left, right, coeff):
    return {"left": left, "right": right, "coeff": coeff}


def test_combine_sums_candidates_exactly_over_q():
    a = [{"vertex": "v0",
          "terms": [_term(["x1"], ["x2"], "1/2"), _term({"e": "v0"}, ["x2"], "1")]}]
    b = [{"vertex": "v0",
          "terms": [_term(["x1"], ["x2"], "1/3"), _term({"e": "v0"}, ["x2"], "-1")]}]
    total = workloads.combine([a, b], None)
    assert total["coproduct"] == [{"vertex": "v0", "terms": [_term(["x1"], ["x2"], "5/6")]}]


def test_combine_reduces_modulo_p_and_adds_the_outside_idempotent_term():
    a = [{"vertex": "v1", "terms": [_term(["x1"], ["x2"], "5")]}]
    total = workloads.combine([a, a], 7, outside_vertex="v1")
    assert total["coproduct"] == [{"vertex": "v1", "terms": [
        _term(["x1"], ["x2"], "3"), _term({"e": "v1"}, {"e": "v1"}, "1")]}]
    assert workloads.combine([], 7) == {"schema": "frobq/1", "coproduct": []}


# -- the metric list --------------------------------------------------------

def test_reported_metrics_match_the_benchmark_definition():
    import run

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- reference seconds ------------------------------------------------------

def test_speed_scale_uses_the_samples_over_the_interval_and_its_neighbours():
    import speed

    meter = speed.SpeedMeter()
    meter.times = [0.0, 1.0, 2.0, 3.0]
    meter.seconds = [0.01, 0.04, 0.02, 0.08]
    ref = speed.REFERENCE_S
    # Only the neighbours at 1.0 and 2.0 lie near [1.2, 1.8].
    assert meter.scale(1.2, 1.8) == pytest.approx(ref / 0.03)
    # A whole-pass interval takes the mean of every sample.
    assert meter.scale(0.0, 3.0) == pytest.approx(ref / 0.0375)
    # Past the last sample, the last one before the interval still counts.
    assert meter.scale(5.0, 6.0) == pytest.approx(ref / 0.08)
    with pytest.raises(ValueError):
        speed.SpeedMeter().scale(0.0, 1.0)
