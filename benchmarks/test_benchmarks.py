"""Tests of the benchmark's span arithmetic, layer wrapping and verdicts."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from compare import bound_check, verdict  # noqa: E402
from spans import Span, Tracer, covered_length, layer_metrics, self_times  # noqa: E402


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5)], 0, 10) == 4
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([(1, 2), (3, 4), (3.5, 6)], 0, 10) == 4
    assert covered_length([], 0, 10) == 0
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    root = Span("root", 0.0, 10.0)
    child = Span("child", 1.0, 5.0, root)
    grandchild = Span("grandchild", 2.0, 4.0, child)
    assert self_times([root, child, grandchild]) == [6.0, 2.0, 2.0]


def test_self_time_counts_overlapping_worker_children_once():
    # Two workers: children of one parent overlap in time.
    parent = Span("montecarlo.msi_experiment", 0.0, 10.0)
    a = Span("model.sample", 0.0, 6.0, parent)
    b = Span("model.sample", 1.0, 9.0, parent)
    c = Span("model.sample", 8.5, 9.5, parent)
    assert self_times([parent, a, b, c]) == pytest.approx([0.5, 6.0, 8.0, 1.0])


def test_worker_spans_take_the_open_span_of_the_installing_thread_as_parent():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: threading.get_ident())

    def run_pool():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(inner) for _ in range(4)]]

    outer = tracer.wrap("outer", run_pool)
    outer()
    spans = tracer.take()
    (top,) = [s for s in spans if s.name == "outer"]
    children = [s for s in spans if s.name == "inner"]
    assert len(children) == 4
    assert all(s.parent is top for s in children)
    assert tracer.take() == []


def test_installed_wrappers_replace_names_imported_by_name():
    import skewdisc
    from skewdisc import estimators, linalg, model, montecarlo

    originals = (linalg.inv_sqrt, estimators.inv_sqrt, montecarlo.sample, skewdisc.sample)
    tracer = Tracer()
    with tracer.installed():
        assert estimators.inv_sqrt is not originals[1]
        assert montecarlo.sample is not originals[2]
        params = model.MixtureParams(alpha1=0.7, mu1=np.array([-0.6, 0.0]),
                                     mu2=np.array([1.4, 0.0]), sigma=np.eye(2))
        data = montecarlo.sample(params, 500, np.random.default_rng(0))
        estimators.est_skewvec(data)
        with pytest.raises(skewdisc.SupervisionRequiredError):
            estimators.est_lda(model.DataSet(data.observations))
    spans = tracer.take()
    names = [s.name for s in spans]
    for name in ("model.sample", "estimators.est_skewvec", "estimators.whiten",
                 "moments.sample_moments", "linalg.inv_sqrt", "estimators.est_lda"):
        assert name in names
    (whiten,) = [s for s in spans if s.name == "estimators.whiten"]
    assert whiten.parent.name == "estimators.est_skewvec"
    assert (linalg.inv_sqrt, estimators.inv_sqrt, montecarlo.sample, skewdisc.sample) == originals
    metrics = layer_metrics(spans, 1.0)
    assert metrics["estimators.raised"] == 1
    assert metrics["estimators.raised.SupervisionRequiredError"] == 1
    assert metrics["model.sample.calls"] == 1


def test_layer_metrics_fixed_point_counts():
    run = Span("cli.main", 0.0, 4.0)
    spans = [run,
             Span("estimators.est_pp", 0.0, 1.0, run, {"converged": True, "iterations": 10}),
             Span("estimators.est_pp", 1.0, 3.0, run, {"converged": False, "iterations": 200}),
             Span("estimators.est_jade3", 3.0, 4.0, run, {"raised": "NearSingularError"})]
    m = layer_metrics(spans, 4.0)
    assert m["estimators.pp.iterations"] == 210
    assert m["estimators.pp.s_per_iter"] == pytest.approx(3.0 / 210)
    assert m["estimators.pp.converged_share"] == 0.5
    assert m["estimators.jade3.converged_share"] == 0.0
    assert m["estimators.raised.NearSingularError"] == 1
    assert m["cli.self_s"] == 0.0
    assert m["estimators.pp.share"] == pytest.approx(0.75)


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    emitted = set(layer_metrics([], 1.0)) | {
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]


def test_verdict_better_when_nine_of_ten_win_by_more_than_the_iqr():
    change = [v - 0.10 for v in PARENT]
    change[0] = PARENT[0] + 0.01
    assert verdict(PARENT, change, "lower") == ("better", 9)
    assert verdict(change, PARENT, "lower")[0] == "worse"


def test_verdict_unresolved_on_eight_wins_ties_or_small_shift():
    eight = [v - 0.10 for v in PARENT]
    eight[0] = eight[1] = PARENT[0] + 0.5
    assert verdict(PARENT, eight, "lower")[0] == "unresolved"
    ties = list(PARENT)
    ties[:5] = [v - 0.10 for v in PARENT[:5]]
    assert verdict(PARENT, ties, "lower") == ("unresolved", 5)
    small = [v - 0.005 for v in PARENT]
    assert verdict(PARENT, small, "lower") == ("unresolved", 10)
    assert verdict(PARENT[:5], [v - 1 for v in PARENT[:5]], "lower")[0] == "unresolved"


def test_verdict_follows_the_metric_direction():
    higher = [v + 0.10 for v in PARENT]
    assert verdict(PARENT, higher, "higher")[0] == "better"
    assert verdict(PARENT, higher, "lower")[0] == "worse"


def test_bound_check():
    assert bound_check(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1) == "within"
    assert bound_check(PARENT, [v * 1.20 for v in PARENT], "lower", 0.1) == "exceeded"
    assert bound_check(PARENT, [v * 0.90 for v in PARENT], "higher", 0.05) == "exceeded"
    wide = [1.0, 1.5, 0.5, 1.2, 0.8]
    assert bound_check(wide, [v * 1.05 for v in wide], "lower", 0.1) == "unresolved"
    assert bound_check(wide, [0.1] * 5, "lower", 0.1) == "within"
