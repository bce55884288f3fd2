import numpy as np
import pytest

from bench_paths import BENCH

import bench_spans
from bench_spans import Tracer, layer_metrics, self_times


def span(i, parent, name, start, end):
    return (i, parent, name, start, end, "r")


def test_self_time_subtracts_direct_children_only():
    spans = [span(0, None, "cli.rank", 0.0, 10.0),
             span(1, 0, "model.load_model", 1.0, 4.0),
             span(2, 1, "text.Vocabulary.load", 2.0, 3.0),
             span(3, 0, "retrieval.write_run", 5.0, 9.0)]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, "cli.fuse", 0.0, 10.0),
             span(1, 0, "ltr.train_ranksvm", 1.0, 5.0),
             span(2, 0, "ltr.train_ranksvm", 3.0, 7.0),
             span(3, 0, "ltr.pagerank", 9.5, 11.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 0.5)


def test_layer_self_times_and_remainder_account_for_wall():
    spans = [span(0, None, "cli.train", 0.0, 6.0),
             span(1, 0, "training.train", 0.5, 5.5),
             span(2, 1, "sampling.sample_epoch", 0.5, 1.5),
             span(3, 1, "model.batch_loss_and_gradients", 2.0, 4.0),
             span(4, 1, "model.adam_step", 4.0, 4.5),
             span(5, None, "cli.train", 7.0, 8.0)]
    m = layer_metrics(spans, {"sampling.instances": 40}, [4.5, 4.5])
    assert m["cli.self_s"] == pytest.approx((1.0 + 1.0) / 2)
    assert m["training.loop_self_s"] == pytest.approx(1.5 / 2)
    assert m["sampling.sample_s"] == pytest.approx(0.5)
    assert m["model.step_s"] == pytest.approx(1.0)
    assert m["model.adam_s"] == pytest.approx(0.25)
    assert m["model.steps"] == pytest.approx(0.5)
    assert m["sampling.instances"] == pytest.approx(20)
    assert m["cli.commands"] == pytest.approx(1.0)
    layers = sum(m[f"{layer}.self_s"] for layer in bench_spans.LAYERS)
    assert layers == pytest.approx(3.5)
    assert layers + m["trace.remainder_s"] == pytest.approx(m["trace.wall_s"])


def test_quantiles_are_nearest_rank():
    spans = [span(i, None, "qlm.rank", 0.0, (i + 1) / 1000.0) for i in range(20)]
    m = layer_metrics(spans, {}, [1.0])
    assert m["qlm.rank_ms_p50"] == pytest.approx(10.0)
    assert m["qlm.rank_ms_p90"] == pytest.approx(18.0)
    assert m["retrieval.rank_ms_p50"] == 0.0


def test_tracer_names_spans_by_defining_module_and_restores():
    import lse.cli
    import lse.retrieval
    import lse.training
    from lse.model import Dims, init_params

    originals = (lse.retrieval.project, lse.training.rank_entities,
                 lse.cli.load_model, lse.text.Vocabulary.load)
    params = init_params(Dims(4, 3, 10, 6), 0)
    tracer = Tracer()
    tracer.install()
    try:
        ranked = lse.training.rank_entities(params, [1, 2], list("abcdef"), "t")
    finally:
        tracer.uninstall()
    assert (lse.retrieval.project, lse.training.rank_entities,
            lse.cli.load_model, lse.text.Vocabulary.load) == originals
    names = {s[0]: s[2] for s in tracer.spans}
    parents = {s[2]: names.get(s[1]) for s in tracer.spans}
    assert parents == {"retrieval.rank_entities": None,
                       "model.project": "retrieval.rank_entities",
                       "retrieval.rank_by_vector": "retrieval.rank_entities",
                       "retrieval.cosine_scores": "retrieval.rank_by_vector",
                       "retrieval.ranked_from_scores": "retrieval.rank_by_vector"}
    assert tracer.counters["retrieval.sorted_entries"] == len(ranked.entries) == 6


def test_tracer_leaves_per_entity_qlm_score_unwrapped():
    import lse.ltr
    import lse.qlm

    score = lse.qlm.score
    tracer = Tracer()
    tracer.install()
    try:
        assert lse.qlm.score is score and lse.ltr.qlm_score is score
        assert lse.qlm.rank is not lse.qlm.rank.__wrapped__
    finally:
        tracer.uninstall()


def test_tracer_records_spans_of_failed_calls():
    tracer = Tracer(clock=iter(np.arange(10.0)).__next__)

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("cli.qlm", boom)
    assert tracer.spans == [(0, None, "cli.qlm", 0.0, 1.0, None)]


def test_benchmark_json_lists_what_the_runs_report():
    import json
    import os

    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = set(layer_metrics([], {}, [1.0])) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mb",
                                                       "setup_s"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WHY
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])
