"""PageRank, RankSVM, feature assembly, fold fusion, and the ideal-vector
analysis."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lse.ltr
from lse.errors import DataError
from lse.ltr import (COMBOS, GRAPH_NAMES, QI_MASK_FEATURES,
                     QI_VALUE_FEATURES, QIData, RankerConfig, _fold_partition,
                     _pair_rows, _pegasos, _standardize_fit, build_features,
                     cross_validated_fusion, ideal_vector_report, load_graph,
                     load_qi_attributes, pagerank, qi_feature_matrix)
from lse.evaluation import Qrels, evaluate_run, ndcg
from lse.model import Dims, init_params, project
from lse.qlm import estimate
from lse.retrieval import rank_by_vector, ranked_from_scores
from lse.text import Corpus, Document, Vocabulary, tokenize


def small_corpus():
    docs = [Document("d0", "e0", np.asarray([0, 0, 1], dtype=np.int32)),
            Document("d1", "e1", np.asarray([1, 2], dtype=np.int32)),
            Document("d2", "e2", np.asarray([2], dtype=np.int32))]
    return Corpus(["e0", "e1", "e2"], docs, {0: [0], 1: [1], 2: [2]}, 6)


def feature_vocab():
    return Vocabulary(["alpha", "beta", "gamma"], [3, 2, 2], [1, 2, 2])


# ---- PageRank ----

def test_pagerank_empty_graph_is_uniform():
    assert np.allclose(pagerank(4, []), 0.25, atol=1e-15)


def test_pagerank_ring_is_uniform():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    assert np.allclose(pagerank(5, edges), 0.2, atol=1e-9)


def test_pagerank_two_node_analytic():
    # 0 -> 1 with node 1 dangling: p0 = (1-d)/2 + d*p1/2, p0 + p1 = 1
    p = pagerank(2, [(0, 1)], damping=0.85)
    assert p[0] == pytest.approx(0.5 / 1.425, abs=1e-8)
    assert p[1] == pytest.approx(1.0 - 0.5 / 1.425, abs=1e-8)


def test_pagerank_matches_dense_linear_solve():
    n = 6
    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (3, 4), (4, 0)]
    # node 5 is dangling
    d = 0.85
    T = np.zeros((n, n))
    outdeg = np.zeros(n)
    for s, _ in edges:
        outdeg[s] += 1
    for s, t in edges:
        T[s, t] = 1.0 / outdeg[s]
    for s in range(n):
        if outdeg[s] == 0:
            T[s, :] = 1.0 / n
    p_exact = np.linalg.solve(np.eye(n) - d * T.T,
                              np.full(n, (1.0 - d) / n))
    p = pagerank(n, edges, damping=d)
    assert np.allclose(p, p_exact, atol=1e-8)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_input_validation():
    with pytest.raises(DataError):
        pagerank(3, [(0, 5)])
    with pytest.raises(DataError):
        pagerank(3, [(-1, 0)])
    with pytest.raises(DataError):
        pagerank(3, [(0, 1)], damping=1.0)
    with pytest.raises(DataError):
        pagerank(0, [])


# ---- RankSVM ----

def oracle_train_ranksvm(rows, labels, config, groups=None):
    """The single-fit Pegasos loop, one pair at a time: the reference the
    lockstep trainer must match bit for bit. Returns the weights."""
    rows = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    groups = (np.zeros(len(rows), dtype=np.int64) if groups is None
              else np.asarray(groups, dtype=np.int64))
    pos_pool = []
    pos_group_code = []
    neg_lists = []
    for g in np.unique(groups):
        sel = groups == g
        pos = np.flatnonzero(sel & (labels == 1))
        neg = np.flatnonzero(sel & (labels == 0))
        if len(pos) == 0 or len(neg) == 0:
            continue
        code = len(neg_lists)
        neg_lists.append(neg)
        pos_pool.append(pos)
        pos_group_code.append(np.full(len(pos), code, dtype=np.int64))
    pos_pool = np.concatenate(pos_pool)
    pos_group_code = np.concatenate(pos_group_code)
    neg_counts = np.array([len(neg) for neg in neg_lists], dtype=np.int64)
    neg_starts = np.zeros(len(neg_lists), dtype=np.int64)
    np.cumsum(neg_counts[:-1], out=neg_starts[1:])
    neg_flat = np.concatenate(neg_lists)

    rng = np.random.default_rng(config.seed)
    t_total = config.pair_samples
    pick = rng.integers(0, len(pos_pool), size=t_total)
    gcode = pos_group_code[pick]
    neg_local = np.floor(rng.random(t_total) * neg_counts[gcode]).astype(np.int64)
    neg_rows = neg_flat[neg_starts[gcode] + neg_local]
    diffs = rows[pos_pool[pick]] - rows[neg_rows]

    lam = 1.0 / config.c
    w = np.zeros(rows.shape[1])
    for t in range(1, t_total + 1):
        d = diffs[t - 1]
        active = float(d @ w) < 1.0
        w *= 1.0 - 1.0 / t
        if active:
            w += (1.0 / (lam * t)) * d
    return w


@st.composite
def lockstep_fits(draw):
    """K = 1-5 fits of one width (1-20 or 256), each with its own rows,
    labels holding both classes, groups, seed and C, plus a chunk length in
    steps that does not divide the shared pair count."""
    width = draw(st.one_of(st.integers(1, 20), st.just(256)))
    steps = draw(st.integers(2, 40))
    pair_samples = steps * draw(st.integers(0, 4)) + draw(st.integers(1, steps - 1))
    fits = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(2, 30))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = rng.normal(size=(n, width)) * draw(st.sampled_from([0.01, 1.0, 50.0]))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (1, 0)  # rows 0 and 1 share a group, so a pair exists
        groups = rng.integers(0, draw(st.integers(1, 3)), size=n)
        groups[1] = groups[0]
        fits.append((rows, labels, groups, RankerConfig(
            c=draw(st.floats(0.05, 20.0)), pair_samples=pair_samples,
            seed=draw(st.integers(0, 2**32 - 1)))))
    return fits, steps, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(lockstep_fits())
def test_lockstep_weights_equal_the_single_fit_oracle(drawn):
    fits, steps, standardize = drawn
    k = len(fits)
    width = fits[0][0].shape[1]
    offsets = np.cumsum([0] + [len(rows) for rows, _, _, _ in fits])
    pairs, means, stds, expected = [], [], [], []
    for (rows, labels, groups, config), offset in zip(fits, offsets):
        mean, std = _standardize_fit(rows)
        p, q = _pair_rows(labels, groups, config)
        pairs.append((p + offset, q + offset))
        means.append(mean)
        stds.append(std)
        expected.append(oracle_train_ranksvm((rows - mean) / std if standardize
                                             else rows, labels, config, groups))
    stacked = np.concatenate([rows for rows, _, _, _ in fits])
    with mock.patch.object(lse.ltr, "_CHUNK_VALUES", steps * k * width):
        weights = _pegasos(stacked, pairs, [1.0 / config.c for _, _, _, config in fits],
                           *((np.array(means), np.array(stds)) if standardize else ()))
    assert weights.shape == (k, width)
    for w, w_expected in zip(weights, expected):
        assert w.tobytes() == w_expected.tobytes()


def fit_ranksvm(rows, labels, config=RankerConfig(), groups=None):
    """One RankSVM fit, as fuse and ideal-vector train each of theirs."""
    pairs = _pair_rows(np.asarray(labels), groups, config)
    return _pegasos(np.asarray(rows, dtype=np.float64), [pairs], [1.0 / config.c])[0]


def test_ranksvm_duplicated_column_matches_single_column():
    single = fit_ranksvm([[2.0], [0.0]], [1, 0])
    dup = fit_ranksvm([[2.0, 2.0], [0.0, 0.0]], [1, 0])
    assert dup[0] == pytest.approx(dup[1], rel=1e-12)
    s1 = np.array([[2.0], [0.0]]) @ single
    s2 = np.array([[2.0, 2.0], [0.0, 0.0]]) @ dup
    assert np.max(np.abs(s1 - s2)) < 1e-6


def test_ranksvm_orders_separable_data():
    rows = np.array([[1.0, 0.0], [0.9, 0.1], [0.1, 0.9], [0.0, 1.0]])
    scores = rows @ fit_ranksvm(rows, [1, 1, 0, 0],
                                RankerConfig(pair_samples=2000, seed=3))
    assert min(scores[:2]) > max(scores[2:])


def test_ranksvm_is_seed_deterministic():
    rows = np.random.default_rng(0).normal(size=(12, 3))
    labels = [1, 0] * 6
    a = fit_ranksvm(rows, labels, RankerConfig(pair_samples=500, seed=9))
    b = fit_ranksvm(rows, labels, RankerConfig(pair_samples=500, seed=9))
    c = fit_ranksvm(rows, labels, RankerConfig(pair_samples=500, seed=10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ranksvm_rejects_single_class():
    with pytest.raises(DataError, match="single class"):
        _pair_rows(np.array([1, 1]), None, RankerConfig())


def test_ranksvm_rejects_groups_without_both_classes():
    with pytest.raises(DataError, match="both a relevant"):
        _pair_rows(np.array([1, 0]), [0, 1], RankerConfig())


def test_ranker_config_validation():
    with pytest.raises(DataError):
        RankerConfig(c=0.0)
    with pytest.raises(DataError):
        RankerConfig(pair_samples=0)


# ---- query-independent data ----

def test_load_qi_attributes_round_trip(tmp_path):
    path = tmp_path / "attrs.jsonl"
    path.write_text(
        '{"entity_id": "e0", "price": 9.99, "sales_rank": 4, '
        '"description_length": 120}\n'
        '{"entity_id": "e1", "price": null}\n')
    attrs = load_qi_attributes(path)
    assert attrs["e0"] == {"price": 9.99, "sales_rank": 4,
                           "description_length": 120}
    assert attrs["e1"] == {"price": None, "sales_rank": None,
                           "description_length": None}


def test_load_qi_attributes_reports_bad_line(tmp_path):
    path = tmp_path / "attrs.jsonl"
    path.write_text('{"entity_id": "e0"}\nnot json\n')
    with pytest.raises(DataError, match="2"):
        load_qi_attributes(path)


def test_load_graph_round_trip_and_errors(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("e0\te1\ne1\te2\n")
    assert load_graph(path) == [("e0", "e1"), ("e1", "e2")]
    path.write_text("e0\te1\ne1\n")
    with pytest.raises(DataError, match="2"):
        load_graph(path)


def test_qi_feature_matrix_values_and_masks():
    corpus = small_corpus()
    qi = QIData(attributes={
        "e0": {"price": 9.99, "sales_rank": 4, "description_length": 120},
        "e1": {"price": None, "sales_rank": 0, "description_length": None},
    })
    out = qi_feature_matrix(corpus, qi)
    assert out.shape == (3, 10)
    assert out[0, 0] == 9.99 and out[0, 7] == 1.0
    assert out[0, 1] == 120.0 and out[0, 8] == 1.0
    assert out[0, 2] == 0.25 and out[0, 9] == 1.0
    # e1: all absent or non-positive, e2: no record at all
    assert np.array_equal(out[1, [0, 1, 2, 7, 8, 9]], np.zeros(6))
    assert np.array_equal(out[2, [0, 1, 2, 7, 8, 9]], np.zeros(6))


def test_qi_feature_matrix_pagerank_columns():
    corpus = small_corpus()
    qi = QIData(graphs={"also_bought": [("e0", "e2"), ("ghost", "e0")]})
    out = qi_feature_matrix(corpus, qi)
    assert np.allclose(out[:, 3], pagerank(3, [(0, 2)]), atol=1e-12)
    for k in range(1, len(GRAPH_NAMES)):
        assert np.allclose(out[:, 3 + k], 1.0 / 3.0, atol=1e-15)


def test_qi_feature_matrix_without_data():
    out = qi_feature_matrix(small_corpus(), None)
    assert np.array_equal(out[:, [0, 1, 2, 7, 8, 9]], np.zeros((3, 6)))
    assert np.allclose(out[:, 3:7], 1.0 / 3.0, atol=1e-15)


# ---- feature assembly ----

def features_setup(lambda_jm=0.5, params="init"):
    corpus = small_corpus()
    vocab = feature_vocab()
    qlm_model = estimate(corpus, lambda_jm)
    if params == "init":
        params = init_params(Dims(4, 3, vocab.size, corpus.num_entities), 0)
    topics = {"t1": "alpha beta", "t0": "gamma"}
    return corpus, vocab, qlm_model, params, topics


def test_build_features_columns_match_component_scores():
    from lse.model import project
    from lse.qlm import score
    from lse.retrieval import cosine_scores

    corpus, vocab, qlm_model, params, topics = features_setup()
    table = build_features(topics, corpus, vocab, qlm_model, params)
    assert table.feature_names == QI_VALUE_FEATURES + QI_MASK_FEATURES + ("qlm", "lse")
    assert table.topics == ["t0", "t1"]
    assert table.entity_ids == ["e0", "e1", "e2"]
    qids = vocab.encode(["alpha", "beta"])
    expected_qlm = [score(qlm_model, i, qids) for i in range(3)]
    assert np.allclose(table.matrices["t1"][:, 10], expected_qlm, atol=1e-12)
    expected_lse = cosine_scores(params.W_e, project(params, qids))
    assert np.allclose(table.matrices["t1"][:, 11], expected_lse, atol=1e-12)


def test_build_features_replaces_minus_inf():
    corpus, vocab, qlm_model, params, _ = features_setup(lambda_jm=0.0)
    table = build_features({"t": "alpha"}, corpus, vocab, qlm_model, params)
    col = table.matrices["t"][:, 10]
    assert np.all(np.isfinite(col))
    # only e0's profile contains alpha; the others sit one below its score
    assert col[1] == col[0] - 1.0 and col[2] == col[0] - 1.0


def test_build_features_zeroes_query_columns_when_out_of_vocabulary():
    corpus, vocab, qlm_model, params, _ = features_setup()
    table = build_features({"t": "zzz qqq"}, corpus, vocab, qlm_model, params)
    assert np.array_equal(table.matrices["t"][:, 10], np.zeros(3))
    assert np.array_equal(table.matrices["t"][:, 11], np.zeros(3))


def test_build_features_without_model_leaves_semantic_column_zero():
    corpus, vocab, qlm_model, _, topics = features_setup(params=None)
    table = build_features(topics, corpus, vocab, qlm_model, None)
    assert np.array_equal(table.matrices["t1"][:, 11], np.zeros(3))
    assert np.any(table.matrices["t1"][:, 10] != 0)


def test_columns_for_blocks():
    corpus, vocab, qlm_model, params, topics = features_setup()
    table = build_features(topics, corpus, vocab, qlm_model, params)
    assert table.columns_for(("qi",)).tolist() == list(range(10))
    assert table.columns_for(("qi", "qlm")).tolist() == list(range(10)) + [10]
    assert table.columns_for(("lse",)).tolist() == [11]
    with pytest.raises(DataError):
        table.columns_for(("bm25",))


# ---- fusion ----

def test_fold_partition_covers_and_is_deterministic():
    topics = [f"t{i}" for i in range(10)]
    parts = _fold_partition(topics, 3, seed=4)
    assert sorted(len(p) for p in parts) == [3, 3, 4]
    flat = [t for p in parts for t in p]
    assert sorted(flat) == sorted(topics)
    assert parts == _fold_partition(topics, 3, seed=4)


def fusion_setup():
    from conftest import build_fusion_benchmark

    corpus, vocab, params, topics, grades = build_fusion_benchmark()
    qrels = Qrels(grades)
    qlm_model = estimate(corpus, 0.5)
    table = build_features(topics, corpus, vocab, qlm_model, params)
    return table, qrels


def test_cross_validated_fusion_report_structure():
    table, qrels = fusion_setup()
    report = cross_validated_fusion(table, qrels, folds=4, seed=0, cutoff=10,
                                    ks=(5,),
                                    ranker_config=RankerConfig(pair_samples=2000))
    assert [row["features"] for row in report.rows] == [
        "qi", "qi+qlm", "qi+lse", "qi+qlm+lse"]
    for row in report.rows:
        assert set(row["means"]) == {"ndcg@10", "p@5"}
        assert set(row["per_topic"]) == set(table.topics)
    assert set(report.significance) == {"ndcg@10", "p@5"}
    for stats in report.significance.values():
        assert stats.get("degenerate") or {"t", "p", "marker"} <= set(stats)
    assert report.folds == 4 and report.seed == 0


def test_cross_validated_fusion_is_deterministic():
    table, qrels = fusion_setup()
    kwargs = dict(folds=4, seed=1, cutoff=10, ks=(5,),
                  ranker_config=RankerConfig(pair_samples=1000))
    a = cross_validated_fusion(table, qrels, **kwargs)
    b = cross_validated_fusion(table, qrels, **kwargs)
    assert [r["means"] for r in a.rows] == [r["means"] for r in b.rows]


def test_cross_validated_fusion_needs_enough_topics():
    table, qrels = fusion_setup()
    with pytest.raises(DataError, match="fold"):
        cross_validated_fusion(table, qrels, folds=len(table.topics) + 1)
    for folds in (1, 0, -3):
        with pytest.raises(DataError, match="at least 2 folds"):
            cross_validated_fusion(table, qrels, folds=folds)


def test_cross_validated_fusion_equals_per_fold_oracle():
    """Every fold trained alone by the oracle loop, on its z-scored training
    topics, gives the same per-topic metrics as the lockstep folds."""
    table, qrels = fusion_setup()
    folds, seed, config = 4, 3, RankerConfig(c=0.5, pair_samples=700)
    report = cross_validated_fusion(table, qrels, folds=folds, seed=seed,
                                    cutoff=10, ks=(5,), ranker_config=config)
    n = len(table.entity_ids)
    partition = _fold_partition(table.topics, folds, seed)
    for combo_index, (combo, row) in enumerate(zip(COMBOS, report.rows)):
        cols = table.columns_for(combo)
        runs = {}
        for fold_index, heldout in enumerate(partition):
            train = [t for t in table.topics if t not in heldout]
            matrix = np.concatenate([table.matrices[t][:, cols] for t in train])
            labels = np.concatenate([[qrels.grade(t, e) for e in table.entity_ids]
                                     for t in train])
            mean, std = _standardize_fit(matrix)
            fold_seed = int(np.random.SeedSequence(
                entropy=seed, spawn_key=(combo_index, fold_index)).generate_state(1)[0])
            w = oracle_train_ranksvm(
                (matrix - mean) / std, labels,
                RankerConfig(c=config.c, pair_samples=config.pair_samples,
                             seed=fold_seed),
                np.repeat(np.arange(len(train)), n))
            for tid in heldout:
                scores = ((table.matrices[tid][:, cols] - mean) / std) @ w
                runs[tid] = ranked_from_scores(tid, table.entity_ids, scores, 10)
        assert row["per_topic"] == evaluate_run(runs, qrels, cutoff=10,
                                                ks=(5,)).per_topic


# ---- ideal vectors ----

def entity_params(w_e):
    """A model whose entity rows are w_e, with a three-word vocabulary."""
    vocab = Vocabulary(["wa", "wb", "wc"], [3, 2, 1], [3, 2, 1])
    params = init_params(Dims(4, w_e.shape[1], vocab.size, len(w_e)), 0)
    params.W_e[:] = w_e
    return params, vocab


def test_ideal_vector_skips_single_relevant():
    params, vocab = entity_params(np.eye(3))
    rows = ideal_vector_report(params, vocab, {"t": "wa"}, Qrels({("t", "e0"): 1}),
                               ["e0", "e1", "e2"])
    assert rows == [{"topic_id": "t", "status": "skipped_single_relevant",
                     "n_relevant": 1, "ndcg_ideal": None, "ndcg_query": None}]


def test_ideal_vector_separates_relevant_directions():
    params, vocab = entity_params(np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0],
                                            [0.0, -1.0]]))
    qrels = Qrels({("t", "e0"): 1, ("t", "e1"): 1})
    rows = ideal_vector_report(params, vocab, {"t": "wa"}, qrels,
                               ["e0", "e1", "e2", "e3"], cutoff=2,
                               config=RankerConfig(pair_samples=2000, seed=1))
    assert rows[0]["status"] == "ok"
    assert rows[0]["ndcg_ideal"] == 1.0  # the two relevant entities rank first


def report_setup():
    vocab = Vocabulary(["wa", "wb", "wc"], [3, 2, 1], [3, 2, 1])
    params = init_params(Dims(4, 3, vocab.size, 4), 0)
    topics = {"ok": "wa wb", "single": "wa", "none": "wb", "oov": "zzz",
              "outside": "wa"}
    qrels = Qrels({("ok", "e0"): 1, ("ok", "e1"): 1,
                   ("single", "e2"): 1, ("none", "e0"): 0,
                   ("oov", "e0"): 1, ("oov", "e1"): 1,
                   ("outside", "e3"): 1, ("outside", "ghost"): 1})
    return params, vocab, topics, qrels, ["e0", "e1", "e2", "e3"]


def test_ideal_vector_report_statuses():
    params, vocab, topics, qrels, ids = report_setup()
    rows = ideal_vector_report(params, vocab, topics, qrels, ids,
                               config=RankerConfig(pair_samples=1000))
    by_topic = {row["topic_id"]: row for row in rows}
    assert by_topic["ok"]["status"] == "ok"
    assert 0.0 <= by_topic["ok"]["ndcg_ideal"] <= 1.0
    assert 0.0 <= by_topic["ok"]["ndcg_query"] <= 1.0
    assert by_topic["single"]["status"] == "skipped_single_relevant"
    assert by_topic["single"]["ndcg_ideal"] is None
    assert by_topic["none"]["status"] == "skipped_no_relevant"
    assert by_topic["oov"]["status"] == "skipped_empty_query"
    assert by_topic["oov"]["n_relevant"] == 2
    # one of its two relevant ids is not a model entity
    assert by_topic["outside"]["status"] == "skipped_single_relevant"
    assert by_topic["outside"]["n_relevant"] == 2


def test_ideal_vector_report_is_deterministic():
    params, vocab, topics, qrels, ids = report_setup()
    cfg = RankerConfig(pair_samples=1000)
    first = ideal_vector_report(params, vocab, topics, qrels, ids, config=cfg)
    second = ideal_vector_report(params, vocab, topics, qrels, ids, config=cfg)
    assert first == second


def test_ideal_vector_report_equals_per_topic_oracle():
    """Each eligible topic's ideal vector trained alone by the oracle loop
    gives the same rankings and NDCGs as the lockstep report."""
    rng = np.random.default_rng(7)
    vocab = Vocabulary(["wa", "wb", "wc"], [3, 2, 1], [3, 2, 1])
    params = init_params(Dims(4, 6, vocab.size, 12), 0)
    params.W_e[3] = 0.0  # a zero row normalizes to zero
    ids = [f"e{i:02d}" for i in range(12)]
    topics, grades = {}, {}
    for i in range(7):
        topics[f"t{i}"] = "wa wc" if i % 3 else "wb"
        for eid in rng.choice(ids, size=i % 5, replace=False):
            grades[(f"t{i}", eid)] = 1
    topics["oov"] = "zzz"
    grades[("oov", "e00")] = grades[("oov", "e01")] = 1
    qrels = Qrels(grades)
    config = RankerConfig(c=2.0, pair_samples=900, seed=5)
    rows = ideal_vector_report(params, vocab, topics, qrels, ids, cutoff=5,
                               config=config)
    norms = np.linalg.norm(params.W_e, axis=1, keepdims=True)
    unit = np.divide(params.W_e, norms, out=np.zeros_like(params.W_e),
                     where=norms > 0)
    eligible = 0
    for index, (tid, row) in enumerate(zip(sorted(topics), rows)):
        assert row["topic_id"] == tid
        if row["status"] != "ok":
            assert row["ndcg_ideal"] is None and row["ndcg_query"] is None
            continue
        eligible += 1
        labels = [1 if eid in qrels.relevant(tid) else 0 for eid in ids]
        topic_seed = int(np.random.SeedSequence(
            entropy=config.seed, spawn_key=(11, index)).generate_state(1)[0])
        w = oracle_train_ranksvm(unit, labels, RankerConfig(
            c=config.c, pair_samples=config.pair_samples, seed=topic_seed))
        query = project(params, vocab.encode(tokenize(topics[tid])))
        assert row["ndcg_ideal"] == ndcg(rank_by_vector(params.W_e, w, ids, tid, 5),
                                         qrels, 5)
        assert row["ndcg_query"] == ndcg(rank_by_vector(params.W_e, query, ids, tid, 5),
                                         qrels, 5)
    assert eligible >= 3


@pytest.mark.filterwarnings("error")
def test_standardize_fit_scales_a_column_whose_statistics_overflow():
    # prices 1e300 and 2 square past the float range in a plain std
    matrix = np.array([[1e300, 3.0], [2.0, 5.0]])
    mean, std = _standardize_fit(matrix)
    np.testing.assert_allclose((matrix - mean) / std, [[1.0, -1.0], [-1.0, 1.0]])
    assert (mean[1], std[1]) == (matrix[:, 1].mean(), matrix[:, 1].std())
