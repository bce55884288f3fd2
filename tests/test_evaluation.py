"""Metrics, ground truth containers, and the statistics helpers."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from lse.errors import DataError, DegenerateStatisticError
from lse.evaluation import (Qrels, TopicSet, average_ranks, compare_runs,
                            correlations, evaluate_run, idf_match_analysis, ndcg,
                            paired_t_test, permutation_test_correlation,
                            precision_at_k, regularized_incomplete_beta,
                            significance_marker, student_t_two_sided_p)
from lse.retrieval import RankedList
from lse.text import Corpus, Document, Vocabulary


def ranked(topic, ids):
    return RankedList(topic, [(e, float(-i)) for i, e in enumerate(ids)])


def test_topic_set_round_trip(tmp_path):
    topics = TopicSet({"t1": "camera lens", "t2": "guitar"}, split="dev")
    path = tmp_path / "topics.tsv"
    topics.save(path)
    loaded = TopicSet.load(path)
    assert loaded.topics == topics.topics
    assert loaded.split == "dev"


def test_topic_set_rejects_missing_header_and_duplicates(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text("t1\tcamera\n")
    with pytest.raises(DataError, match="header"):
        TopicSet.load(path)
    path.write_text("topic_id\ttest\nt1\tcamera\nt1\tlens\n")
    with pytest.raises(DataError, match="duplicate"):
        TopicSet.load(path)


def test_topic_set_header_is_the_first_non_blank_line(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text("\n  \ntopic_id\tdev\n\nt1\tcamera\n")
    loaded = TopicSet.load(path)
    assert loaded.topics == {"t1": "camera"}
    assert loaded.split == "dev"


def test_qrels_round_trip_and_accessors(tmp_path):
    qrels = Qrels({("t1", "e1"): 1, ("t1", "e2"): 0, ("t2", "e1"): 1})
    path = tmp_path / "qrels.txt"
    qrels.save(path)
    loaded = Qrels.load(path)
    assert loaded.grades == qrels.grades
    assert loaded.relevant("t1") == frozenset({"e1"})
    assert loaded.grade("t1", "e9") == 0
    assert loaded.topics() == ["t1", "t2"]


def test_qrels_rejects_graded_relevance():
    with pytest.raises(DataError):
        Qrels({("t1", "e1"): 2})


def test_ndcg_partial_fixture():
    qrels = Qrels({("t", "e1"): 1, ("t", "e2"): 0, ("t", "e3"): 1})
    value = ndcg(ranked("t", ["e1", "e2", "e3"]), qrels, cutoff=10)
    expected = (1.0 + 1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(0.9197, abs=1e-4)


def test_ndcg_perfect_ranking_is_one():
    qrels = Qrels({("t", "e1"): 1, ("t", "e2"): 1})
    assert ndcg(ranked("t", ["e1", "e2", "e3"]), qrels) == pytest.approx(1.0,
                                                                        abs=1e-12)


def test_ndcg_ideal_counts_unretrieved_relevants():
    qrels = Qrels({("t", "e1"): 1, ("t", "e2"): 1})
    value = ndcg(ranked("t", ["e1", "e9"]), qrels, cutoff=10)
    assert value == pytest.approx(1.0 / (1.0 + 1.0 / math.log2(3)), abs=1e-12)


def test_ndcg_cutoff_truncates_both_sides():
    qrels = Qrels({("t", f"e{i}"): 1 for i in range(5)})
    value = ndcg(ranked("t", ["x", "e0", "e1"]), qrels, cutoff=2)
    # gains at rank 2 only; ideal has 2 slots even though 5 are relevant
    assert value == pytest.approx((1.0 / math.log2(3))
                                  / (1.0 + 1.0 / math.log2(3)), abs=1e-12)


def test_ndcg_rejects_topic_without_relevants():
    qrels = Qrels({("t", "e1"): 0})
    with pytest.raises(DataError):
        ndcg(ranked("t", ["e1"]), qrels)


def test_precision_at_k_uses_k_denominator():
    qrels = Qrels({("t", "e1"): 1, ("t", "e2"): 1})
    assert precision_at_k(ranked("t", ["e1", "e3", "e2"]), qrels, 5) == 0.4
    assert precision_at_k(ranked("t", ["e1"]), qrels, 5) == 0.2
    assert precision_at_k(ranked("t", ["e3", "e1"]), qrels, 1) == 0.0
    with pytest.raises(DataError):
        precision_at_k(ranked("t", ["e1"]), qrels, 0)


def test_mean_ndcg_excludes_and_reports_topics_without_relevants():
    qrels = Qrels({("t1", "e1"): 1, ("t2", "e9"): 0})
    runs = {"t1": ranked("t1", ["e1", "e2"]), "t2": ranked("t2", ["e1", "e2"])}
    report = evaluate_run(runs, qrels, ks=())
    assert report.means == {"ndcg@100": pytest.approx(1.0, abs=1e-12)}
    assert report.excluded == ["t2"]
    empty = evaluate_run({}, qrels, ks=())
    assert (empty.means, empty.excluded) == ({"ndcg@100": None}, [])


def test_evaluate_run_reports_all_metrics():
    qrels = Qrels({("t1", "e1"): 1})
    report = evaluate_run({"t1": ranked("t1", ["e1", "e2"])}, qrels,
                          cutoff=10, ks=(1, 2))
    assert set(report.per_topic["t1"]) == {"ndcg@10", "p@1", "p@2"}
    assert report.means["p@1"] == 1.0
    assert report.means["p@2"] == 0.5
    assert report.excluded == []


def test_incomplete_beta_matches_scipy_oracle():
    for a in (0.5, 1.0, 2.5, 7.0):
        for b in (0.5, 1.5, 4.0):
            for x in (0.001, 0.2, 0.5, 0.8, 0.999):
                mine = regularized_incomplete_beta(a, b, x)
                oracle = scipy.special.betainc(a, b, x)
                assert mine == pytest.approx(oracle, abs=1e-10)


def test_student_t_p_matches_scipy_oracle():
    for t in (0.0, 0.5, 1.0, 2.3, -3.7, 10.0):
        for df in (1, 2, 5, 30, 200):
            mine = student_t_two_sided_p(t, df)
            oracle = 2.0 * scipy.stats.t.sf(abs(t), df)
            assert mine == pytest.approx(oracle, abs=1e-10)


def test_paired_t_test_fixture():
    t, p = paired_t_test([1, 1, 1, -1], [0, 0, 0, 0])
    assert t == pytest.approx(1.0, abs=1e-8)
    assert p == pytest.approx(0.391, abs=1e-3)
    oracle = scipy.stats.ttest_rel([1, 1, 1, -1], [0, 0, 0, 0])
    assert t == pytest.approx(oracle.statistic, abs=1e-8)
    assert p == pytest.approx(oracle.pvalue, abs=1e-4)


def test_paired_t_test_matches_scipy_on_random_data():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        t, p = paired_t_test(a, b)
        oracle = scipy.stats.ttest_rel(a, b)
        assert t == pytest.approx(oracle.statistic, abs=1e-8)
        assert p == pytest.approx(oracle.pvalue, abs=1e-4)


def test_paired_t_test_degenerate_and_size_errors():
    with pytest.raises(DegenerateStatisticError, match="zero variance"):
        paired_t_test([1, 1, 1], [0, 0, 0])
    with pytest.raises(DataError):
        paired_t_test([1], [0])
    with pytest.raises(DataError):
        paired_t_test([1, 2], [0])


def test_compare_runs_tests_shared_topics_and_gives_degenerate_reasons():
    qrels = Qrels({("t1", "e1"): 1, ("t2", "e2"): 1, ("t3", "e1"): 1, ("t4", "e1"): 1})
    better = {"t1": ranked("t1", ["e1", "e2"]), "t2": ranked("t2", ["e2", "e1"]),
              "t3": ranked("t3", ["e1", "e2"]), "t4": ranked("t4", ["e1"])}
    worse = {"t1": ranked("t1", ["e2", "e1"]), "t2": ranked("t2", ["e2", "e1"]),
             "t3": ranked("t3", ["e2", "e1"])}
    report = evaluate_run(better, qrels, cutoff=10, ks=(1,))
    baseline = evaluate_run(worse, qrels, cutoff=10, ks=(1,))
    result = compare_runs(report, baseline)
    assert list(result) == ["ndcg@10", "p@1"]
    t, p = paired_t_test([1.0, 1.0, 1.0], [1 / math.log2(3), 1.0, 1 / math.log2(3)])
    assert result["ndcg@10"] == {"t": t, "p": p, "marker": significance_marker(p)}
    assert compare_runs(report, report) == {
        "ndcg@10": {"degenerate": "differences have zero variance"},
        "p@1": {"degenerate": "differences have zero variance"}}
    assert compare_runs(report, evaluate_run({}, qrels, cutoff=10, ks=(1,)))[
        "p@1"] == {"degenerate": "paired t-test needs at least 2 pairs"}


def test_significance_marker_thresholds():
    assert significance_marker(0.009) == "***"
    assert significance_marker(0.01) == "**"
    assert significance_marker(0.049) == "**"
    assert significance_marker(0.05) == "*"
    assert significance_marker(0.099) == "*"
    assert significance_marker(0.1) == ""


def test_average_ranks_matches_scipy():
    for values in ([3, 1, 4, 1, 5], [2.5, 2.5, 2.5], [1, 2, 3, 4]):
        assert np.allclose(average_ranks(values),
                           scipy.stats.rankdata(values), atol=1e-12)


def test_correlations_return_order_and_values():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [math.exp(v) for v in x]  # monotone but curved
    spearman, pearson = correlations(x, y)
    assert spearman == pytest.approx(1.0, abs=1e-12)
    assert pearson == pytest.approx(scipy.stats.pearsonr(x, y).statistic,
                                    abs=1e-12)
    assert pearson < 0.95


def test_correlations_match_scipy_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.integers(0, 5, size=15).astype(float)
        y = rng.integers(0, 5, size=15).astype(float)
        if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
            continue
        spearman, pearson = correlations(x, y)
        assert spearman == pytest.approx(
            scipy.stats.spearmanr(x, y).statistic, abs=1e-12)
        assert pearson == pytest.approx(
            scipy.stats.pearsonr(x, y).statistic, abs=1e-12)


def test_correlations_input_validation():
    with pytest.raises(DataError):
        correlations([1, 2], [1, 2])
    with pytest.raises(DegenerateStatisticError):
        correlations([1, 1, 1], [1, 2, 3])


def test_permutation_test_is_seed_deterministic():
    rng = np.random.default_rng(0)
    x = rng.normal(size=12)
    y = rng.normal(size=12)
    p1 = permutation_test_correlation(x, y, iterations=2000, seed=5)
    p2 = permutation_test_correlation(x, y, iterations=2000, seed=5)
    assert p1 == p2
    assert 0.0 < p1 <= 1.0


def test_permutation_test_small_case_matches_enumeration():
    # n=3: two of the six orderings give |r| = 1, so p ≈ 1/3
    p = permutation_test_correlation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                                     iterations=3000, seed=0)
    assert 0.25 < p < 0.42


def test_permutation_test_detects_strong_correlation():
    rng = np.random.default_rng(2)
    x = np.arange(24, dtype=float)
    y = x + rng.normal(scale=0.3, size=24)
    p = permutation_test_correlation(x, y, iterations=1000, seed=1)
    assert p < 0.01
    p_s = permutation_test_correlation(x, y, iterations=1000, seed=1,
                                       method="spearman")
    assert p_s < 0.01


def test_permutation_test_spearman_invariant_to_monotone_transform():
    rng = np.random.default_rng(4)
    x = rng.normal(size=15)
    y = rng.normal(size=15)
    p1 = permutation_test_correlation(x, y, iterations=1000, seed=3,
                                      method="spearman")
    p2 = permutation_test_correlation(np.exp(x), y, iterations=1000, seed=3,
                                      method="spearman")
    assert p1 == p2


def test_permutation_test_validation():
    x = [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(DataError):
        permutation_test_correlation(x, x, iterations=999)
    with pytest.raises(DataError):
        permutation_test_correlation(x, x, method="kendall")


def idf_fixture():
    # profiles: e0 {0, 1}, e1 {0}, e2 {2}
    docs = [Document("d0", "e0", np.asarray([0, 1, 1], dtype=np.int32)),
            Document("d1", "e1", np.asarray([0], dtype=np.int32)),
            Document("d2", "e2", np.asarray([2], dtype=np.int32))]
    corpus = Corpus(["e0", "e1", "e2"], docs, {0: [0], 1: [1], 2: [2]}, 5)
    vocab = Vocabulary(["alpha", "beta", "gamma"], [3, 1, 1], [2, 1, 1])
    return corpus, vocab


def test_idf_match_analysis_means_matched_terms_only():
    corpus, vocab = idf_fixture()
    topics = {"t1": "alpha gamma", "t2": "gamma"}
    qrels = Qrels({("t1", "e0"): 1, ("t2", "e1"): 1})
    per_topic, unmatched = idf_match_analysis(corpus, vocab, topics, qrels)
    # t1: alpha matches e0 (idf ln(3/2)); gamma absent from e0's profile
    assert per_topic == {"t1": pytest.approx(math.log(3.0 / 2.0), abs=1e-12)}
    assert unmatched == ["t2"]


def test_idf_match_analysis_averages_distinct_terms():
    corpus, vocab = idf_fixture()
    topics = {"t1": "alpha beta alpha"}
    qrels = Qrels({("t1", "e0"): 1})
    per_topic, unmatched = idf_match_analysis(corpus, vocab, topics, qrels)
    expected = (math.log(3.0 / 2.0) + math.log(3.0)) / 2.0
    assert per_topic["t1"] == pytest.approx(expected, abs=1e-12)
    assert unmatched == []
