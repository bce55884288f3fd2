"""Metrics, ground truth containers, and the statistics helpers."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lse.errors import DataError, DegenerateStatisticError
from lse.evaluation import (Qrels, TopicSet, compare_runs, evaluate_run, ndcg,
                            paired_t_test, precision_at_k,
                            regularized_incomplete_beta, significance_marker,
                            student_t_two_sided_p)
from lse.retrieval import RankedList


def ranked(topic, ids):
    return RankedList(topic, [(e, float(-i)) for i, e in enumerate(ids)])


def test_topic_set_round_trip(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text("topic_id\tdev\nt1\tcamera lens\nt2\tguitar\n")
    loaded = TopicSet.load(path)
    assert loaded.topics == {"t1": "camera lens", "t2": "guitar"}


def test_topic_set_rejects_missing_header_and_duplicates(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text("t1\tcamera\n")
    with pytest.raises(DataError, match="header"):
        TopicSet.load(path)
    path.write_text("topic_id\ttest\nt1\tcamera\nt1\tlens\n")
    with pytest.raises(DataError, match=":3: duplicate topic id 't1', first on line 2"):
        TopicSet.load(path)


def test_topic_set_header_is_the_first_non_blank_line(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text("\n  \ntopic_id\tdev\n\nt1\tcamera\n")
    loaded = TopicSet.load(path)
    assert loaded.topics == {"t1": "camera"}


def test_qrels_round_trip_and_accessors(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("t1 0 e1 1\nt1 0 e2 0\nt2 0 e1 1\n")
    loaded = Qrels.load(path)
    assert loaded.grades == {("t1", "e1"): 1, ("t1", "e2"): 0, ("t2", "e1"): 1}
    assert loaded.relevant("t1") == frozenset({"e1"})
    assert loaded.relevant("t9") == frozenset()
    assert ("t1", "e9") not in loaded.grades
    assert loaded.topics() == ["t1", "t2"]


def test_qrels_load_rejects_a_repeated_topic_entity_pair(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text("t1 0 cam 1\nt2 0 cam 1\n\nt1 0 cam 0\n")
    with pytest.raises(DataError, match=":4: duplicate entity 'cam' for topic 't1', "
                                        "first on line 1"):
        Qrels.load(path)


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
    # its ideal DCG is 0; evaluate_run excludes such topics before ndcg
    qrels = Qrels({("t", "e1"): 0})
    with pytest.raises(ZeroDivisionError):
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
    assert report.missing == []
    empty = evaluate_run({}, qrels, ks=())
    assert (empty.means, empty.excluded) == ({"ndcg@100": None}, [])
    # t2 has no relevant entity, so leaving it out is not a miss
    assert empty.missing == ["t1"]


def test_evaluate_run_reports_all_metrics():
    qrels = Qrels({("t1", "e1"): 1})
    report = evaluate_run({"t1": ranked("t1", ["e1", "e2"])}, qrels,
                          cutoff=10, ks=(1, 2))
    assert set(report.per_topic["t1"]) == {"ndcg@10", "p@1", "p@2"}
    assert report.means["p@1"] == 1.0
    assert report.means["p@2"] == 0.5
    assert report.excluded == []


@pytest.mark.parametrize("cutoff", [0, -2])
def test_cutoff_below_one_still_raises(cutoff):
    """The commands reject such a cutoff by its option type; a library call
    with one meets an ideal DCG of 0."""
    qrels = Qrels({("t1", "e1"): 1})
    with pytest.raises(ZeroDivisionError):
        ndcg(ranked("t1", ["e1"]), qrels, cutoff)
    with pytest.raises(ZeroDivisionError):
        evaluate_run({"t1": ranked("t1", ["e1"])}, qrels, cutoff=cutoff)


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


def two_half_step_betacf(a, b, x):
    """The continued fraction with the Lentz update written out for the even
    and then the odd coefficient of each iteration: the bit-for-bit
    reference for lse.evaluation._betacf."""
    max_iter = 500
    eps = 1e-15
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise DegenerateStatisticError("incomplete beta continued fraction did not converge")


def with_reference_betacf(fn, *args):
    """fn(*args) with the reference continued fraction in place of lse's."""
    with mock.patch("lse.evaluation._betacf", two_half_step_betacf):
        return fn(*args)


@settings(max_examples=1000, deadline=None)
@given(a=st.floats(0.01, 200.0) | st.integers(1, 400).map(lambda k: k / 2.0),
       b=st.just(0.5) | st.floats(0.01, 200.0),
       u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       below=st.booleans())
def test_incomplete_beta_equals_the_two_half_step_reference(a, b, u, below):
    # x on either side of the switch to the symmetric fraction I_{1-x}(b, a)
    switch = (a + 1.0) / (a + b + 2.0)
    x = u * switch if below else switch + u * (1.0 - switch)
    assume(0.0 < x < 1.0)
    want = with_reference_betacf(regularized_incomplete_beta, a, b, x)
    assert repr(regularized_incomplete_beta(a, b, x)) == repr(want)


def test_student_t_p_equals_the_two_half_step_reference():
    for df in range(1, 401):
        for t in (0.0, 1e-9, 0.5, 2.0, 30.0, 1e8, math.inf):
            want = with_reference_betacf(student_t_two_sided_p, t, df)
            assert repr(student_t_two_sided_p(t, df)) == repr(want), (t, df)


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
