"""Smoothed profile language models and the interpolation-weight sweep."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, profile_counts, scalar_qlm_score
from lse.errors import DataError
from lse.evaluation import Qrels
from lse.qlm import SWEEP_GRID, estimate, rank, score, sweep_lambda
from lse.text import build_vocabulary, encode_corpus, encode_topics

A, B = 0, 1


def two_entity_corpus():
    """Profiles [a,a,b] and [b]; corpus counts {a:2, b:2}."""
    return make_corpus([("e1", [A, A, B]), ("e2", [B])])


def test_estimate_aggregates_counts():
    model = estimate(two_entity_corpus())
    assert model.term_ptr.tolist() == [0, 1, 3]
    assert model.term_entities.tolist() == [0, 0, 1]
    assert model.term_counts.tolist() == [2, 1, 1]
    assert model.entity_totals.tolist() == [3, 1]
    assert model.corpus_counts.tolist() == [2, 2]


def test_score_interpolation_fixture():
    model = estimate(two_entity_corpus(), 0.5)
    assert score(model, 0, [A]) == pytest.approx(math.log(7.0 / 12.0), abs=1e-12)


def test_score_empty_profile_uses_corpus_model_only():
    corpus = make_corpus([("e1", [A]), ("e2", [])])
    model = estimate(corpus, 0.5)
    assert score(model, 1, [A]) == pytest.approx(math.log(0.5 * 1.0), abs=1e-12)


def test_score_unsmoothed_unseen_term_is_minus_infinity():
    model = estimate(two_entity_corpus(), 0.0)
    assert score(model, 1, [A]) == float("-inf")
    assert score(model, 1, [A, B]) == float("-inf")


def test_score_drops_terms_unseen_in_corpus():
    model = estimate(two_entity_corpus(), 0.5)
    ghost = 7
    assert score(model, 0, [A, ghost]) == score(model, 0, [A])
    assert score(model, 0, [ghost]) == 0.0


def test_score_log_domain_matches_direct_product():
    rng = np.random.default_rng(0)
    corpus = make_corpus([(f"e{i}", rng.integers(0, 12, size=30)) for i in range(4)])
    entity_counts, corpus_counts = profile_counts(corpus)
    corpus_total = sum(corpus_counts.values())
    present = sorted(corpus_counts)
    for lam in (0.1, 0.5, 0.9):
        model = estimate(corpus, lam)
        for _ in range(20):
            query = rng.choice(present, size=5).tolist()
            for e in range(4):
                direct = 1.0
                for t in query:
                    p_x = entity_counts[e][t] / sum(entity_counts[e].values())
                    p_c = corpus_counts[t] / corpus_total
                    direct *= (1 - lam) * p_x + lam * p_c
                assert score(model, e, query) == pytest.approx(
                    math.log(direct), abs=1e-12)


def test_lambda_one_is_query_independent_of_entity():
    model = estimate(two_entity_corpus(), 1.0)
    assert score(model, 0, [A, B]) == pytest.approx(score(model, 1, [A, B]),
                                                    abs=1e-12)


def test_lambda_validation():
    with pytest.raises(DataError):
        dataclasses.replace(estimate(two_entity_corpus()), lambda_jm=1.5)
    with pytest.raises(DataError):
        estimate(two_entity_corpus(), -0.1)


def test_with_lambda_shares_counts():
    model = estimate(two_entity_corpus(), 0.5)
    other = dataclasses.replace(model, lambda_jm=0.25)
    assert other.term_entities is model.term_entities
    assert other.term_counts is model.term_counts
    assert other.lambda_jm == 0.25


def test_rank_orders_by_score_with_id_tie_break():
    model = estimate(two_entity_corpus(), 0.5)
    ranked = rank(model, ["e1", "e2"], [A], "t1")
    assert [e for e, _ in ranked.entries] == ["e1", "e2"]
    tied = rank(model, ["e1", "e2"], [], "t2")
    assert [e for e, _ in tied.entries] == ["e1", "e2"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rank_scores_equal_the_scalar_oracle(data):
    n = data.draw(st.integers(1, 5), label="entities")
    vocab_size = data.draw(st.integers(1, 6), label="vocab")
    # An entity may have an empty profile; term ids past the corpus and ones
    # no profile uses have zero corpus frequency.
    profiles = data.draw(st.lists(st.lists(st.integers(0, vocab_size - 1), max_size=8),
                                  min_size=n, max_size=n), label="profiles")
    corpus = make_corpus([(f"e{i}", p) for i, p in enumerate(profiles)])
    query = data.draw(st.lists(st.integers(0, vocab_size + 1), max_size=6),
                      label="query")
    query = query + query[:data.draw(st.integers(0, len(query)), label="repeats")]
    lam = data.draw(st.sampled_from([0.0, 1.0])
                    | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    label="lambda")
    model = estimate(corpus, lam)
    # Same arithmetic in the same order, so equal, not merely within 1e-12.
    oracle = [scalar_qlm_score(model, i, query) for i in range(n)]
    assert score(model, slice(None), query).tolist() == oracle
    index = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n), label="index")
    assert score(model, np.array(index, dtype=np.intp), query).tolist() == [
        oracle[i] for i in index]
    i = data.draw(st.integers(0, n - 1), label="one")
    assert score(model, i, query) == oracle[i]
    assert dict(rank(model, corpus.entities, query).entries) == dict(
        zip(corpus.entities, oracle))


def test_rank_keeps_the_top_k_of_the_full_ranking():
    model = estimate(two_entity_corpus(), 0.5)
    full = rank(model, ["e1", "e2"], [B], "t1").entries
    assert rank(model, ["e1", "e2"], [B], "t1", k=1).entries == full[:1]
    assert [e for e, _ in full] == ["e2", "e1"]


def test_sweep_grid_shape():
    assert len(SWEEP_GRID) == 21
    assert SWEEP_GRID[0] == 0.0
    assert SWEEP_GRID[-1] == 1.0
    assert SWEEP_GRID[1] == pytest.approx(0.05, abs=1e-15)


def sweep_setup():
    raw = [("d1", "cam", "camera camera lens photo"),
           ("d2", "cam", "camera zoom lens"),
           ("d3", "gui", "guitar strings guitar"),
           ("d4", "gui", "guitar amp strings")]
    vocab = build_vocabulary(raw)
    corpus = encode_corpus(raw, vocab)
    queries = encode_topics({"t1": "camera lens", "t2": "guitar strings"}, vocab)
    qrels = Qrels({"t1": {"cam"}, "t2": {"gui"}})
    return corpus, queries, qrels


def test_sweep_emits_full_grid_and_best():
    corpus, queries, qrels = sweep_setup()
    best, grid = sweep_lambda(corpus, queries, qrels)
    assert len(grid) == 21
    assert [lam for lam, _ in grid] == list(SWEEP_GRID)
    assert all(0.0 <= v <= 1.0 for _, v in grid)
    assert best in SWEEP_GRID
    best_value = max(v for _, v in grid)
    assert dict(grid)[best] == best_value


def test_sweep_ties_prefer_smaller_lambda():
    corpus = make_corpus([("only", [A, B])])
    best, grid = sweep_lambda(corpus, {"t1": [A]}, Qrels({"t1": {"only"}}))
    assert all(v == 1.0 for _, v in grid)
    assert best == 0.0


def test_sweep_rejects_unusable_topics():
    corpus, _, qrels = sweep_setup()
    with pytest.raises(DataError, match="^topics: no validation topics"):
        sweep_lambda(corpus, {}, qrels)
    with pytest.raises(DataError, match="^dev.tsv: all sweep topics have empty encoded"):
        sweep_lambda(corpus, {"t1": []}, qrels, topics_source="dev.tsv")
    with pytest.raises(DataError, match="^judged.txt: no sweep topic has a relevant"):
        sweep_lambda(corpus, {"t9": [A]}, qrels, source="judged.txt")
