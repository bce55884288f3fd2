"""Cosine ranking and the run file format."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lse.errors import DataError, LSEError
from lse.model import ModelParams, project
from lse.retrieval import (RankedList, cosine_scores, rank_by_vector,
                           rank_entities, ranked_from_scores, read_run, write_run)


def cosine(a, b):
    """Reference cosine of two vectors: a.b / (|a||b|); 0.0 when either norm
    is zero. Each vector is first divided by its largest magnitude, which
    leaves the cosine unchanged and keeps tiny components' squares normal."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("vector length mismatch")
    a, b = (v / np.abs(v).max() if v.any() else v for v in (a, b))
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def full_sort(entity_ids, scores):
    """Reference ranking: every (entity, score) pair by descending score,
    ascending id."""
    order = sorted(range(len(entity_ids)), key=lambda i: (-scores[i], entity_ids[i]))
    return [(entity_ids[i], float(scores[i])) for i in order]


def test_cosine_fixture():
    expected = 32.0 / (math.sqrt(14.0) * math.sqrt(77.0))
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(expected, abs=1e-12)
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.9746318, abs=1e-7)


def test_cosine_zero_vector_scores_zero():
    assert cosine([0, 0], [1, 2]) == 0.0
    assert cosine([0, 0], [0, 0]) == 0.0


def test_cosine_rejects_length_mismatch():
    with pytest.raises(DataError):
        cosine([1, 2], [1, 2, 3])


# Two vectors of one length: st.shared draws the length once per example.
same_length_vectors = st.shared(st.integers(1, 8), key="length").flatmap(
    lambda n: st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))


@settings(max_examples=60)
@given(same_length_vectors, same_length_vectors)
@example([1.0], [1.5943051819508874e-158])
def test_cosine_bounded_and_symmetric(a, b):
    c = cosine(a, b)
    assert abs(c) <= 1.0 + 1e-12
    assert c == cosine(b, a)


def test_cosine_scale_invariant():
    a, b = [1.0, -2.0, 0.5], [0.3, 0.9, -1.0]
    assert cosine(a, b) == pytest.approx(cosine([3 * x for x in a], b), abs=1e-12)


def test_ranked_from_scores_orders_and_breaks_ties_by_id():
    ranked = ranked_from_scores("t", ["b", "a", "c"], [1.0, 2.0, 1.0])
    assert ranked.entries == [("a", 2.0), ("b", 1.0), ("c", 1.0)]
    cut = ranked_from_scores("t", ["d", "c", "b", "a"], [1.0, 1.0, 1.0, 1.0], k=2)
    assert cut.entries == [("a", 1.0), ("b", 1.0)]


SCORE_POOL = (float("-inf"), -1.5, 0.0, 0.25, 3.0)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ranked_from_scores_top_k_is_prefix_of_full_sort(data):
    n = data.draw(st.integers(1, 12), label="n")
    # Mostly a few shared values, so ties (also at the cut) and -inf are common.
    scores = data.draw(st.lists(st.sampled_from(SCORE_POOL) | st.floats(-4.0, 4.0),
                                min_size=n, max_size=n), label="scores")
    ids = data.draw(st.permutations([f"x{i}" for i in range(n)]), label="ids")
    k = data.draw(st.sampled_from([1, n - 1, n, n + 3, None])
                  | st.integers(1, n), label="k")
    if k == 0:
        k = None
    want = full_sort(ids, scores)
    got = ranked_from_scores("t", ids, np.asarray(scores), k).entries
    assert got == want[:k]
    assert ranked_from_scores("t", ids, scores, k).entries == got


def test_ranked_from_scores_rejects_depth_below_one():
    for k in (0, -1):
        with pytest.raises(ValueError):
            ranked_from_scores("t", ["a", "b"], [1.0, 2.0], k=k)


def test_cosine_scores_matches_per_row_cosine():
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(6, 4))
    matrix[2] = 0.0
    vec = rng.normal(size=4)
    scores = cosine_scores(matrix, vec)
    for i in range(6):
        assert scores[i] == pytest.approx(cosine(matrix[i], vec), abs=1e-12)
    assert scores[2] == 0.0


def test_precomputed_norms_give_identical_scores_and_rankings():
    rng = np.random.default_rng(3)
    params = ModelParams(rng.normal(size=(5, 3)), rng.normal(size=(4, 3)),
                         rng.normal(size=4), rng.normal(size=(9, 4)))
    params.W_e[5] = 0.0
    norms = np.linalg.norm(params.W_e, axis=1)
    ids = [f"e{i}" for i in range(9)]
    for query in ([0], [1, 4], [2, 2, 3]):
        f = project(params, query)
        assert (cosine_scores(params.W_e, f, norms).tobytes()
                == cosine_scores(params.W_e, f).tobytes())
        assert (rank_entities(params, query, ids, "t", 4, norms)
                == rank_entities(params, query, ids, "t", 4))


# zero, or a magnitude whose square stays normal
ENTRY = st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stacked_vectors_score_as_each_vector_alone(data):
    """Each row of a stack's scores lies within 1e-12 of scoring its vector
    alone, relative to the cosine scale 1; zero-norm rows and zero vectors
    score exactly 0, with and without precomputed norms."""
    n, d, q = (data.draw(st.integers(1, hi), label=label)
               for hi, label in ((12, "n"), (6, "d"), (5, "q")))
    matrix = np.array(data.draw(st.lists(st.lists(ENTRY, min_size=d, max_size=d),
                                         min_size=n, max_size=n), label="matrix"))
    stack = np.array(data.draw(st.lists(st.lists(ENTRY, min_size=d, max_size=d),
                                        min_size=q, max_size=q), label="stack"))
    norms = np.linalg.norm(matrix, axis=1)
    for given_norms in (None, norms):
        scores = cosine_scores(matrix, stack, given_norms)
        assert scores.shape == (q, n)
        for j in range(q):
            alone = cosine_scores(matrix, stack[j], given_norms)
            np.testing.assert_allclose(scores[j], alone, rtol=1e-12, atol=1e-12)
            zero = (norms == 0) | (not stack[j].any())
            assert (scores[j][zero] == 0).all() and (alone[zero] == 0).all()


def test_rank_by_vector_ranks_best_alignment_first():
    matrix = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
    ranked = rank_by_vector(matrix, np.array([1.0, 0.05]), ["x", "y", "z"], "t")
    assert [e for e, _ in ranked.entries] == ["x", "z", "y"]


def test_rank_entities_projects_and_ranks():
    word_rows = np.array([[2.0, 0.0], [0.0, 2.0]])
    W = np.eye(2)
    W_e = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    params = ModelParams(word_rows, W, np.zeros(2), W_e)
    ranked = rank_entities(params, [0], ["e0", "e1", "e2"], "t1")
    assert ranked.topic_id == "t1"
    assert [e for e, _ in ranked.entries] == ["e0", "e1", "e2"]
    f = project(params, [0])
    assert ranked.entries[0][1] == pytest.approx(cosine(W_e[0], f), abs=1e-12)


def test_rank_entities_rejects_empty_query():
    params = ModelParams(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1),
                         np.zeros((1, 1)))
    with pytest.raises(LSEError, match="empty"):
        rank_entities(params, [], ["e0"], "t9")


def test_write_run_format_and_truncation(tmp_path):
    path = tmp_path / "run.trec"
    lists = [RankedList("t1", [("e1", 0.5), ("e2", 0.25), ("e3", 0.125)])]
    write_run(path, lists, tag="sys", top_k=2)
    assert path.read_text() == "t1 Q0 e1 1 0.5 sys\nt1 Q0 e2 2 0.25 sys\n"


def test_write_run_scores_survive_round_trip_exactly(tmp_path):
    path = tmp_path / "run.trec"
    score = 1.0 / 3.0
    write_run(path, [RankedList("t1", [("e1", score)])])
    back = read_run(path)
    assert back["t1"].entries == [("e1", score)]


def test_read_run_groups_topics_in_order(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("t1 Q0 e1 1 2.0 x\nt2 Q0 e9 1 1.0 x\nt1 Q0 e2 2 1.5 x\n")
    runs = read_run(path)
    assert [e for e, _ in runs["t1"].entries] == ["e1", "e2"]
    assert list(runs) == ["t1", "t2"]
    assert all(ranked.topic_id == tid for tid, ranked in runs.items())


def test_read_run_of_blank_lines_only_is_empty(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("\n  \n\t\n")
    assert read_run(path) == {}


def test_read_run_orders_entries_by_score_then_entity_id(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("t1 Q0 gui 1 0.1 x\nt1 Q0 cam 2 0.9 x\n"
                    "t1 Q0 vio 3 0.5 x\nt1 Q0 pia 4 0.5 x\n")
    assert read_run(path)["t1"].entries == [("cam", 0.9), ("pia", 0.5), ("vio", 0.5),
                                            ("gui", 0.1)]


def test_read_run_rejects_an_entity_listed_twice_for_a_topic(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("t1 Q0 cam 1 0.9 x\nt2 Q0 cam 1 0.7 x\nt1 Q0 cam 2 0.8 x\n")
    with pytest.raises(DataError, match=":3: duplicate entity 'cam' for topic 't1', "
                                        "first on line 1"):
        read_run(path)


@pytest.mark.parametrize("line", [
    "t1 Q0 e1 1 2.0",
    "t1 QX e1 1 2.0 tag",
    "t1 Q0 e1 one 2.0 tag",
    "t1 Q0 e1 1 high tag",
])
def test_read_run_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "run.trec"
    path.write_text(line + "\n")
    with pytest.raises(DataError, match=":1"):
        read_run(path)
