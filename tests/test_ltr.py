"""PageRank, RankSVM, feature assembly, fold fusion, and the ideal-vector
analysis."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, scalar_qlm_score
import lse.ltr
from lse.errors import DataError
from lse.ltr import (COMBOS, GRAPH_NAMES, QI_MASK_FEATURES,
                     QI_VALUE_FEATURES, _fold_partition,
                     _pair_rows, _pegasos, _standardize_fit, build_features,
                     cross_validated_fusion, ideal_vector_report, load_graph,
                     load_qi_attributes, pagerank, pegasos_batch,
                     qi_feature_matrix)
from lse.evaluation import Qrels, evaluate_run, ndcg
from lse.model import Dims, init_params, project
from lse.qlm import estimate
from lse.retrieval import rank_by_vector, ranked_from_scores
from lse.text import encode_topics


def small_corpus():
    return make_corpus([("e0", [0, 0, 1]), ("e1", [1, 2]), ("e2", [2])])


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

def oracle_train_ranksvm(rows, labels, pair_samples, seed, groups=None, batch=1):
    """The single-fit mini-batch Pegasos loop over batch pairs per step, one
    pair at a time: the reference the lockstep trainer must match bit for
    bit at batch 1. Returns the weights."""
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

    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(pos_pool), size=pair_samples)
    gcode = pos_group_code[pick]
    neg_local = np.floor(rng.random(pair_samples) * neg_counts[gcode]).astype(np.int64)
    neg_rows = neg_flat[neg_starts[gcode] + neg_local]
    diffs = rows[pos_pool[pick]] - rows[neg_rows]

    w = np.zeros(rows.shape[1])
    for t, lo in enumerate(range(0, pair_samples, batch), start=1):
        step = diffs[lo:lo + batch]
        active = [d for d in step if float(d @ w) < 1.0]
        w *= 1.0 - 1.0 / t
        if active:
            w += (1.0 / (t * len(step))) * sum(active[1:], active[0])
    return w


def hinge_objective(w, diffs):
    """The RankSVM objective (1/2)|w|^2 plus the mean hinge of the pair
    differences."""
    return float(w @ w) / 2.0 + float(np.maximum(0.0, 1.0 - diffs @ w).mean())


@st.composite
def lockstep_fits(draw):
    """K = 1-5 fits of one width (1-20 or 256), each with its own rows,
    labels holding both classes, groups and seed, the shared pair count, a
    chunk length in steps that does not divide it, and whether to z-score."""
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
        fits.append((rows, labels, groups, draw(st.integers(0, 2**32 - 1))))
    return fits, pair_samples, steps, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(lockstep_fits())
def test_lockstep_weights_equal_the_single_fit_oracle(drawn):
    fits, pair_samples, steps, standardize = drawn
    k = len(fits)
    width = fits[0][0].shape[1]
    offsets = np.cumsum([0] + [len(rows) for rows, _, _, _ in fits])
    pairs, means, stds, expected = [], [], [], []
    for (rows, labels, groups, seed), offset in zip(fits, offsets):
        mean, std = _standardize_fit(rows)
        p, q = _pair_rows(labels, groups, pair_samples, seed)
        pairs.append((p + offset, q + offset))
        means.append(mean)
        stds.append(std)
        expected.append(oracle_train_ranksvm((rows - mean) / std if standardize
                                             else rows, labels, pair_samples, seed,
                                             groups))
    stacked = np.concatenate([rows for rows, _, _, _ in fits])
    with mock.patch.object(lse.ltr, "_CHUNK_VALUES", steps * k * width):
        weights = _pegasos(stacked, *pair_columns(pairs),
                           *((np.array(means), np.array(stds)) if standardize else ()))
    assert weights.shape == (k, width)
    for w, w_expected in zip(weights, expected):
        assert w.tobytes() == w_expected.tobytes()


def pair_columns(pairs):
    """_pegasos' (steps, K) int32 pos and neg arrays of K (pos, neg) pairs."""
    return (np.stack(side, axis=1).astype(np.int32) for side in zip(*pairs))


@st.composite
def mixed_width_fits(draw):
    """K = 1-5 fits on column subsets of one matrix of width 3-12 (fuse's
    widths), each with its own rows, labels, groups and seed, every
    column non-zero, with the shared pair count, chunk length and z-scoring
    flag of lockstep_fits. Fit 0 leaves out one inner column, as qi+lse
    leaves out qlm; the others use any non-empty subset."""
    width = draw(st.integers(3, 12))
    steps = draw(st.integers(2, 40))
    pair_samples = steps * draw(st.integers(0, 4)) + draw(st.integers(1, steps - 1))
    gap = draw(st.integers(1, width - 2))
    fits = []
    for index in range(draw(st.integers(1, 5))):
        used = ([c != gap for c in range(width)] if index == 0 else
                draw(st.lists(st.booleans(), min_size=width, max_size=width)
                     .filter(any)))
        n = draw(st.integers(2, 30))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = (rng.normal(size=(n, width)) + 3.0) * draw(st.sampled_from([0.01, 1.0, 50.0]))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (1, 0)  # rows 0 and 1 share a group, so a pair exists
        groups = rng.integers(0, draw(st.integers(1, 3)), size=n)
        groups[1] = groups[0]
        fits.append((rows, np.flatnonzero(used), labels, groups,
                     draw(st.integers(0, 2**32 - 1))))
    return fits, pair_samples, steps, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(mixed_width_fits())
def test_masked_lockstep_weights_equal_the_oracle_on_each_fits_own_columns(drawn):
    """Fits that use different columns of one matrix, as fuse's combinations
    do, each get the oracle's weights on their own narrow rows, byte for
    byte, and 0 on the columns they leave out. A fit's z-scoring uses
    statistics of all its rows' columns, as fuse's do."""
    fits, pair_samples, steps, standardize = drawn
    k = len(fits)
    width = fits[0][0].shape[1]
    offsets = np.cumsum([0] + [len(rows) for rows, _, _, _, _ in fits])
    pairs, masks, means, stds, expected = [], [], [], [], []
    for (rows, cols, labels, groups, seed), offset in zip(fits, offsets):
        mean, std = _standardize_fit(rows)
        p, q = _pair_rows(labels, groups, pair_samples, seed)
        pairs.append((p + offset, q + offset))
        masks.append(np.isin(np.arange(width), cols))
        means.append(mean)
        stds.append(std)
        narrow = rows[:, cols]
        if standardize:
            narrow = (narrow - mean[cols]) / std[cols]
        expected.append(oracle_train_ranksvm(narrow, labels, pair_samples, seed,
                                             groups))
    stacked = np.concatenate([rows for rows, _, _, _, _ in fits])
    with mock.patch.object(lse.ltr, "_CHUNK_VALUES", steps * k * width):
        weights = _pegasos(stacked, *pair_columns(pairs),
                           *((np.array(means), np.array(stds)) if standardize
                             else (None, None)), np.array(masks))
    for w, mask, (_, cols, _, _, _), w_expected in zip(weights, masks, fits, expected):
        assert w[cols].tobytes() == w_expected.tobytes()
        assert not w[~mask].any()


@settings(max_examples=100, deadline=None)
@given(mixed_width_fits(), st.integers(2, 40), st.integers(1, 60))
def test_masked_lockstep_minibatch_weights_equal_each_fits_narrow_fit(drawn, batch,
                                                                       block):
    """At a batch b > 1 too, each fit of a masked lockstep call gets the
    weights of the same call on its own columns alone, byte for byte, and 0
    on the columns it leaves out. Both calls gather blocks of the same
    number of pairs, so that each step's sum adds the same parts; the rows
    are padded with unreferenced ones so that gathering costs less than
    scoring."""
    fits, pair_samples, _, standardize = drawn
    k = len(fits)
    width = fits[0][0].shape[1]
    offsets = np.cumsum([0] + [len(rows) for rows, _, _, _, _ in fits])
    pairs, masks, means, stds = [], [], [], []
    for (rows, cols, labels, groups, seed), offset in zip(fits, offsets):
        mean, std = _standardize_fit(rows)
        p, q = _pair_rows(labels, groups, pair_samples, seed)
        pairs.append((p + offset, q + offset))
        masks.append(np.isin(np.arange(width), cols))
        means.append(mean)
        stds.append(std)
    stacked = np.concatenate([rows for rows, _, _, _, _ in fits]
                             + [np.ones((2 * batch, width))])
    pos, neg = pair_columns(pairs)
    stats = (np.array(means), np.array(stds)) if standardize else (None, None)
    with mock.patch.object(lse.ltr, "_CHUNK_VALUES", block * k * width):
        weights = _pegasos(stacked, pos, neg, *stats, np.array(masks),
                           batch=batch)
    for index, (w, mask, (_, cols, _, _, _)) in enumerate(zip(weights, masks, fits)):
        narrow_stats = ((means[index][cols][None], stds[index][cols][None])
                        if standardize else (None, None))
        with mock.patch.object(lse.ltr, "_CHUNK_VALUES", block * len(cols)):
            narrow = _pegasos(np.ascontiguousarray(stacked[:, cols]),
                              pos[:, index:index + 1], neg[:, index:index + 1],
                              *narrow_stats, batch=batch)[0]
        assert w[cols].tobytes() == narrow.tobytes()
        assert not w[~mask].any()


def fit_ranksvm(rows, labels, pair_samples=lse.ltr.PAIR_SAMPLES, seed=0, batch=None):
    """One RankSVM fit, as fuse and ideal-vector train each of theirs unless
    batch is given."""
    pairs = _pair_rows(np.asarray(labels), None, pair_samples, seed)
    return _pegasos(np.asarray(rows, dtype=np.float64), *pair_columns([pairs]),
                    batch=batch or pegasos_batch(pair_samples))[0]


@pytest.mark.parametrize("pair_samples, batch", [(10, 4), (23, 5), (9, 7), (3, 8)])
def test_minibatch_steps_average_each_batch_including_a_partial_last_one(
        pair_samples, batch):
    """Step t averages the active pairs of pairs (t-1)b .. tb-1, the last
    step over the pair_samples mod b pairs left; gathered (R >= 2b) and
    scored (R < 2b) steps both match the mini-batch oracle."""
    rng = np.random.default_rng(pair_samples)
    rows = rng.normal(size=(12, 5))
    labels = np.tile([1, 0, 0], 4)
    expected = oracle_train_ranksvm(rows, labels, pair_samples, batch, batch=batch)
    np.testing.assert_allclose(fit_ranksvm(rows, labels, pair_samples, batch, batch=batch),
                               expected,
                               rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("standardize", [False, True])
def test_scored_and_gathered_step_sums_agree(standardize):
    """One problem trained through each step source: ideal-vector's plain
    rows, and fuse's z-scored, masked ones. Scoring every row and counting
    the active pairs gives the gathered sums' weights to rounding."""
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(60, 9)) * 4.0 + 2.0
    labels = rng.integers(0, 2, size=60)
    fits, batch = 4, 45  # 2b > R = 60: the cost rule scores
    pos, neg = pair_columns([_pair_rows(labels, None, 400, seed) for seed in range(fits)])
    extra = ()
    if standardize:
        mean, std = _standardize_fit(rows)
        masks = rng.random((fits, 9)) < 0.7
        masks[:, 0] = True
        extra = (np.tile(mean, (fits, 1)), np.tile(std, (fits, 1)), masks)

    def unreachable(*_args):
        raise AssertionError("the other step source was chosen")

    with mock.patch.object(lse.ltr, "_gathered_steps", unreachable):
        scored = _pegasos(rows, pos, neg, *extra, batch=batch)
    with mock.patch.object(lse.ltr, "_scored_steps", lse.ltr._gathered_steps):
        gathered = _pegasos(rows, pos, neg, *extra, batch=batch)
    np.testing.assert_allclose(scored, gathered, rtol=1e-12,
                               atol=1e-12 * np.abs(gathered).max())
    if standardize:
        assert not scored[~masks].any()


@st.composite
def objective_problems(draw):
    """One fit's rows (4-40 of width 1-20, any scale, z-scored), labels with
    both classes, 500-3000 pairs, a seed, and a batch of 2-50."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, width = draw(st.integers(4, 40)), draw(st.integers(1, 20))
    rows = rng.normal(size=(n, width)) * draw(st.sampled_from([0.01, 1.0, 50.0]))
    mean, std = _standardize_fit(rows)
    labels = rng.integers(0, 2, size=n)
    labels[:2] = (1, 0)
    return ((rows - mean) / std, labels, draw(st.integers(500, 3000)),
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 50)))


@settings(max_examples=60, deadline=None)
@given(objective_problems())
def test_minibatch_objective_is_within_pegasos_bound_of_single_pair_steps(problem):
    """Mini-batches minimise the same objective: on the sampled pairs, the
    b > 1 weights' hinge objective exceeds the b = 1 weights' by at most
    Pegasos' bound for its T = ceil(pairs / b) steps, G^2 (1 + ln T) /
    (2 lambda T) at lambda = 1, with G = 2 max|d| bounding every subgradient
    (|w| stays below max|d| / lambda)."""
    rows, labels, pair_samples, seed, batch = problem
    pos, neg = _pair_rows(labels, None, pair_samples, seed)
    diffs = rows[pos] - rows[neg]
    single = hinge_objective(fit_ranksvm(rows, labels, pair_samples, seed, batch=1),
                             diffs)
    batched = hinge_objective(fit_ranksvm(rows, labels, pair_samples, seed,
                                          batch=batch), diffs)
    steps = -(-pair_samples // batch)
    g_squared = 4.0 * float((diffs * diffs).sum(axis=1).max())
    bound = g_squared * (1.0 + np.log(steps)) / (2.0 * steps)
    assert batched - single <= bound


def test_ranksvm_duplicated_column_matches_single_column():
    """Both fits' optima score the one pair d at the margin 1. Every pair
    is d, so each of the T steps is all active or all not, and its score
    s_t = d.w_t, with a = |d|^2 >= 1, stays within a / t of 1: a step from
    below adds a / t to (1 - 1/t) s_{t-1}, one from above only shrinks it."""
    pair_samples = lse.ltr.PAIR_SAMPLES
    steps = -(-pair_samples // pegasos_batch(pair_samples))
    single = fit_ranksvm([[2.0], [0.0]], [1, 0])
    dup = fit_ranksvm([[2.0, 2.0], [0.0, 0.0]], [1, 0])
    assert dup[0] == pytest.approx(dup[1], rel=1e-12)
    s1 = np.array([[2.0], [0.0]]) @ single
    s2 = np.array([[2.0, 2.0], [0.0, 0.0]]) @ dup
    assert s1[1] == s2[1] == 0.0
    for score, norm_squared in ((s1[0], 4.0), (s2[0], 8.0)):
        assert abs(score - 1.0) <= norm_squared / steps
    # one pair per step takes 1e5 steps, which bring both to the optimum
    single = fit_ranksvm([[2.0], [0.0]], [1, 0], batch=1)
    dup = fit_ranksvm([[2.0, 2.0], [0.0, 0.0]], [1, 0], batch=1)
    s1 = np.array([[2.0], [0.0]]) @ single
    s2 = np.array([[2.0, 2.0], [0.0, 0.0]]) @ dup
    assert np.max(np.abs(s1 - s2)) < 1e-6


def test_ranksvm_orders_separable_data():
    rows = np.array([[1.0, 0.0], [0.9, 0.1], [0.1, 0.9], [0.0, 1.0]])
    scores = rows @ fit_ranksvm(rows, [1, 1, 0, 0], pair_samples=2000, seed=3)
    assert min(scores[:2]) > max(scores[2:])


def test_ranksvm_is_seed_deterministic():
    rows = np.random.default_rng(0).normal(size=(12, 3))
    labels = [1, 0] * 6
    a = fit_ranksvm(rows, labels, pair_samples=500, seed=9)
    b = fit_ranksvm(rows, labels, pair_samples=500, seed=9)
    c = fit_ranksvm(rows, labels, pair_samples=500, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ranksvm_rejects_single_class():
    with pytest.raises(DataError, match="single class"):
        _pair_rows(np.array([1, 1]), None, 100, 0)


def test_ranksvm_rejects_groups_without_both_classes():
    with pytest.raises(DataError, match="both a relevant"):
        _pair_rows(np.array([1, 0]), [0, 1], 100, 0)


def test_pair_rows_rejects_fewer_than_one_pair():
    for pair_samples in (0, -5):
        with pytest.raises(DataError, match="pair_samples must be at least 1"):
            _pair_rows(np.array([1, 0]), None, pair_samples, 0)


@pytest.mark.parametrize("pair_samples, batch", [
    (1, 1), (99, 1), (100, 1), (199, 1), (200, 2), (299, 2), (300, 3), (20000, 200),
    (100000, 1000), (123456, 1234)])
def test_pegasos_batch_keeps_at_least_100_steps(pair_samples, batch):
    assert pegasos_batch(pair_samples) == batch
    assert min(pair_samples, 100) <= -(-pair_samples // batch) < 200


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
    attributes = {
        "e0": {"price": 9.99, "sales_rank": 4, "description_length": 120},
        "e1": {"price": None, "sales_rank": 0, "description_length": None},
    }
    out = qi_feature_matrix(corpus, attributes, {})
    assert out.shape == (3, 10)
    assert out[0, 0] == 9.99 and out[0, 7] == 1.0
    assert out[0, 1] == 120.0 and out[0, 8] == 1.0
    assert out[0, 2] == 0.25 and out[0, 9] == 1.0
    # e1: all absent or non-positive, e2: no record at all
    assert np.array_equal(out[1, [0, 1, 2, 7, 8, 9]], np.zeros(6))
    assert np.array_equal(out[2, [0, 1, 2, 7, 8, 9]], np.zeros(6))


def test_qi_feature_matrix_pagerank_columns():
    corpus = small_corpus()
    out = qi_feature_matrix(corpus, {}, {"also_bought": [("e0", "e2"), ("ghost", "e0")]})
    assert np.allclose(out[:, 3], pagerank(3, [(0, 2)]), atol=1e-12)
    for k in range(1, len(GRAPH_NAMES)):
        assert np.allclose(out[:, 3 + k], 1.0 / 3.0, atol=1e-15)


def test_qi_feature_matrix_without_data():
    out = qi_feature_matrix(small_corpus(), {}, {})
    assert np.array_equal(out[:, [0, 1, 2, 7, 8, 9]], np.zeros((3, 6)))
    assert np.allclose(out[:, 3:7], 1.0 / 3.0, atol=1e-15)


# ---- feature assembly ----

def features_setup(lambda_jm=0.5, params="init"):
    """small_corpus over a three-word vocabulary and two queries of its ids."""
    corpus = small_corpus()
    qlm_model = estimate(corpus, lambda_jm)
    if params == "init":
        params = init_params(Dims(4, 3, 3, corpus.num_entities), 0)
    queries = {"t1": [0, 1], "t0": [2]}
    return corpus, qlm_model, params, queries


def test_build_features_columns_match_component_scores():
    from lse.model import project
    from lse.retrieval import cosine_scores

    corpus, qlm_model, params, queries = features_setup()
    table = build_features(queries, corpus, qlm_model, params)
    assert table.feature_names == QI_VALUE_FEATURES + QI_MASK_FEATURES + ("qlm", "lse")
    assert table.topics == ["t0", "t1"]
    assert table.entity_ids == ["e0", "e1", "e2"]
    qids = queries["t1"]
    expected_lse = cosine_scores(params.W_e, project(params, qids))
    assert np.allclose(table.matrices["t1"][:, 11], expected_lse, atol=1e-12)


@pytest.mark.parametrize("lambda_jm", [0.0, 0.3, 1.0])
def test_build_features_qlm_column_is_the_scalar_oracle(lambda_jm):
    corpus = make_corpus([("e0", [0, 0, 1]), ("e1", [1, 2]), ("e2", [2]), ("e3", []),
                          ("e4", [3, 1, 1])])
    qlm_model = estimate(corpus, lambda_jm)
    queries = {"a": [0], "b": [2, 9, 2, 1], "c": [9], "d": [3, 0]}
    table = build_features(queries, corpus, qlm_model, None)
    for tid, qids in queries.items():
        expected = np.array([scalar_qlm_score(qlm_model, i, qids) for i in range(5)])
        finite = expected[np.isfinite(expected)]
        # -inf sits one below the topic's smallest finite score; a topic
        # with no finite score gets an all-zero column
        expected[~np.isfinite(expected)] = finite.min() - 1.0 if len(finite) else 0.0
        assert table.matrices[tid][:, 10].tolist() == expected.tolist(), tid


def test_build_features_replaces_minus_inf():
    corpus, qlm_model, params, _ = features_setup(lambda_jm=0.0)
    table = build_features({"t": [0]}, corpus, qlm_model, params)
    col = table.matrices["t"][:, 10]
    assert np.all(np.isfinite(col))
    # only e0's profile contains alpha; the others sit one below its score
    assert col[1] == col[0] - 1.0 and col[2] == col[0] - 1.0


def test_build_features_zeroes_query_columns_when_out_of_vocabulary():
    corpus, qlm_model, params, _ = features_setup()
    table = build_features({"t": []}, corpus, qlm_model, params)
    assert np.array_equal(table.matrices["t"][:, 10], np.zeros(3))
    assert np.array_equal(table.matrices["t"][:, 11], np.zeros(3))


def test_build_features_without_model_leaves_out_the_lse_column():
    corpus, qlm_model, _, queries = features_setup(params=None)
    table = build_features(queries, corpus, qlm_model, None)
    assert table.feature_names == QI_VALUE_FEATURES + QI_MASK_FEATURES + ("qlm",)
    assert table.matrices["t1"].shape == (3, 11)
    assert np.any(table.matrices["t1"][:, 10] != 0)
    with pytest.raises(DataError):
        table.columns_for(("lse",))


def test_columns_for_blocks():
    corpus, qlm_model, params, queries = features_setup()
    table = build_features(queries, corpus, qlm_model, params)
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
    table = build_features(encode_topics(topics, vocab), corpus, qlm_model, params)
    return table, qrels


def test_cross_validated_fusion_report_structure():
    table, qrels = fusion_setup()
    report = cross_validated_fusion(table, qrels, folds=4, seed=0, cutoff=10,
                                    ks=(5,), pair_samples=2000)
    assert [row["features"] for row in report.rows] == [
        "qi", "qi+qlm", "qi+lse", "qi+qlm+lse"]
    for row in report.rows:
        assert set(row["means"]) == {"ndcg@10", "p@5"}
        assert set(row["per_topic"]) == set(table.topics)
    assert set(report.significance) == {"ndcg@10", "p@5"}
    for stats in report.significance.values():
        assert stats.get("degenerate") or {"t", "p", "marker"} <= set(stats)


def test_cross_validated_fusion_is_deterministic():
    table, qrels = fusion_setup()
    kwargs = dict(folds=4, seed=1, cutoff=10, ks=(5,), pair_samples=1000)
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
    folds, seed, pair_samples = 4, 3, 700
    with mock.patch.object(lse.ltr, "_MIN_STEPS", pair_samples):  # b = 1
        report = cross_validated_fusion(table, qrels, folds=folds, seed=seed,
                                        cutoff=10, ks=(5,), pair_samples=pair_samples)
    n = len(table.entity_ids)
    partition = _fold_partition(table.topics, folds, seed)
    for combo_index, (combo, row) in enumerate(zip(COMBOS, report.rows)):
        cols = table.columns_for(combo)
        runs = {}
        for fold_index, heldout in enumerate(partition):
            train = [t for t in table.topics if t not in heldout]
            matrix = np.concatenate([table.matrices[t][:, cols] for t in train])
            labels = np.concatenate([[qrels.grades.get((t, e), 0)
                                      for e in table.entity_ids] for t in train])
            mean, std = _standardize_fit(matrix)
            fold_seed = int(np.random.SeedSequence(
                entropy=seed, spawn_key=(combo_index, fold_index)).generate_state(1)[0])
            w = oracle_train_ranksvm((matrix - mean) / std, labels, pair_samples,
                                     fold_seed, np.repeat(np.arange(len(train)), n))
            for tid in heldout:
                scores = ((table.matrices[tid][:, cols] - mean) / std) @ w
                runs[tid] = ranked_from_scores(tid, table.entity_ids, scores, 10)
        assert row["per_topic"] == evaluate_run(runs, qrels, cutoff=10,
                                                ks=(5,)).per_topic


def test_cross_validated_fusion_without_lse_trains_only_qi_and_qi_qlm():
    """Without a model the table has no lse column: the two combinations
    left give the same rows as with one, and significance is degenerate."""
    from conftest import build_fusion_benchmark

    corpus, vocab, _, topics, grades = build_fusion_benchmark()
    table = build_features(encode_topics(topics, vocab), corpus, estimate(corpus, 0.5),
                           None)
    with_model, qrels = fusion_setup()
    kwargs = dict(folds=4, seed=2, cutoff=10, ks=(5,), pair_samples=600)
    report = cross_validated_fusion(table, qrels, **kwargs)
    assert [row["features"] for row in report.rows] == ["qi", "qi+qlm"]
    assert report.rows == cross_validated_fusion(with_model, qrels, **kwargs).rows[:2]
    assert set(report.significance) == {"ndcg@10", "p@5"}
    for stats in report.significance.values():
        assert set(stats) == {"degenerate"}
        assert "no model" in stats["degenerate"]


def test_each_command_trains_its_rankers_in_one_pegasos_call():
    """One call per command, at pegasos_batch's 2 pairs per step for 200
    pairs."""
    calls = []

    def counting(rows, pos, neg, *args, **kwargs):
        calls.append((pos.shape[1], kwargs["batch"]))
        return _pegasos(rows, pos, neg, *args, **kwargs)

    table, qrels = fusion_setup()
    with mock.patch.object(lse.ltr, "_pegasos", counting):
        cross_validated_fusion(table, qrels, folds=3, seed=0, cutoff=10, ks=(5,),
                               pair_samples=200)
        assert calls == [(len(COMBOS) * 3, 2)]
        calls.clear()
        params, queries, qrels, ids = report_setup()
        queries["ok2"] = [1, 2]
        qrels = Qrels({**qrels.grades, ("ok2", "e1"): 1, ("ok2", "e3"): 1})
        rows = ideal_vector_report(params, queries, qrels, ids, pair_samples=200)
    assert calls == [(sum(row["status"] == "ok" for row in rows), 2)] == [(2, 2)]


# ---- ideal vectors ----

def entity_params(w_e):
    """A model whose entity rows are w_e, with a three-word vocabulary."""
    params = init_params(Dims(4, w_e.shape[1], 3, len(w_e)), 0)
    params.W_e[:] = w_e
    return params


def test_ideal_vector_skips_single_relevant():
    rows = ideal_vector_report(entity_params(np.eye(3)), {"t": [0]},
                               Qrels({("t", "e0"): 1}), ["e0", "e1", "e2"])
    assert rows == [{"topic_id": "t", "status": "skipped_single_relevant",
                     "n_relevant": 1, "ndcg_ideal": None, "ndcg_query": None}]


def test_ideal_vector_separates_relevant_directions():
    params = entity_params(np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0],
                                     [0.0, -1.0]]))
    qrels = Qrels({("t", "e0"): 1, ("t", "e1"): 1})
    rows = ideal_vector_report(params, {"t": [0]}, qrels,
                               ["e0", "e1", "e2", "e3"], cutoff=2,
                               pair_samples=2000, seed=1)
    assert rows[0]["status"] == "ok"
    assert rows[0]["ndcg_ideal"] == 1.0  # the two relevant entities rank first


def report_setup():
    """A three-word model, one query per report status and four entities."""
    params = init_params(Dims(4, 3, 3, 4), 0)
    queries = {"ok": [0, 1], "single": [0], "none": [1], "oov": [], "outside": [0]}
    qrels = Qrels({("ok", "e0"): 1, ("ok", "e1"): 1,
                   ("single", "e2"): 1, ("none", "e0"): 0,
                   ("oov", "e0"): 1, ("oov", "e1"): 1,
                   ("outside", "e3"): 1, ("outside", "ghost"): 1})
    return params, queries, qrels, ["e0", "e1", "e2", "e3"]


def test_ideal_vector_report_statuses():
    params, queries, qrels, ids = report_setup()
    rows = ideal_vector_report(params, queries, qrels, ids, pair_samples=1000)
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
    params, queries, qrels, ids = report_setup()
    first = ideal_vector_report(params, queries, qrels, ids, pair_samples=1000)
    second = ideal_vector_report(params, queries, qrels, ids, pair_samples=1000)
    assert first == second


def test_ideal_vector_report_equals_per_topic_oracle():
    """Each eligible topic's ideal vector trained alone by the oracle loop
    gives the same rankings and NDCGs as the lockstep report."""
    rng = np.random.default_rng(7)
    params = init_params(Dims(4, 6, 3, 12), 0)
    params.W_e[3] = 0.0  # a zero row normalizes to zero
    ids = [f"e{i:02d}" for i in range(12)]
    queries, grades = {}, {}
    for i in range(7):
        queries[f"t{i}"] = [0, 2] if i % 3 else [1]
        for eid in rng.choice(ids, size=i % 5, replace=False):
            grades[(f"t{i}", eid)] = 1
    queries["oov"] = []
    grades[("oov", "e00")] = grades[("oov", "e01")] = 1
    qrels = Qrels(grades)
    pair_samples, seed = 900, 5
    with mock.patch.object(lse.ltr, "_MIN_STEPS", pair_samples):  # b = 1
        rows = ideal_vector_report(params, queries, qrels, ids, cutoff=5,
                                   pair_samples=pair_samples, seed=seed)
    norms = np.linalg.norm(params.W_e, axis=1, keepdims=True)
    unit = np.divide(params.W_e, norms, out=np.zeros_like(params.W_e),
                     where=norms > 0)
    eligible = 0
    for index, (tid, row) in enumerate(zip(sorted(queries), rows)):
        assert row["topic_id"] == tid
        if row["status"] != "ok":
            assert row["ndcg_ideal"] is None and row["ndcg_query"] is None
            continue
        eligible += 1
        labels = [1 if eid in qrels.relevant(tid) else 0 for eid in ids]
        topic_seed = int(np.random.SeedSequence(
            entropy=seed, spawn_key=(11, index)).generate_state(1)[0])
        w = oracle_train_ranksvm(unit, labels, pair_samples, topic_seed)
        query = project(params, queries[tid])
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
