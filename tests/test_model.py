"""Model core: init, projection, loss, gradients, Adam, persistence."""

import contextlib
import dataclasses
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lse.model
from conftest import (cast_params, sigma, sigmoid_product_loss, sigmoid_product_prob,
                      traced_peak)
from lse.errors import DataError, LSEError, SizeError
from lse.model import (PARAM_FIELDS, AdamState, Dims, Gradients,
                       ModelParams, TrainConfig, _gather_sum, _scatter_add,
                       _sigmoid, adam_step, batch_loss,
                       batch_loss_and_gradients, init_params, load_model,
                       max_relative_fd_error, project, save_model)
from lse.sampling import InstanceBlock


def random_setup(seed, dims=Dims(e_v=4, e_e=3, vocab_size=6, num_entities=5),
                 m=3, n=2, z=2):
    """C-contiguous params, as train holds them, and a batch."""
    rng = np.random.default_rng(seed)
    params = init_params(dims, rng).copy()
    block = InstanceBlock(rng.integers(0, dims.vocab_size, size=(m, n)),
                          rng.integers(0, dims.num_entities, size=m),
                          rng.integers(0, dims.num_entities, size=(m, z)))
    return params, block


def chunked(instances, z, e_e, dtype=np.float64):
    """Size the negatives' gathers to `instances` instances of z rows of
    e_e values each."""
    return mock.patch.object(lse.model, "_CHUNK_BYTES",
                             instances * z * e_e * np.dtype(dtype).itemsize)


# Instances per negatives' gather in the chunk-crossing tests below.
CHUNK = 64


@contextlib.contextmanager
def negative_gathers():
    """A list of each 3-D output of np.take while in the block: the
    training step's gathers of the negatives' rows of W_e."""
    take, gathers = np.take, []

    def recording(*args, **kwargs):
        got = take(*args, **kwargs)
        if got.ndim == 3:
            gathers.append(got)
        return got

    with mock.patch.object(np, "take", recording):
        yield gathers


def entity_names(params):
    return [f"e{i}" for i in range(params.dims.num_entities)]


# ModelParams' fields: PARAM_FIELDS with word_rows in W_v's place
FIELDS = [field.name for field in dataclasses.fields(ModelParams)]


def zero_params(e_v=4, e_e=3, vocab=6, entities=5):
    return ModelParams(np.zeros((vocab, e_v)), np.zeros((e_e, e_v)),
                       np.zeros(e_e), np.zeros((entities, e_e)))


def masked_sigmoid(x):
    """The logistic function by boolean masks, 1 / (1 + e^-x) where x >= 0
    and e^x / (1 + e^x) elsewhere: the bit-for-bit reference for _sigmoid."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sq_norms(params):
    """Squared Frobenius norms of W_v, W_e and W, each one einsum over the
    flattened table, as the training step sums it, and added in that order,
    so a loss built on it keeps the step's bits."""
    return sum(float(np.einsum("i,i->", theta.ravel(), theta.ravel()))
               for theta in (params.word_rows, params.W_e, params.W))


_PROB_LO = np.nextafter(0.0, 1.0)
_PROB_HI = np.nextafter(1.0, 0.0)


def similarity_prob(entity_vec, projected):
    """Scalar oracle: sigma(e . f), clamped into the open interval (0, 1);
    stable for arbitrarily large |e . f|."""
    a = np.asarray(entity_vec, dtype=np.float64)
    b = np.asarray(projected, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("vector length mismatch")
    x = float(a @ b)
    p = 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))
    return min(max(p, _PROB_LO), _PROB_HI)


# signed zeros and infinities, and values where an exponential of x or -x
# would overflow or underflow in float32 or float64
EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, 1e-45, -1e-45, 88.7, -88.7, 89.0,
               -104.0, 3e38, -3e38]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((np.float32, np.float64)).flatmap(
    lambda dtype: arrays(dtype, st.integers(0, 40),
                         elements=st.floats(width=np.dtype(dtype).itemsize * 8))))
def test_sigmoid_has_the_masked_formulas_bytes(x):
    info = np.finfo(x.dtype)
    x = np.concatenate([x, np.array(EDGE_VALUES + [info.max, info.min, info.smallest_subnormal],
                                     dtype=x.dtype)])
    got, want = _sigmoid(x), masked_sigmoid(x)
    assert got.dtype == want.dtype == x.dtype
    # NaN sign bits may differ; a NaN is compared only as a NaN
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def instance_log_prob(params, ngram, positive, negatives):
    """Scalar oracle: log sigma(e+ . f) + sum_k log(1 - sigma(e_k . f)), in
    log domain."""
    f = project(params, ngram)
    dpos = float(params.W_e[positive] @ f)
    dneg = params.W_e[np.asarray(negatives, dtype=np.intp)] @ f
    return float(-np.logaddexp(0.0, -dpos) - np.logaddexp(0.0, dneg).sum())


def test_init_respects_glorot_bounds_and_zero_bias():
    dims = Dims(e_v=8, e_e=4, vocab_size=10, num_entities=6)
    params = init_params(dims, 0)
    for name, (rows, cols) in (("W_v", (8, 10)), ("W", (4, 8)), ("W_e", (6, 4))):
        arr = getattr(params, name)
        bound = math.sqrt(6.0 / (rows + cols))
        assert arr.shape == (rows, cols)
        assert np.all(np.abs(arr) <= bound)
    assert np.all(params.b == 0)


def test_init_deterministic_and_order_committed():
    dims = Dims(e_v=4, e_e=3, vocab_size=6, num_entities=5)
    a = init_params(dims, 42)
    b = init_params(dims, 42)
    assert all(np.array_equal(getattr(a, n), getattr(b, n)) for n in PARAM_FIELDS)
    # draws are committed in the order W_v, W, W_e: changing only the entity
    # count must leave the earlier matrices untouched
    c = init_params(Dims(e_v=4, e_e=3, vocab_size=6, num_entities=9), 42)
    assert np.array_equal(a.W_v, c.W_v)
    assert np.array_equal(a.W, c.W)


def test_dims_validation():
    with pytest.raises(DataError):
        Dims(0, 1, 1, 1)
    # NumPy sizes no array past intp-max bytes: each array init_params draws
    # is checked where the dims are made, naming the fields that size it
    for dims, fields in (((10 ** 30, 256, 2000, 1024), "e_v and vocab_size"),
                         ((300, 10 ** 30, 2000, 1024), "num_entities and e_e"),
                         ((2 ** 40, 2 ** 40, 1, 1), "e_e and e_v")):
        with pytest.raises(SizeError, match=f"^{fields}: an array of .* values is more "
                                            "than NumPy can allocate$") as caught:
            init_params(Dims(*dims), 0)
        assert isinstance(caught.value, DataError)
    assert Dims(2 ** 29, 1, 2 ** 30, 1).e_v == 2 ** 29   # 2**59 values are not refused


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_model_params_iterate_in_field_order(dtype):
    params = init_params(Dims(e_v=4, e_e=3, vocab_size=6, num_entities=5), 61,
                         dtype=dtype)
    arrays = list(params)
    assert len(arrays) == len(PARAM_FIELDS) and FIELDS[1:] == list(PARAM_FIELDS[1:])
    for array, name in zip(arrays, FIELDS):
        assert array is getattr(params, name), name
    # W_v, the container's layout, is a view of word_rows
    assert params.W_v.shape == (4, 6) and np.shares_memory(params.W_v, params.word_rows)
    assert np.array_equal(params.W_v, params.word_rows.T)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_moments_are_zero_model_params(dtype):
    params = init_params(Dims(e_v=4, e_e=3, vocab_size=6, num_entities=5), 67,
                         dtype=dtype)
    state = AdamState(params)
    for moments in (state.m, state.v):
        assert isinstance(moments, ModelParams)
        for name in PARAM_FIELDS:
            got, like = getattr(moments, name), getattr(params, name)
            assert got.shape == like.shape and got.dtype == like.dtype, name
            assert not got.any() and got is not like, name


def test_model_params_shape_check():
    with pytest.raises(DataError):
        ModelParams(np.zeros((2, 3)), np.zeros((4, 99)), np.zeros(4),
                    np.zeros((5, 4)))


def test_project_scalar_fixture():
    params = ModelParams(np.array([[0.5]]), np.array([[1.0]]), np.zeros(1),
                         np.zeros((1, 1)))
    assert project(params, [0])[0] == pytest.approx(0.46211716, abs=1e-8)


def test_project_matches_matrix_oracle():
    params, _ = random_setup(0)
    ids = [1, 4, 2]
    h = sum(params.word_rows[i] for i in ids) / 3.0
    expected = np.tanh(params.W.dot(h) + params.b)
    assert np.allclose(project(params, ids), expected, atol=1e-12, rtol=0)


@pytest.fixture(scope="module")
def word_tables(tmp_path_factory):
    """Per dtype: init_params' params, a C-contiguous copy of them and
    load_model's read of their container, at e_V = 300."""
    tables = {}
    for dtype in (np.float32, np.float64):
        params = init_params(Dims(e_v=300, e_e=16, vocab_size=600, num_entities=2), 89,
                             dtype=dtype)
        path = tmp_path_factory.mktemp("tables") / "model.lse"
        save_model(path, params, entity_ids=["a", "b"])
        tables[dtype] = params, params.copy(), load_model(path)[0]
    return tables


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((np.float32, np.float64)),
       st.integers(1, 64).flatmap(lambda k: st.lists(st.integers(0, 599), min_size=k,
                                                     max_size=k)))
def test_project_has_the_bits_of_the_container_column_mean(word_tables, dtype, ids):
    # the mean of a query's rows of word_rows, C-contiguous or load_model's
    # view, against the mean of its columns of the container's W_v
    params, c_order, loaded = word_tables[dtype]
    assert c_order.word_rows.flags.c_contiguous and not loaded.word_rows.flags.c_contiguous
    container = np.ascontiguousarray(params.W_v)   # (e_V, |V|), the file's layout
    want = np.tanh(params.W @ container[:, ids].mean(axis=1) + params.b)
    for got in (project(c_order, ids), project(loaded, ids)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_project_is_order_insensitive():
    params, _ = random_setup(1)
    assert np.array_equal(project(params, [0, 3, 5]), project(params, [5, 0, 3]))


def test_project_output_inside_open_interval():
    params, _ = random_setup(2)
    f = project(params, [0, 1])
    assert np.all(np.abs(f) < 1.0)


def test_project_rejects_empty():
    params, _ = random_setup(3)
    with pytest.raises(LSEError, match="cannot project empty string"):
        project(params, [])


def test_similarity_prob_midpoint_and_clamping():
    assert similarity_prob(np.zeros(3), np.ones(3)) == 0.5
    lo = similarity_prob(np.array([1000.0]), np.array([-1.0]))
    hi = similarity_prob(np.array([1000.0]), np.array([1.0]))
    assert 0.0 < lo <= 1e-300
    assert 0.0 < 1.0 - hi < 1e-15


def test_similarity_prob_shape_check():
    with pytest.raises(DataError):
        similarity_prob(np.zeros(2), np.zeros(3))


def test_instance_log_prob_matches_naive_product():
    for seed in range(5):
        params, block = random_setup(seed)
        inst = block.ngrams[0], block.positives[0], block.negatives[0]
        naive = math.log(sigmoid_product_prob(params, *inst))
        assert instance_log_prob(params, *inst) == pytest.approx(naive, abs=1e-12)


def test_instance_log_prob_zero_params():
    params = zero_params()
    assert instance_log_prob(params, (0, 1), 0, [1] * 10) == pytest.approx(
        11 * math.log(0.5), abs=1e-9)


def test_batch_loss_zero_params_fixture():
    params = zero_params()
    block = InstanceBlock(np.zeros((2, 2), dtype=np.int32),
                          np.zeros(2, dtype=np.int32),
                          np.zeros((2, 10), dtype=np.int32))
    assert batch_loss(params, block, 0.0) == pytest.approx(7.6246190, abs=1e-7)


def test_batch_loss_matches_sigma_product_oracle():
    for seed in range(10):
        params, block = random_setup(seed, m=6, n=3, z=4)
        for lam in (0.0, 0.01):
            assert batch_loss(params, block, lam) == pytest.approx(
                sigmoid_product_loss(params, block, lam), abs=1e-10)


def test_batch_loss_nonnegative_and_decomposes_regularizer():
    params, block = random_setup(11)
    base = batch_loss(params, block, 0.0)
    reg = batch_loss(params, block, 0.02)
    norms = (np.sum(params.W_v ** 2) + np.sum(params.W_e ** 2)
             + np.sum(params.W ** 2))
    assert base >= 0.0
    assert reg - base == pytest.approx(0.5 * 0.02 / len(block.positives) * norms, abs=1e-12)


def test_batch_loss_rejects_empty_batch():
    params, block = random_setup(0, m=0)
    assert len(block.positives) == 0
    with pytest.raises(ValueError):
        batch_loss(params, block, 0.0)


def test_gradients_match_finite_differences():
    for lam in (0.0, 0.01):
        params, block = random_setup(17)
        assert max_relative_fd_error(params, block, lam) < 1e-6


@pytest.mark.parametrize("broken", ["gradient", "loss"])
def test_fd_check_counts_non_finite_values_as_infinite_error(broken):
    # max() keeps its first argument against NaN, so a NaN must not reach it
    params, block = random_setup(17)
    step = lse.model.batch_loss_and_gradients

    def nan_gradient(*args):
        loss, grads = step(*args)
        grads.W[0, 0] = np.nan
        return loss, grads

    patch = ({"batch_loss_and_gradients": nan_gradient} if broken == "gradient"
             else {"batch_loss": lambda *args: math.nan})
    with mock.patch.multiple(lse.model, **patch):
        assert max_relative_fd_error(params, block, 0.01) == math.inf


def test_gradient_of_untouched_embedding_is_pure_decay():
    params, block = random_setup(5)
    untouched = [t for t in range(params.dims.vocab_size)
                 if t not in set(block.ngrams.ravel().tolist())]
    assert untouched
    lam = 0.01
    grads = batch_loss_and_gradients(params, block, lam)[1]
    assert not set(untouched) & set(grads.ids.tolist())
    dense = grads.dense(params)
    decay = lam * (1.0 / len(block.positives))  # scalar shape matters for bit equality
    for t in untouched:
        assert np.array_equal(dense.word_rows[t], decay * params.word_rows[t])


def test_bias_gradient_ignores_weight_decay():
    params, block = random_setup(6)
    g0 = batch_loss_and_gradients(params, block, 0.0)[1]
    g1 = batch_loss_and_gradients(params, block, 0.5)[1]
    assert np.array_equal(g0.b, g1.b)
    assert not np.array_equal(g0.W, g1.W)


def test_loss_and_gradients_share_forward():
    params, block = random_setup(7, m=2 * CHUNK + 5, z=4)
    with chunked(CHUNK, 4, params.dims.e_e):
        loss, grads = batch_loss_and_gradients(params, block, 0.01)
        assert loss == batch_loss(params, block, 0.01)
    only = batch_loss_and_gradients(params, block, 0.01)[1]
    assert all(np.array_equal(getattr(grads, n), getattr(only, n))
               for n in PARAM_FIELDS)


def loop_batch_gradients(params, block, weight_decay):
    """Per-instance, per-token Python loop over the analytic gradient of the
    batch loss: the reference for the vectorised scatter-adds."""
    m = len(block.positives)
    reg = weight_decay / m
    g = {name: reg * getattr(params, name) for name in FIELDS}
    g["b"] = np.zeros_like(params.b)
    for ngram, positive, negatives in zip(block.ngrams, block.positives,
                                          block.negatives):
        h = params.word_rows[list(ngram)].mean(axis=0)
        f = np.tanh(params.W @ h + params.b)
        coeffs = [(positive, 1.0 - sigma(params.W_e[positive] @ f))]
        coeffs += [(k, -sigma(params.W_e[k] @ f)) for k in negatives]
        v = sum(c * params.W_e[e] for e, c in coeffs)
        d = v * (1.0 - f * f)
        g["b"] -= d / m
        g["W"] -= np.outer(d, h) / m
        for t in ngram:
            g["word_rows"][t] -= (params.W.T @ d) / (len(ngram) * m)
        for e, c in coeffs:
            g["W_e"][e] -= c * f / m
    return g


@st.composite
def colliding_batches(draw):
    """A parameter set and a batch drawn from pools of at most three words
    and three entities, with a word repeated inside and across rows and the
    first positive planted among its own negatives."""
    m, n, z = (draw(st.integers(1, hi)) for hi in (6, 4, 4))
    vocab, entities = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    params = init_params(Dims(3, 2, vocab, entities),
                         draw(st.integers(0, 2 ** 32 - 1))).copy()

    def ids(pool, shape):
        size = math.prod(shape)
        drawn = draw(st.lists(st.integers(0, pool - 1), min_size=size,
                              max_size=size))
        return np.array(drawn, dtype=np.int64).reshape(shape)

    ngrams = ids(vocab, (m, n))
    positives = ids(entities, (m,))
    negatives = ids(entities, (m, z))
    ngrams[0, -1] = ngrams[-1, 0] = ngrams[0, 0]
    negatives[0, -1] = positives[0]
    weight_decay = draw(st.sampled_from((0.0, 0.01)))
    return params, InstanceBlock(ngrams, positives, negatives), weight_decay


@settings(max_examples=200, deadline=None)
@given(colliding_batches())
def test_batch_gradients_match_per_instance_loop(case):
    params, block, weight_decay = case
    grads = batch_loss_and_gradients(params, block, weight_decay)[1].dense(params)
    want = loop_batch_gradients(params, block, weight_decay)
    for name in FIELDS:
        assert np.allclose(getattr(grads, name), want[name], atol=1e-12, rtol=0), name


def test_batch_spanning_chunks_matches_per_instance_loop():
    # m > 2 * CHUNK, so the negatives' forward pass crosses two chunk
    # boundaries and ends in a partial chunk.
    m = 2 * CHUNK + 76
    params, block = random_setup(23, m=m, n=3, z=4)
    with chunked(CHUNK, 4, params.dims.e_e):
        loss, grads = batch_loss_and_gradients(params, block, 0.01)
    grads = grads.dense(params)
    want = loop_batch_gradients(params, block, 0.01)
    for name in FIELDS:
        assert np.allclose(getattr(grads, name), want[name], atol=1e-12, rtol=0), name
    logps = [instance_log_prob(params, *inst) for inst in
             zip(block.ngrams, block.positives, block.negatives)]
    reg = 0.5 * 0.01 / m * sq_norms(params)
    assert loss == pytest.approx(-sum(logps) / m + reg, abs=1e-12)


def unchunked_batch_loss_and_gradients(params, batch, weight_decay):
    """The training step with one whole-batch gather of the negatives and
    one row-wise np.add.at per scatter: the bit-for-bit reference for the
    chunked gathers and the sparse-product scatters. Returns the loss, the
    dense gradients and the data term S W of W_v's on the batch's words."""
    ngrams, positives, negatives = batch.ngrams, batch.positives, batch.negatives
    m = len(positives)
    n = ngrams.shape[1]
    ids, inv = np.unique(ngrams, return_inverse=True)
    inv = inv.reshape(ngrams.shape)
    T = params.word_rows[ids]
    F = np.tanh((T @ params.W.T)[inv].mean(axis=1) + params.b)
    Epos = params.W_e[positives]
    Eneg = params.W_e[negatives]
    dpos = np.einsum("me,me->m", Epos, F)
    dneg = np.einsum("mke,me->mk", Eneg, F)
    logp = -np.logaddexp(0.0, -dpos) - np.logaddexp(0.0, dneg).sum(axis=1)
    loss = float(-logp.mean() + 0.5 * weight_decay / m * sq_norms(params))
    cpos = 1.0 - masked_sigmoid(dpos)
    cneg = -masked_sigmoid(dneg)
    V = cpos[:, None] * Epos + np.einsum("mk,mke->me", cneg, Eneg)
    G = V * (1.0 - F * F)
    inv_m = 1.0 / m
    reg = weight_decay * inv_m
    g_b = -inv_m * G.sum(axis=0)
    S = np.zeros((len(ids), G.shape[1]), dtype=G.dtype)
    np.add.at(S, inv, G[:, None, :])           # each word's summed errors
    S *= -inv_m / n
    block = lse.model._WORD_BLOCK
    g_W = S[:block].T @ T[:block]
    for lo in range(block, len(ids), block):
        g_W += S[lo:lo + block].T @ T[lo:lo + block]
    g_W += reg * params.W
    SW = S @ params.W
    g_rows = reg * params.word_rows
    g_rows[ids] += SW
    g_We = reg * params.W_e
    np.add.at(g_We, positives, (-inv_m * cpos)[:, None] * F)
    np.add.at(g_We, negatives, (-inv_m * cneg)[:, :, None] * F[:, None, :])
    return loss, ModelParams(g_rows, g_W, g_b, g_We), SW


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_chunked_step_is_bit_identical_to_unchunked(dtype):
    # 229 instances with ids drawn from seven words (fewer distinct words
    # than instances: every word is hit many times) or from 5000 (more) and
    # from four entities, so every entity row is hit many times within and
    # across chunks; and a partial batch of 5, shorter than a chunk. The
    # negatives are gathered in chunks of 64 instances (e_E = 5) that tile
    # the batch, the last one partial, and the error G is built in blocks of
    # whole chunks: one block of four (_ERROR_ROWS 512), blocks of one
    # (100, and 40, under a chunk) and blocks of two, the last block's last
    # chunk partial (150). At e_E = 321 one instance's negatives pass the
    # chunk's bytes, so each chunk holds one instance, in blocks of 100. The
    # step's W_v gradient is its data term S W on the batch's words: it
    # equals the oracle's S W, and its densified table the oracle's table;
    # at weight decay 0 the gradient of an untouched word row is 0 * theta,
    # so the sign of each zero is pinned.
    layouts = [(5, CHUNK, rows) for rows in (512, 100, 40, 150)] + [(CHUNK * 5 + 1, 1, 100)]
    for vocab, m, weight_decay, (e_e, chunk, error_rows) in itertools.product(
            (7, 5000), (3 * CHUNK + 37, 5), (0.01, 0.0), layouts):
        dims = Dims(e_v=6, e_e=e_e, vocab_size=vocab, num_entities=4)
        params, block = random_setup(29, dims=dims, m=m, n=3, z=4)
        if m > CHUNK:
            assert (len(np.unique(block.ngrams)) < m) == (vocab == 7)
        params = cast_params(params, dtype)
        # the W gradient in blocks of three words, the last one partial
        with chunked(CHUNK, 4, 5, dtype), \
                mock.patch.object(lse.model, "_ERROR_ROWS", error_rows), \
                mock.patch.object(lse.model, "_WORD_BLOCK", 3):
            with negative_gathers() as gathers:
                loss, grads = batch_loss_and_gradients(params, block, weight_decay)
            want_loss, want, SW = unchunked_batch_loss_and_gradients(params, block,
                                                                     weight_decay)
        assert [len(g) for g in gathers] == [chunk] * (m // chunk) + [m % chunk] * (m % chunk > 0)
        assert loss == want_loss
        assert np.array_equal(grads.ids, np.unique(block.ngrams))
        assert grads.decay == weight_decay * (1.0 / m)
        assert grads.word_rows.dtype == SW.dtype
        assert grads.word_rows.tobytes() == SW.tobytes()
        dense = grads.dense(params)
        for name in FIELDS:
            got, ref = getattr(dense, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("dtype, instances", [(np.float32, 25), (np.float64, 12)])
def test_negative_gathers_are_sized_in_bytes(dtype, instances):
    # The default z and e_E: chunks of about 256 KiB whatever the dtype, in
    # one buffer, and G blocks of as many whole chunks as _ERROR_ROWS holds
    # (500 and 504 instances), so a batch of a block, four chunks and three
    # instances gathers whole chunks across the block edge, then a partial one.
    per_block = lse.model._ERROR_ROWS // instances
    dims = Dims(e_v=3, e_e=256, vocab_size=5, num_entities=7)
    params, block = random_setup(41, dims=dims, m=(per_block + 4) * instances + 3, z=10)
    with negative_gathers() as gathers:
        batch_loss_and_gradients(cast_params(params, dtype), block, 0.01)
    assert [g.shape for g in gathers] == [(instances, 10, 256)] * (per_block + 4) + [(3, 10, 256)]
    assert all(g.base is gathers[0].base for g in gathers)
    assert gathers[0].nbytes <= lse.model._CHUNK_BYTES < 2 * gathers[0].nbytes


def test_float32_step_returns_float32_gradients():
    params, block = random_setup(31, m=9, n=2, z=3)
    loss, grads = batch_loss_and_gradients(cast_params(params, np.float32), block, 0.01)
    assert math.isfinite(loss)
    for name in PARAM_FIELDS:
        assert getattr(grads, name).dtype == np.float32, name


@st.composite
def sparse_cases(draw):
    """A nonzero float32 or float64 target of one or more rows and columns,
    an (m, k) id matrix with repeats that may leave rows unused,
    coefficients that are 1, one per instance or one per id, and (m, d)
    rows, all of the target's dtype."""
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    finite = st.floats(-1e3, 1e3, width=np.dtype(dtype).itemsize * 8)
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    out = draw(arrays(dtype, shape, elements=finite))
    index = draw(arrays(np.int32, (draw(st.integers(1, 5)), draw(st.integers(1, 3))),
                        elements=st.integers(0, shape[0] - 1)))
    coef_shape = draw(st.sampled_from(((), (len(index), 1), index.shape)))
    coef = (1 if coef_shape == () else
            draw(arrays(dtype, coef_shape, elements=finite)))
    rows = draw(arrays(dtype, (len(index), shape[1]), elements=finite))
    return out, index, coef, rows


@settings(max_examples=300, deadline=None)
@given(sparse_cases())
def test_scatter_add_is_bit_identical_to_add_at(case):
    out, index, coef, rows = case
    want = out.copy()
    np.add.at(want, index,
              np.broadcast_to(coef, index.shape)[..., None] * rows[:, None, :])
    got = out.copy()
    _scatter_add(got, index, coef, rows)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(sparse_cases())
def test_gather_sum_adds_rows_in_order_from_zero(case):
    table, index, _, _ = case
    want = np.zeros((len(index), table.shape[1]), dtype=table.dtype)
    for k in range(index.shape[1]):
        want += table[index[:, k]]
    # into a fresh buffer and into one prefilled with garbage, which the
    # gather zeroes first
    for out in (np.empty_like(want), np.full_like(want, np.nan)):
        got = _gather_sum(table, index, out)
        assert got is out
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [-1, 3])
def test_sparse_helpers_reject_out_of_range_ids(bad):
    out = np.ones((3, 2))
    index = np.array([[0, bad]])
    with pytest.raises(IndexError):
        _scatter_add(out, index, 1.0, np.ones((1, 2)))
    gathered = np.full((1, 2), 7.0)
    with pytest.raises(IndexError):
        _gather_sum(out, index, gathered)
    assert np.array_equal(out, np.ones((3, 2)))
    assert np.array_equal(gathered, np.full((1, 2), 7.0))


@pytest.mark.parametrize("field", ["ngrams", "positives", "negatives"])
def test_step_rejects_out_of_range_ids(field):
    # an id of -1 or of the table's length is an IndexError, never a wrapped
    # or clipped row, whichever array holds it
    params, block = random_setup(37, m=4, n=2, z=3)
    rows = params.dims.vocab_size if field == "ngrams" else params.dims.num_entities
    for bad in (-1, rows):
        ids = {name: getattr(block, name).copy()
               for name in ("ngrams", "positives", "negatives")}
        ids[field].reshape(-1)[-1] = bad
        with pytest.raises(IndexError):
            batch_loss_and_gradients(params, InstanceBlock(**ids), 0.01)


@pytest.mark.parametrize("bad", ["low", "high"])
def test_bad_negative_id_fails_before_the_forward_pass(bad):
    # a negative id of -1 or len(W_e) is rejected before any embedding is
    # gathered, not after the negatives' loop has run on a wrapped row
    params, block = random_setup(41, m=4, n=2, z=3)
    negatives = block.negatives.copy()
    negatives[2, 1] = -1 if bad == "low" else params.dims.num_entities
    block = InstanceBlock(block.ngrams, block.positives, negatives)
    with mock.patch.object(lse.model, "_gather_sum", wraps=lse.model._gather_sum) as gather:
        with pytest.raises(IndexError):
            batch_loss_and_gradients(params, block, 0.01)
    assert gather.call_count == 0


def test_adam_first_step_magnitude_near_alpha():
    params = zero_params(e_v=2, e_e=2, vocab=2, entities=2)
    state = AdamState(params)
    grads = Gradients(np.full((2, 2), 2.0), np.full((2, 2), -3.0),
                      np.full(2, 1.0), np.full((2, 2), 0.5), ids=np.arange(2))
    adam_step(params, grads, state)
    assert state.t == 1
    for name in PARAM_FIELDS:
        step = np.abs(getattr(params, name))
        assert np.all(step < 0.001 + 1e-12)
        assert np.all(step > 0.001 * (1 - 1e-4))
    assert np.all(params.W > 0)       # moves against the gradient sign
    assert np.all(params.W_v < 0)


def test_adam_two_steps_match_reference_formulas():
    params, block = random_setup(9)
    state = AdamState(params)
    ref = {n: getattr(params, n).copy() for n in FIELDS}
    m = {n: np.zeros_like(ref[n]) for n in FIELDS}
    v = {n: np.zeros_like(ref[n]) for n in FIELDS}
    for t in (1, 2):
        grads = batch_loss_and_gradients(ModelParams(**ref), block, 0.01)[1]
        dense = grads.dense(ModelParams(**ref))
        adam_step(params, grads, state)
        for n in FIELDS:
            g = getattr(dense, n)
            m[n] = 0.9 * m[n] + 0.1 * g
            v[n] = 0.999 * v[n] + 0.001 * g * g
            mhat = m[n] / (1 - 0.9 ** t)
            vhat = v[n] / (1 - 0.999 ** t)
            ref[n] = ref[n] - 0.001 * mhat / (np.sqrt(vhat) + 1e-8)
        # params were updated in place from the same gradients
        for n in FIELDS:
            assert np.allclose(getattr(params, n), ref[n], atol=1e-14, rtol=0)


def whole_array_adam_step(params, grads, state):
    """Adam over whole arrays at once: the bit-for-bit reference for the
    blocked update of adam_step."""
    state.t += 1
    b1c = 1.0 - state.beta1 ** state.t
    b2c = 1.0 - state.beta2 ** state.t
    for name in PARAM_FIELDS:
        g = getattr(grads, name)
        m = getattr(state.m, name)
        v = getattr(state.v, name)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        theta = getattr(params, name)
        theta -= state.alpha * (m / b1c) / (np.sqrt(v / b2c) + state.eps)
    return params, state


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_blocked_adam_is_bit_identical_to_whole_array(dtype):
    # Block buffers of two values hold one row of W_v (e_V = 3), seven
    # values two rows; each of the 21, 15, 5 and 15 values of W_v, W, b and
    # W_e spans several blocks and ends in a partial one. W_v's gradient is
    # the rows of all its ids, of one, of none in some blocks and of a
    # random set, the rest decay * theta: the update with it formed a block
    # at a time equals the update with its dense table. word_block forms
    # any range of rows of that table: the whole of it, rows 0-1 (no batch
    # id when the ids are [4]), rows 3-5 (a lo that no block of two rows
    # starts at) and the partial last block, row 6.
    dims = Dims(e_v=3, e_e=5, vocab_size=7, num_entities=3)
    for values, rows in ((2, 1), (7, 2)):
        params = init_params(dims, 41, dtype=dtype).copy()
        with mock.patch.object(lse.model, "_ADAM_BLOCK_BYTES",
                               values * np.dtype(dtype).itemsize):
            want, state, want_state = params.copy(), AdamState(params), AdamState(params)
        assert state.buffers.shape == (2, max(values, dims.e_v))
        assert len(state.buffers[1]) // dims.e_v == rows
        rng = np.random.default_rng(43)
        for ids in (np.arange(7), np.array([4]), np.array([0, 1, 6]),
                    np.flatnonzero(rng.random(7) < 0.5)):
            _, W, b, W_e = (rng.standard_normal(a.shape).astype(dtype) for a in params)
            grads = Gradients(rng.standard_normal((len(ids), 3)).astype(dtype), W, b, W_e,
                              ids=ids.astype(np.int32), decay=float(rng.uniform(0.5, 2)))
            dense = grads.dense(want)
            table = grads.decay * want.word_rows
            table[grads.ids] += grads.word_rows
            for lo, length in ((0, 7), (0, 2), (3, 3), (6, 1)):
                got = grads.word_block(want, lo, np.empty((length, 3), dtype=dtype))
                assert got.tobytes() == table[lo:lo + length].tobytes(), (lo, length)
            adam_step(params, grads, state)
            whole_array_adam_step(want, dense, want_state)
            assert state.t == want_state.t
            for name in PARAM_FIELDS:
                for got, ref in ((getattr(params, name), getattr(want, name)),
                                 (getattr(state.m, name), getattr(want_state.m, name)),
                                 (getattr(state.v, name), getattr(want_state.v, name))):
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name


def test_step_and_adam_reject_a_word_table_that_is_not_c_contiguous():
    # init_params' word_rows is a view of W_v's memory: its flat view would
    # be a copy, which would absorb an update
    view = init_params(Dims(e_v=4, e_e=3, vocab_size=6, num_entities=5), 37)
    block = random_setup(37)[1]
    assert not view.word_rows.flags.c_contiguous
    with pytest.raises(ValueError):
        batch_loss_and_gradients(view, block, 0.01)
    grads = batch_loss_and_gradients(view.copy(), block, 0.01)[1]
    with pytest.raises(ValueError):
        adam_step(view, grads, AdamState(view))
    # and so would a strided one
    params = zero_params(vocab=12)
    params.word_rows = params.word_rows[::2]
    with pytest.raises(ValueError):
        adam_step(params, grads, AdamState(params))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_step_fills_the_gradients_it_is_given(dtype):
    params, first = random_setup(47, m=2 * CHUNK + 5, z=4)
    params = cast_params(params, dtype)
    _, block = random_setup(53, m=2 * CHUNK + 5, z=4)
    with chunked(CHUNK, 4, params.dims.e_e, dtype):
        grads = batch_loss_and_gradients(params, first, 0.01)[1]
        before = {name: getattr(grads, name).copy() for name in PARAM_FIELDS}
        held = grads.word_rows.base                # the first step's block
        loss, got = batch_loss_and_gradients(params, block, 0.01, grads)
        want_loss, want = batch_loss_and_gradients(params, block, 0.01)
    assert got is grads and got.word_rows.base is held
    assert loss == want_loss
    assert not all(np.array_equal(before[name], getattr(got, name))
                   for name in PARAM_FIELDS)
    for name in PARAM_FIELDS:
        g, ref = getattr(got, name), getattr(want, name)
        assert g.dtype == ref.dtype and g.tobytes() == ref.tobytes(), name


def warm_float32_step(dims, m, n=4, z=10, seed=59):
    """C-contiguous float32 params as train holds them, a batch of uniform
    ids, and the Adam state and gradient buffers left by one step plus
    Adam on it."""
    rng = np.random.default_rng(seed)
    params = init_params(dims, rng, dtype=np.float32).copy()
    block = InstanceBlock(rng.integers(0, dims.vocab_size, size=(m, n), dtype=np.int32),
                          rng.integers(0, dims.num_entities, size=m, dtype=np.int32),
                          rng.integers(0, dims.num_entities, size=(m, z), dtype=np.int32))
    state = AdamState(params)
    grads = batch_loss_and_gradients(params, block, 0.01)[1]
    adam_step(params, grads, state)
    return params, block, state, grads


def step_and_adam(params, block, state, grads):
    batch_loss_and_gradients(params, block, 0.01, grads)
    adam_step(params, grads, state)


def test_training_step_memory_is_bounded():
    """Float32 steps plus Adam at the benchmark's train shape, on params as
    train holds them and each given the gradients of the step before. The
    W_v rows lie in their step's activation block of max(m e_E, u e_V) +
    u e_E values, and the next step reuses that block when it is large
    enough: a step then peaks 1.31 MiB of traced memory above its inputs
    (the 0.49 MiB block of the error G, the 0.25 MiB buffer of the
    negatives' rows, and the batch's coefficients). A batch of 2048 and
    then one of 4096 instances each need a larger block, 4.16 and then
    5.95 MiB: the step lets the smaller one go before it makes the next,
    so the two peak under 7.5 MiB (7.27 measured), where the two blocks
    alive at once would take them past 11.
    The negatives' buffer is freed before the W_e scatters' temporaries are
    made; kept alive, it took the two to 7.52 and the one to 1.56."""
    params, block, state = warm_float32_step(
        Dims(e_v=300, e_e=256, vocab_size=2000, num_entities=1024), m=4096)[:3]
    assert len(np.unique(block.ngrams)) < 4096

    def first(m):
        return InstanceBlock(block.ngrams[:m], block.positives[:m], block.negatives[:m])

    grads = batch_loss_and_gradients(params, first(1024), 0.01)[1]
    adam_step(params, grads, state)
    _, peak = traced_peak(lambda: [step_and_adam(params, first(m), state, grads)
                                   for m in (2048, 4096)])
    assert peak < 7.5 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"
    _, peak = traced_peak(lambda: step_and_adam(params, block, state, grads))
    assert peak < 1.5 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


def test_step_at_the_vocabulary_cap_allocates_nothing_vocabulary_sized():
    """At |V| = 65536, the cap of build-vocab, a float32 step plus Adam
    given no gradient buffers, with the gradient set it makes counted,
    stays within 0.75 MiB of traced memory above its inputs, under a
    fifth of W_v's 4 MiB (0.66 measured: the activation block of the
    batch's 2018 distinct words, which holds the W_v gradient's rows, and
    the buffer of the negatives' rows); the dense W_v gradient took it to
    4.67, and the squared norms' and token rows' |V|-sized temporaries once
    more."""
    dims = Dims(e_v=16, e_e=16, vocab_size=65536, num_entities=64)
    params, block, state = warm_float32_step(dims, m=512)[:3]

    def step_and_adam_from_nothing():
        grads = batch_loss_and_gradients(params, block, 0.01)[1]
        adam_step(params, grads, state)
        return grads

    grads, peak = traced_peak(step_and_adam_from_nothing)
    assert grads.word_rows.shape == (len(np.unique(block.ngrams)), dims.e_v)
    assert peak < 0.75 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


def test_adam_step_allocates_nothing():
    """adam_step writes its temporaries and each block of W_v's gradient
    into the state's two 64 KiB block buffers; two fresh 1 MiB buffers per
    call took it to 2 MiB."""
    params, _, state, grads = warm_float32_step(
        Dims(e_v=16, e_e=16, vocab_size=65536, num_entities=64), m=8)
    _, peak = traced_peak(lambda: adam_step(params, grads, state))
    assert peak < 128 * 2 ** 10, f"{peak / 2 ** 10:.1f} KiB"


def test_train_config_defaults():
    assert TrainConfig().as_dict() == {
        "e_v": 300, "e_e": 256, "n": 4, "z": 10, "m": 4096, "lambda": 0.01,
        "epochs": 15, "seed": 0, "precision": "float32",
        "validation_cutoff": 100,
    }


def test_train_config_file_round_trip(tmp_path):
    # every field off its default, so no key can be dropped or misnamed
    cfg = TrainConfig(e_v=16, e_e=8, n=3, z=5, m=64, weight_decay=0.5, epochs=2,
                      seed=9, precision="float64", validation_cutoff=20)
    defaults = TrainConfig().as_dict()
    assert all(value != defaults[key] for key, value in cfg.as_dict().items())
    path = tmp_path / "train.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in cfg.as_dict().items()))
    assert TrainConfig.from_file(path) == cfg


def test_train_config_parses_comments_and_lambda_key(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("# comment\n\nlambda = 0.25\nepochs = 3  # inline\n")
    cfg = TrainConfig.from_file(path)
    assert cfg.weight_decay == 0.25
    assert cfg.epochs == 3


def test_train_config_rejects_duplicate_and_unknown_keys(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("epochs = 3\nepochs = 4\n")
    with pytest.raises(DataError, match=":2: duplicate key 'epochs', first on line 1"):
        TrainConfig.from_file(path)
    # the field name is not a key when the field is renamed
    for line in ("bogus = 1", "weight_decay = 0.1"):
        path.write_text(f"seed = 1\n{line}\n")
        with pytest.raises(DataError, match=":2: unknown config key"):
            TrainConfig.from_file(path)
    path.write_text("seed = 1\nlambda = lots\n")
    with pytest.raises(DataError, match=":2: config key 'lambda' must be a number"):
        TrainConfig.from_file(path)
    path.write_text("seed = 1\nno equals sign\n")
    with pytest.raises(DataError, match=":2: expected key = value"):
        TrainConfig.from_file(path)


def test_train_config_validation(tmp_path):
    for count in ("epochs", "n", "z", "m"):
        with pytest.raises(DataError, match="must be positive"):
            TrainConfig(**{count: 0})
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(DataError, match=f"non-negative and finite, got {bad!r}"):
            TrainConfig(weight_decay=bad)
    path = tmp_path / "train.cfg"
    path.write_text("lambda = nan\n")
    with pytest.raises(DataError, match="train.cfg: weight decay must be non-negative "
                                        "and finite, got nan"):
        TrainConfig.from_file(path)
    with pytest.raises(DataError):
        TrainConfig(precision="float16")


def test_save_load_round_trip(tmp_path):
    params, _ = random_setup(13)
    path = tmp_path / "model.lse"
    save_model(path, params, vocab_sha256="abc", entity_ids=entity_names(params),
               config={"seed": 3})
    loaded, header = load_model(path)
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(loaded, name), getattr(params, name))
    assert header["vocab_sha256"] == "abc"
    assert header["entity_ids"] == ["e0", "e1", "e2", "e3", "e4"]
    assert header["config"] == {"seed": 3}
    meta = json.loads((tmp_path / "model.lse.meta.json").read_text())
    assert meta == header


def test_save_is_byte_stable(tmp_path):
    params, _ = random_setup(14)
    a = tmp_path / "a.lse"
    b = tmp_path / "b.lse"
    save_model(a, params, vocab_sha256="x", entity_ids=["e"])
    save_model(b, params, vocab_sha256="x", entity_ids=["e"])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_save_writes_a_trained_w_v_in_blocks(tmp_path, dtype):
    """A trained model's W_v, the transpose of its C-contiguous word_rows,
    is written in blocks of rows: the file equals that of init_params' view,
    whose W_v is C-contiguous, and at the benchmark's train shape the save
    peaks under 0.35 MiB of traced memory (0.27 measured: one 256 KiB
    block; 1 MiB blocks peaked under 1.1), where copying the float32 W_v
    whole took 2.3 MiB."""
    dims = Dims(e_v=300, e_e=256, vocab_size=2000, num_entities=1024)
    params = init_params(dims, 71, dtype=dtype)
    trained, names = params.copy(), entity_names(params)
    save_model(tmp_path / "view.lse", params, entity_ids=names)
    _, peak = traced_peak(lambda: save_model(tmp_path / "c.lse", trained, entity_ids=names))
    assert (tmp_path / "c.lse").read_bytes() == (tmp_path / "view.lse").read_bytes()
    assert peak < 0.35 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


def test_failed_save_leaves_no_partial_or_temporary_file(tmp_path):
    params, _ = random_setup(18)
    path = tmp_path / "model.lse"
    # b cannot be converted to float64, so the write fails after W_v and W
    # have gone to disk.
    broken = ModelParams(params.word_rows, params.W, np.array([object()] * 3),
                         params.W_e)
    with pytest.raises(TypeError):
        save_model(path, broken, entity_ids=entity_names(params))
    assert list(tmp_path.iterdir()) == []
    save_model(path, params, entity_ids=entity_names(params))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save_model(path, broken, entity_ids=entity_names(params))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.lse",
                                                          "model.lse.meta.json"]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.lse"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 16)
    with pytest.raises(DataError, match="not a model container"):
        load_model(path)


def test_load_rejects_truncated_and_padded(tmp_path):
    params, _ = random_setup(15)
    path = tmp_path / "model.lse"
    save_model(path, params, entity_ids=entity_names(params))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_model(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(DataError, match="trailing bytes"):
        load_model(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_values(tmp_path, dtype, bad):
    dims = Dims(e_v=4, e_e=3, vocab_size=6, num_entities=40)
    params = cast_params(random_setup(19, dims=dims)[0], dtype)
    path = tmp_path / "model.lse"
    for i in (0, 61, params.W_e.size - 1):
        broken = params.copy()
        broken.W_e.reshape(-1)[i] = bad
        save_model(path, broken, entity_ids=entity_names(params))
        with pytest.raises(DataError, match="array W_e holds a non-finite value"):
            load_model(path)


@pytest.mark.parametrize("dtype, big, limit", [(np.float32, 1e20, "8.25e+18"),
                                               (np.float64, 1e160, "6e+153")])
def test_load_rejects_values_that_scoring_in_their_dtype_overflows(tmp_path, dtype, big,
                                                                    limit):
    # the limit is sqrt(largest / (max(e_v, e_e) + 1)); the squared norm of a
    # row holding big overflows, and a row holding big / 1e7 is scored
    params = cast_params(random_setup(19)[0], dtype)
    path = tmp_path / "model.lse"
    for value in (big, -big):
        params.W_e[1, 2] = value
        save_model(path, params, entity_ids=entity_names(params))
        with pytest.raises(DataError, match=re.escape(f"array W_e holds a value beyond {limit}")):
            load_model(path)
    params.W_e[1, 2] = big / 1e7
    save_model(path, params, entity_ids=entity_names(params))
    assert np.isfinite(np.linalg.norm(load_model(path)[0].W_e, axis=1)).all()


def test_save_load_keeps_each_container_in_its_own_dtype(tmp_path):
    params, _ = random_setup(16)
    params32 = cast_params(params, np.float32)
    path32, path64 = tmp_path / "model32.lse", tmp_path / "model64.lse"
    save_model(path32, params32, entity_ids=entity_names(params))
    save_model(path64, params, entity_ids=entity_names(params))
    array_bytes = sum(getattr(params, name).nbytes for name in PARAM_FIELDS)
    # the headers differ only in the dtype's name, which is as long
    assert path64.stat().st_size - path32.stat().st_size == array_bytes // 2
    for path, saved, dtype in ((path32, params32, "float32"), (path64, params, "float64")):
        loaded, header = load_model(path)
        assert header["dtype"] == dtype and loaded.dtype == np.dtype(dtype)
        for name in PARAM_FIELDS:
            got, want = getattr(loaded, name), getattr(saved, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_loading_a_float32_model_holds_its_arrays_once(tmp_path):
    """load_model reads each array straight into the one it returns, so a
    float32 container's traced peak is its arrays and little else; a float64
    copy would take it to at least twice their bytes."""
    dims = Dims(e_v=32, e_e=16, vocab_size=20000, num_entities=100)
    params = init_params(dims, 61, dtype=np.float32)
    path = tmp_path / "model.lse"
    save_model(path, params, entity_ids=entity_names(params))
    array_bytes = sum(getattr(params, name).nbytes for name in PARAM_FIELDS)
    (loaded, _), peak = traced_peak(lambda: load_model(path))
    assert peak < 1.25 * array_bytes, (peak, array_bytes)
    assert loaded.dtype == np.float32
