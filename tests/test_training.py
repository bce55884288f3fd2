"""Training loop behavior: determinism, epoch selection, and the log file."""

import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import lse.training
from conftest import build_separable_corpus, separable_topics
from lse.errors import DataError, LSEError
from lse.evaluation import Qrels
from lse.model import PARAM_FIELDS, ModelParams, TrainConfig, batch_loss_and_gradients
from lse.text import encode_topics
from lse.training import EpochLog, train, write_epoch_log


def tiny_config(**overrides):
    base = dict(e_v=8, e_e=4, n=3, z=3, m=16, epochs=3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_separable_corpus(num_entities=4, words_per=6, docs_per=3,
                                  doc_len=12, seed=5)


def test_train_logs_every_epoch_and_loss_is_finite(tiny_corpus):
    corpus, vocab = tiny_corpus
    result = train(corpus, vocab, tiny_config())
    assert [e.epoch for e in result.log] == [1, 2, 3]
    assert all(np.isfinite(e.mean_batch_loss) for e in result.log)
    assert all(e.wall_seconds >= 0 for e in result.log)
    assert all(e.validation_ndcg is None for e in result.log)


def test_train_is_deterministic(tiny_corpus):
    corpus, vocab = tiny_corpus
    a = train(corpus, vocab, tiny_config())
    b = train(corpus, vocab, tiny_config())
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(a.params, name), getattr(b.params, name))
    assert [e.mean_batch_loss for e in a.log] == [e.mean_batch_loss for e in b.log]


def test_train_stops_on_non_finite_gradient(tiny_corpus, monkeypatch):
    # Each epoch of tiny_corpus has 120 instances, 8 batches of m = 16, so
    # the tenth step is the second batch of the second epoch.
    corpus, vocab = tiny_corpus
    calls = []

    def poisoned(params, batch, weight_decay, out=None):
        loss, grads = batch_loss_and_gradients(params, batch, weight_decay, out)
        calls.append(len(batch.positives))
        if len(calls) == 10:
            grads.W_e[0, 0] = np.inf
        return loss, grads

    monkeypatch.setattr(lse.training, "batch_loss_and_gradients", poisoned)
    with pytest.raises(LSEError, match="non-finite W_e gradient at epoch 2, "
                                       "batch 2$"):
        train(corpus, vocab, tiny_config())
    assert len(calls) == 10


def test_train_fills_one_gradient_set_on_every_step(tiny_corpus, monkeypatch):
    corpus, vocab = tiny_corpus
    given = []

    def step(params, batch, weight_decay, out=None):
        given.append(out)
        return batch_loss_and_gradients(params, batch, weight_decay, out)

    monkeypatch.setattr(lse.training, "batch_loss_and_gradients", step)
    train(corpus, vocab, tiny_config())
    assert len(given) == 24 and given[0] is None and given[1] is not None
    assert all(out is given[1] for out in given[1:])


def test_train_lets_each_epoch_go_before_drawing_the_next(tiny_corpus, monkeypatch):
    """An epoch's draws are the largest thing training holds, so two epochs'
    worth must never be alive at once."""
    corpus, vocab = tiny_corpus
    drawn = []
    original = lse.training.sample_epoch

    def sample_epoch(*args):
        assert all(ref() is None for ref in drawn), "the previous epoch is still held"
        epoch = original(*args)
        drawn.append(weakref.ref(epoch))
        return epoch

    monkeypatch.setattr(lse.training, "sample_epoch", sample_epoch)
    result = train(corpus, vocab, tiny_config())
    assert len(drawn) == 3 and result.skipped_entities == ()


def test_train_seed_changes_the_run(tiny_corpus):
    corpus, vocab = tiny_corpus
    a = train(corpus, vocab, tiny_config())
    b = train(corpus, vocab, tiny_config(seed=1))
    assert not np.array_equal(a.params.W_v, b.params.W_v)


def test_train_float32_keeps_dtype(tiny_corpus):
    corpus, vocab = tiny_corpus
    result = train(corpus, vocab, tiny_config(precision="float32"))
    for name in PARAM_FIELDS:
        assert getattr(result.params, name).dtype == np.float32


def test_train_without_validation_returns_last_epoch(tiny_corpus):
    corpus, vocab = tiny_corpus
    config = tiny_config()
    result = train(corpus, vocab, config)
    assert result.best_epoch == config.epochs


def test_train_validation_selects_best_epoch():
    corpus, vocab = build_separable_corpus()
    all_topics, all_qrels = separable_topics()
    topics = {tid: q for tid, q in all_topics.items() if tid.startswith("s")}
    qrels = Qrels({tid: rel for tid, rel in all_qrels.items() if tid.startswith("s")})
    config = TrainConfig(e_v=32, e_e=16, n=4, z=5, m=64, epochs=4, seed=0)
    result = train(corpus, vocab, config, encode_topics(topics, vocab), qrels)
    ndcgs = [e.validation_ndcg for e in result.log]
    assert all(v is not None for v in ndcgs)
    best = max(ndcgs)
    assert result.best_epoch == ndcgs.index(best) + 1  # tie goes to earlier
    assert result.params.word_rows.flags.c_contiguous  # the kept copy


def scripted_validation(monkeypatch, corpus, ndcgs):
    """Validation arguments for train whose epochs score ndcgs in turn, and
    the list of every ModelParams copy made meanwhile."""
    scores = iter(ndcgs)
    monkeypatch.setattr(lse.training, "evaluate_run", lambda runs, qrels, cutoff, ks:
                        SimpleNamespace(means={f"ndcg@{cutoff}": next(scores)}))
    copies = []
    copy = ModelParams.copy

    def counted(params):
        copies.append(copy(params))
        return copies[-1]

    monkeypatch.setattr(ModelParams, "copy", counted)
    return ({"t": [0]}, Qrels({"t": {corpus.entities[0]}})), copies


def same_bytes(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in PARAM_FIELDS)


def test_train_keeps_an_earlier_best_epoch_in_one_copy(tiny_corpus, monkeypatch):
    # epochs 1 and 2 improve, 3 and 4 do not: epoch 1 is copied once, and
    # epoch 2 overwrites that copy, which holds epoch 2's parameters
    corpus, vocab = tiny_corpus
    want = train(corpus, vocab, tiny_config(epochs=2)).params
    validation, copies = scripted_validation(monkeypatch, corpus, [0.5, 0.9, 0.7, 0.3])
    result = train(corpus, vocab, tiny_config(epochs=4), *validation)
    assert result.best_epoch == 2 and len(copies) == 1 and result.params is copies[0]
    assert same_bytes(result.params, want)


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_returns_a_last_epoch_winner_without_copying(tiny_corpus, monkeypatch,
                                                           epochs):
    # every epoch improves: a one-epoch run copies nothing, and a longer one
    # returns the trained parameters, not the copy of an earlier epoch
    corpus, vocab = tiny_corpus
    want = train(corpus, vocab, tiny_config(epochs=epochs)).params
    validation, copies = scripted_validation(monkeypatch, corpus, [0.1, 0.2, 0.3])
    result = train(corpus, vocab, tiny_config(epochs=epochs), *validation)
    assert result.best_epoch == epochs and len(copies) == min(1, epochs - 1)
    assert all(result.params is not copy for copy in copies)
    assert same_bytes(result.params, want)


@pytest.mark.parametrize("field", ["e_v", "e_e", "z"])
def test_train_refuses_sizes_numpy_cannot_allocate_before_drawing(tiny_corpus,
                                                                  monkeypatch, field):
    def unreachable(*_args, **_kwargs):
        raise AssertionError("train drew parameters before checking their sizes")

    corpus, vocab = tiny_corpus
    monkeypatch.setattr(lse.training, "init_params", unreachable)
    with pytest.raises(DataError, match=f"{field}.*: an array of .* more than NumPy"):
        train(corpus, vocab, tiny_config(**{field: 10 ** 30}))


def test_train_with_a_batch_larger_than_an_epoch_takes_the_epoch(tiny_corpus):
    # tiny_corpus has 120 instances an epoch: m = 10**30 is one batch of
    # them, as m = 120 is, though an (m, z) block could never be allocated
    corpus, vocab = tiny_corpus
    a = train(corpus, vocab, tiny_config(m=10 ** 30))
    b = train(corpus, vocab, tiny_config(m=120))
    assert same_bytes(a.params, b.params)
    assert [e.mean_batch_loss for e in a.log] == [e.mean_batch_loss for e in b.log]


def test_train_all_oov_validation_falls_back_to_last_epoch(tiny_corpus):
    corpus, vocab = tiny_corpus
    qrels = Qrels({"t": {"e0"}})
    queries = encode_topics({"t": "zzz"}, vocab)
    assert queries == {"t": []}
    result = train(corpus, vocab, tiny_config(), queries, qrels)
    assert result.best_epoch == tiny_config().epochs
    assert all(e.validation_ndcg is None for e in result.log)


def test_progress_callback_sees_each_epoch(tiny_corpus):
    corpus, vocab = tiny_corpus
    seen = []
    train(corpus, vocab, tiny_config(), progress=seen.append)
    assert [e.epoch for e in seen] == [1, 2, 3]


def test_write_epoch_log_format(tmp_path):
    logs = [EpochLog(1, 0.5, None, 0.125), EpochLog(2, 0.25, 1.0, 0.0625)]
    path = tmp_path / "epochs.csv"
    write_epoch_log(path, logs)
    assert path.read_text() == (
        "epoch,mean_batch_loss,validation_ndcg,wall_seconds\n"
        "1,0.5,,0.125\n"
        "2,0.25,1.0,0.0625\n")
