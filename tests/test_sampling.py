"""Epoch sampling: budgets, negatives, determinism, batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lse.errors import DataError
from lse.sampling import (InstanceBlock, SamplerConfig, make_batches,
                          ngrams_per_entity_per_epoch, sample_epoch)

from conftest import build_separable_corpus, documents, make_corpus


def corpus_with_lengths(lengths, owners):
    return make_corpus([(owner, np.arange(length))
                        for length, owner in zip(lengths, owners)])


def oracle_sample_epoch(corpus, config, rng):
    """Reference sampler: gathers each entity's start positions document by
    document through an entity -> documents map, then makes sample_epoch's
    generator calls in the same order."""
    n, z = config.n, config.z
    docs = list(documents(corpus))
    lengths = np.array([len(toks) for _, toks in docs], dtype=np.int64)
    total = sum(max(length - n + 1, 0) for length in lengths.tolist())
    budget = -(-total // corpus.num_entities)
    if budget == 0:
        raise DataError("window larger than all documents")
    owned = {i: [] for i in range(corpus.num_entities)}
    for j, (entity, _) in enumerate(docs):
        owned[entity].append(j)

    offsets = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    tokens_flat = np.concatenate([toks for _, toks in docs])
    eligible = np.maximum(lengths - n + 1, 0)

    entity_codes = []
    for i in range(corpus.num_entities):
        parts = [offsets[j] + np.arange(eligible[j], dtype=np.int64)
                 for j in owned[i] if eligible[j] > 0]
        entity_codes.append(np.concatenate(parts) if parts
                            else np.empty(0, dtype=np.int64))

    starts_parts = []
    pos_parts = []
    skipped = []
    for i in range(corpus.num_entities):
        codes = entity_codes[i]
        if len(codes) == 0:
            skipped.append(i)
            continue
        picks = rng.integers(0, len(codes), size=budget)
        starts_parts.append(codes[picks])
        pos_parts.append(np.full(budget, i, dtype=np.int32))

    starts = np.concatenate(starts_parts)
    positives = np.concatenate(pos_parts)
    count = len(starts)
    negatives = rng.integers(0, corpus.num_entities, size=(count, z)).astype(np.int32)
    perm = rng.permutation(count)

    starts = starts[perm]
    ngrams = tokens_flat[starts[:, None] + np.arange(n)]
    return InstanceBlock(ngrams, positives[perm], negatives[perm], skipped)


def test_budget_rounds_up_over_entities():
    corpus = corpus_with_lengths([5, 3, 1], ["e1", "e2", "e2"])
    assert ngrams_per_entity_per_epoch(corpus, 4) == 1


def test_budget_counts_all_positions():
    corpus = corpus_with_lengths([10, 6], ["e1", "e2"])
    # positions: (10-3+1) + (6-3+1) = 12 over 2 entities
    assert ngrams_per_entity_per_epoch(corpus, 3) == 6


def test_sample_epoch_rejects_oversized_window():
    corpus = corpus_with_lengths([3, 2], ["e1", "e2"])
    with pytest.raises(DataError, match="window larger than all documents"):
        sample_epoch(corpus, SamplerConfig(n=4, z=2, m=8), np.random.default_rng(0))


def test_sample_epoch_gives_each_entity_its_budget():
    corpus, _ = build_separable_corpus(num_entities=4, docs_per=3, doc_len=10)
    config = SamplerConfig(n=4, z=3, m=16)
    block = sample_epoch(corpus, config, np.random.default_rng(1))
    budget = ngrams_per_entity_per_epoch(corpus, 4)
    counts = np.bincount(block.positives, minlength=4)
    assert counts.tolist() == [budget] * 4
    assert len(block) == budget * 4


def test_sample_epoch_ngrams_are_contiguous_entity_text():
    corpus, _ = build_separable_corpus(num_entities=3, words_per=10, docs_per=2,
                                       doc_len=8)
    block = sample_epoch(corpus, SamplerConfig(n=4, z=2, m=8),
                         np.random.default_rng(2))
    for ngram, positive in zip(block.ngrams.tolist(), block.positives.tolist()):
        lo = positive * 10
        assert all(lo <= t < lo + 10 for t in ngram)
        found = False
        for j in np.flatnonzero(corpus.doc_entity == positive):
            toks = corpus.tokens[corpus.doc_ptr[j]:corpus.doc_ptr[j + 1]].tolist()
            for s in range(len(toks) - 3):
                if toks[s:s + 4] == ngram:
                    found = True
        assert found


def test_sample_epoch_negatives_unfiltered_and_in_range():
    corpus, _ = build_separable_corpus(num_entities=2, docs_per=2, doc_len=12)
    block = sample_epoch(corpus, SamplerConfig(n=4, z=10, m=8),
                         np.random.default_rng(3))
    assert block.negatives.shape[1] == 10
    assert block.negatives.min() >= 0 and block.negatives.max() < 2
    # uniform draws over 2 entities must hit the positive sometimes
    assert np.any(block.negatives == block.positives[:, None])


def test_sample_epoch_deterministic_per_seed():
    corpus, _ = build_separable_corpus(num_entities=3, docs_per=2, doc_len=10)
    config = SamplerConfig(n=2, z=3, m=8)
    a = sample_epoch(corpus, config, np.random.default_rng(7))
    b = sample_epoch(corpus, config, np.random.default_rng(7))
    c = sample_epoch(corpus, config, np.random.default_rng(8))
    assert np.array_equal(a.ngrams, b.ngrams)
    assert np.array_equal(a.positives, b.positives)
    assert np.array_equal(a.negatives, b.negatives)
    assert not (np.array_equal(a.ngrams, c.ngrams)
                and np.array_equal(a.positives, c.positives))


def test_sample_epoch_shuffles_instances():
    corpus, _ = build_separable_corpus(num_entities=4, docs_per=3, doc_len=12)
    block = sample_epoch(corpus, SamplerConfig(n=3, z=2, m=8),
                         np.random.default_rng(5))
    assert not np.all(np.diff(block.positives) >= 0)


def test_sample_epoch_skips_entities_without_positions():
    corpus = corpus_with_lengths([6, 6, 2], ["e1", "e2", "e3"])
    block = sample_epoch(corpus, SamplerConfig(n=4, z=2, m=8),
                         np.random.default_rng(0))
    assert block.skipped_entities == (2,)
    assert set(np.unique(block.positives)) == {0, 1}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sample_epoch_equals_the_per_document_oracle(data):
    num_entities = data.draw(st.integers(1, 5), label="entities")
    # Owners interleave; a document may be empty or shorter than the window,
    # and an entity may own no document at all.
    docs = data.draw(st.lists(st.tuples(st.integers(0, num_entities - 1),
                                        st.lists(st.integers(0, 9), max_size=8)),
                              min_size=1, max_size=10), label="documents")
    entities = [f"e{i}" for i in range(num_entities)]
    corpus = make_corpus([(entities[e], toks) for e, toks in docs], entities)
    config = SamplerConfig(n=data.draw(st.integers(1, 4), label="n"),
                           z=data.draw(st.integers(1, 3), label="z"), m=8)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    try:
        expected = oracle_sample_epoch(corpus, config, np.random.default_rng(seed))
    except DataError:
        with pytest.raises(DataError, match="window larger than all documents"):
            sample_epoch(corpus, config, np.random.default_rng(seed))
        return
    got = sample_epoch(corpus, config, np.random.default_rng(seed))
    for name in ("ngrams", "positives", "negatives"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert got.skipped_entities == expected.skipped_entities


def test_instance_block_sequence_protocol():
    block = InstanceBlock(np.array([[1, 2], [3, 4]]), np.array([0, 1]),
                          np.array([[1], [0]]))
    assert len(block) == 2
    sub = block[1:]
    assert isinstance(sub, InstanceBlock)
    assert len(sub) == 1
    assert sub.ngrams.tolist() == [[3, 4]]
    assert sub.positives.tolist() == [1]
    assert sub.negatives.tolist() == [[0]]


def test_make_batches_sizes_and_final_partial():
    block = InstanceBlock(np.zeros((7, 2)), np.zeros(7), np.zeros((7, 3)))
    batches = make_batches(block, 3)
    assert [len(b) for b in batches] == [3, 3, 1]




def test_sampler_config_validation():
    with pytest.raises(DataError):
        SamplerConfig(n=0, z=1, m=1)
    with pytest.raises(DataError):
        SamplerConfig(n=1, z=0, m=1)
    with pytest.raises(DataError):
        SamplerConfig(n=1, z=1, m=0)
