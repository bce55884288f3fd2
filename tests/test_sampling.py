"""Epoch sampling: budgets, negatives, determinism, batching."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lse.errors import DataError, SizeError
from lse.sampling import (InstanceBlock, SamplerConfig, ngrams_per_entity_per_epoch,
                          sample_epoch)
from lse.text import Corpus

from conftest import build_separable_corpus, documents, make_corpus, traced_peak


def corpus_with_lengths(lengths, owners):
    return make_corpus([(owner, np.arange(length))
                        for length, owner in zip(lengths, owners)])


def concatenated(batches):
    """The batches of an epoch as one InstanceBlock, in the order given."""
    return InstanceBlock(*(np.concatenate([getattr(b, name) for b in batches])
                           for name in ("ngrams", "positives", "negatives")))


def sampled(corpus, config, seed):
    """sample_epoch's instances, all in one InstanceBlock."""
    return concatenated(sample_epoch(corpus, config, np.random.default_rng(seed)))


def oracle_sample_epoch(corpus, config, rng):
    """Reference sampler: gathers each entity's start positions document by
    document through an entity -> documents map, then makes sample_epoch's
    generator calls in the same order: the starts, the permutation, and
    each batch's negatives from the generator's first spawned child.
    Returns the whole shuffled epoch as one InstanceBlock and the skipped
    entities."""
    n, z, m = config.n, config.z, config.m
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
    perm = rng.permutation(count)
    child = rng.spawn(1)[0]
    negatives = np.concatenate([child.integers(0, corpus.num_entities, size=(size, z))
                                for size in np.diff(np.r_[0:count:m, count])])

    starts = starts[perm]
    ngrams = tokens_flat[starts[:, None] + np.arange(n)]
    return InstanceBlock(ngrams, positives[perm], negatives), tuple(skipped)


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
    block = sampled(corpus, config, 1)
    budget = ngrams_per_entity_per_epoch(corpus, 4)
    counts = np.bincount(block.positives, minlength=4)
    assert counts.tolist() == [budget] * 4
    assert len(block.positives) == budget * 4


def test_sample_epoch_ngrams_are_contiguous_entity_text():
    corpus, _ = build_separable_corpus(num_entities=3, words_per=10, docs_per=2,
                                       doc_len=8)
    block = sampled(corpus, SamplerConfig(n=4, z=2, m=8), 2)
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
    block = sampled(corpus, SamplerConfig(n=4, z=10, m=8), 3)
    assert block.negatives.shape[1] == 10
    assert block.negatives.min() >= 0 and block.negatives.max() < 2
    # uniform draws over 2 entities must hit the positive sometimes
    assert np.any(block.negatives == block.positives[:, None])


def test_sample_epoch_deterministic_per_seed():
    corpus, _ = build_separable_corpus(num_entities=3, docs_per=2, doc_len=10)
    config = SamplerConfig(n=2, z=3, m=8)
    a, b, c = (sampled(corpus, config, seed) for seed in (7, 7, 8))
    assert np.array_equal(a.ngrams, b.ngrams)
    assert np.array_equal(a.positives, b.positives)
    assert np.array_equal(a.negatives, b.negatives)
    assert not (np.array_equal(a.ngrams, c.ngrams)
                and np.array_equal(a.positives, c.positives))


def test_sample_epoch_shuffles_instances():
    corpus, _ = build_separable_corpus(num_entities=4, docs_per=3, doc_len=12)
    block = sampled(corpus, SamplerConfig(n=3, z=2, m=8), 5)
    assert not np.all(np.diff(block.positives) >= 0)


def test_sample_epoch_skips_entities_without_positions():
    corpus = corpus_with_lengths([6, 6, 2], ["e1", "e2", "e3"])
    epoch = sample_epoch(corpus, SamplerConfig(n=4, z=2, m=8), np.random.default_rng(0))
    assert epoch.skipped_entities == (2,)
    assert set(np.unique(concatenated(epoch).positives)) == {0, 1}


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
    m = data.draw(st.integers(1, 8), label="m")
    config = SamplerConfig(n=data.draw(st.integers(1, 4), label="n"),
                           z=data.draw(st.integers(1, 3), label="z"), m=m)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    try:
        expected, skipped = oracle_sample_epoch(corpus, config,
                                                np.random.default_rng(seed))
    except DataError:
        with pytest.raises(DataError, match="window larger than all documents"):
            sample_epoch(corpus, config, np.random.default_rng(seed))
        return
    epoch = sample_epoch(corpus, config, np.random.default_rng(seed))
    batches = list(epoch)
    count = len(expected.positives)
    assert len(epoch) == count
    assert ([len(b.positives) for b in batches]
            == [m] * (count // m) + [count % m] * (count % m > 0))
    got = concatenated(batches)
    for name in ("ngrams", "positives", "negatives"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert epoch.skipped_entities == skipped


def test_make_batches_sizes_and_final_partial():
    corpus = corpus_with_lengths([7], ["e1"])
    epoch = sample_epoch(corpus, SamplerConfig(n=1, z=2, m=3), np.random.default_rng(0))
    batches = list(epoch)
    assert len(epoch) == 7
    assert [len(b.positives) for b in batches] == [3, 3, 1]
    for b in batches:
        assert isinstance(b, InstanceBlock)
        m = len(b.positives)
        assert b.ngrams.shape == (m, 1) and b.negatives.shape == (m, 2)


@pytest.mark.parametrize("size", [1, 3, 100001, 1_000_000])
def test_int32_draws_equal_int64_draws_and_leave_the_same_stream(size):
    """sample_epoch draws its negatives as int32 and must keep the values and
    the generator state of the default int64 draw. That is NumPy behaviour,
    not a documented promise, so it is pinned here."""
    for hi in (1, 2, 3, 7, 255, 256, 257, 10000, 65535, 65536, 65537, 2**24 + 1,
               2**30, 2**31 - 1):
        wide, narrow = np.random.default_rng(hi), np.random.default_rng(hi)
        a = wide.integers(0, hi, size)
        b = narrow.integers(0, hi, size, dtype=np.int32)
        assert b.dtype == np.int32
        assert np.array_equal(a, b), hi
        assert wide.bit_generator.state == narrow.bit_generator.state, hi


def test_starts_are_int64_from_2_31_tokens_on_with_the_same_batches():
    corpus, _ = build_separable_corpus(num_entities=3, docs_per=2, doc_len=10)

    class Huge(Corpus):
        total_tokens = 2**31

    huge = Huge(**{f.name: getattr(corpus, f.name) for f in dataclasses.fields(corpus)})
    config = SamplerConfig(n=3, z=2, m=4)
    narrow, wide = (sample_epoch(c, config, np.random.default_rng(4)) for c in (corpus, huge))
    assert (narrow.starts.dtype, wide.starts.dtype) == (np.int32, np.int64)
    for a, b in zip(narrow, wide, strict=True):
        for name in ("ngrams", "positives", "negatives"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_epoch_iterates_to_the_same_batches_twice():
    """Each walk of an Epoch draws the negatives afresh from the same seed
    sequence, so a second walk yields the same bytes; the negatives are
    int32 entity indices."""
    corpus, _ = build_separable_corpus(num_entities=5, docs_per=3, doc_len=12)
    epoch = sample_epoch(corpus, SamplerConfig(n=3, z=4, m=7), np.random.default_rng(6))
    first, second = list(epoch), list(epoch)
    assert len(first) == -(-len(epoch) // 7) > 1
    for a, b in zip(first, second, strict=True):
        for name in ("ngrams", "positives", "negatives"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.negatives.dtype == np.int32 and a.negatives.shape == (len(a.positives), 4)
        assert 0 <= a.negatives.min() and a.negatives.max() < corpus.num_entities


@pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 256, 4097, 65537, 1_000_003])
def test_shuffled_int32_range_equals_the_permutation(size):
    """sample_epoch shuffles an int32 arange in place where the oracle takes
    rng.permutation's int64 array: the same values from the same draws,
    leaving the generator in the same state. That is NumPy behaviour, not a
    documented promise, so it is pinned here."""
    whole, shuffled = np.random.default_rng(size), np.random.default_rng(size)
    expected = whole.permutation(size)
    got = np.arange(size, dtype=np.int32)
    shuffled.shuffle(got)
    assert np.array_equal(got, expected)
    assert whole.bit_generator.state == shuffled.bit_generator.state


def test_epoch_memory_per_instance_is_bounded():
    """Sampling an epoch and walking all its batches holds the start
    positions and the permutation, not a copy of every instance nor every
    instance's negatives: the traced peak stays under 12 B per instance
    (n = 4, z = 10; 9.5 measured). It was 16.9 while the start positions
    were built in int64 and the permutation drawn as an int64 array, and
    52.9 when the epoch also held the negatives."""
    rng = np.random.default_rng(0)
    num_entities, num_docs = 10000, 20000
    owners = np.concatenate([np.arange(num_entities),
                             rng.integers(0, num_entities, num_docs - num_entities)])
    corpus = make_corpus([(owner, rng.integers(0, 5000, size=length))
                          for owner, length in zip(owners.tolist(),
                                                   rng.integers(1, 100, num_docs).tolist())],
                         list(range(num_entities)))
    assert 900_000 < corpus.total_tokens < 1_100_000
    def walk():
        epoch = sample_epoch(corpus, SamplerConfig(n=4, z=10, m=4096), np.random.default_rng(1))
        return epoch, sum(len(batch.positives) for batch in epoch)

    (epoch, walked), peak = traced_peak(walk)
    assert walked == len(epoch) > 800_000
    assert peak / len(epoch) < 12, f"{peak / len(epoch):.1f} B per instance"


@pytest.mark.parametrize("sizes, fields", [(dict(n=4, z=10 ** 30, m=8), "m and z"),
                                           (dict(n=10 ** 30, z=10, m=8), "m and n")])
def test_sampler_config_rejects_batches_numpy_cannot_allocate(sizes, fields):
    with pytest.raises(SizeError, match=f"^{fields}: an array of "):
        SamplerConfig(**sizes)
    SamplerConfig(n=4, z=10 ** 16, m=8)                # 8e16 values are not refused
