"""Per-epoch training instances: n-grams with a positive entity and z
uniformly sampled negatives, under a stratified per-entity budget."""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SizeError


@dataclass(frozen=True)
class SamplerConfig:
    """Window length n, negatives per instance z and the batch size m of an epoch."""

    n: int
    z: int
    m: int

    def __post_init__(self):
        # a batch's (m, z) negatives and (m, n) n-grams
        SizeError.check(vars(self), ("m", "z"), ("m", "n"))


class InstanceBlock:
    """One batch of instances: int32 ngrams (M, n), positives (M,), negatives (M, z)."""

    def __init__(self, ngrams, positives, negatives):
        self.ngrams = np.asarray(ngrams, dtype=np.int32)
        self.positives = np.asarray(positives, dtype=np.int32)
        self.negatives = np.asarray(negatives, dtype=np.int32)


@dataclass(frozen=True, eq=False)
class Epoch:
    """One shuffled epoch held as drawn: the instances' starts in tokens,
    where row r is entity kept[r // budget], and the shuffle permutation.
    Each walk yields the same shuffled InstanceBlock batches of m (the last
    partial), negatives drawn anew on negative_seed; len counts instances."""

    windows: np.ndarray  # a read-only (len(tokens) - n + 1, n) view of tokens
    config: SamplerConfig
    num_entities: int
    kept: np.ndarray  # int32, the entities with a start position, ascending
    budget: int
    starts: np.ndarray  # int32 (int64 from 2**31 tokens on), in draw order
    perm: np.ndarray  # in the starts' dtype
    negative_seed: np.random.SeedSequence
    skipped_entities: tuple  # the entities with no start position

    def __len__(self):
        return len(self.perm)

    def __iter__(self):
        rng = np.random.default_rng(self.negative_seed)
        m, z = self.config.m, self.config.z
        for rows in np.split(self.perm, range(m, len(self.perm), m)):
            yield InstanceBlock(self.windows[self.starts[rows]],
                                self.kept[rows // self.budget],
                                rng.integers(0, self.num_entities, (len(rows), z), np.int32))


def _eligible(corpus, n):
    """Number of n-gram start positions in each document (n capped to fit int64)."""
    return np.maximum(np.diff(corpus.doc_ptr) - min(n, corpus.total_tokens + 1) + 1, 0)


def ngrams_per_entity_per_epoch(corpus, n):
    """Per-entity sample budget: ceil of (total eligible n-gram positions) / |X|."""
    return -(-int(_eligible(corpus, n).sum()) // corpus.num_entities)


def sample_epoch(corpus, config, rng):
    """Draw one epoch of training instances.

    Every entity with at least one eligible n-gram position contributes
    exactly B instances (B = the per-entity budget), positions drawn
    uniformly over its (document, start) pairs with replacement. Each
    instance gets z negatives drawn uniformly with replacement from all
    entities; negatives are not filtered against the positive.

    The generator is consumed in a committed order so equal seeds give
    byte-identical epochs: per-entity position draws in ascending entity
    index, each over the entity's start positions in ascending order, then
    the permutation; a spawned child's seed then gives each walk's negatives.
    """
    budget = ngrams_per_entity_per_epoch(corpus, config.n)
    if budget == 0:
        raise DataError("window larger than all documents")

    # Every start position, grouped by entity: documents in a stable sort by
    # entity (so in input order within one), each one's starts ascending.
    order = np.argsort(corpus.doc_entity, kind="stable")
    eligible = _eligible(corpus, config.n)[order]
    ends = np.cumsum(eligible)
    dtype = np.int32 if corpus.total_tokens < 2**31 else np.int64
    positions = np.arange(ends[-1], dtype=dtype)
    positions += np.repeat((corpus.doc_ptr[order] - (ends - eligible)).astype(dtype), eligible)
    last_doc = np.cumsum(np.bincount(corpus.doc_entity, minlength=corpus.num_entities))
    entity_end = np.concatenate(([0], ends))[last_doc]
    sizes = np.diff(entity_end, prepend=0)
    kept = np.flatnonzero(sizes)
    starts = np.empty((len(kept), budget), dtype=dtype)
    for row, (end, size) in enumerate(zip(entity_end[kept].tolist(),
                                          sizes[kept].tolist())):
        starts[row] = positions[end - size + rng.integers(0, size, size=budget)]
    del positions  # free it before the permutation
    perm = np.arange(starts.size, dtype=dtype)  # rng.permutation's values and draws
    rng.shuffle(perm)
    return Epoch(np.lib.stride_tricks.sliding_window_view(corpus.tokens, config.n), config,
                 corpus.num_entities, kept.astype(np.int32), budget, starts.ravel(), perm,
                 rng.spawn(1)[0].bit_generator.seed_seq, tuple(np.flatnonzero(sizes == 0).tolist()))
