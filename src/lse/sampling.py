"""Per-epoch training instances: n-grams with a positive entity and z
uniformly sampled negatives, under a stratified per-entity budget."""

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class SamplerConfig:
    """Window length n, negatives per instance z, and the batch size m the
    instances are consumed in."""

    n: int
    z: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.z < 1 or self.m < 1:
            raise DataError("n, z and m must all be at least 1")


class InstanceBlock:
    """Columnar storage for a stream of training instances: ngrams (N, n),
    positives (N,) and negatives (N, z). Slicing rows gives a new block."""

    def __init__(self, ngrams, positives, negatives, skipped_entities=()):
        self.ngrams = np.asarray(ngrams, dtype=np.int32)
        self.positives = np.asarray(positives, dtype=np.int32)
        self.negatives = np.asarray(negatives, dtype=np.int32)
        self.skipped_entities = tuple(skipped_entities)

    def __len__(self):
        return len(self.positives)

    def __getitem__(self, rows):
        return InstanceBlock(self.ngrams[rows], self.positives[rows],
                             self.negatives[rows])


def _eligible(corpus, n):
    """Number of n-gram start positions in each document."""
    return np.maximum(np.diff(corpus.doc_ptr) - n + 1, 0)


def ngrams_per_entity_per_epoch(corpus, n):
    """Per-entity sample budget: ceil of (total eligible n-gram positions) / |X|."""
    if n < 1:
        raise DataError("window size must be at least 1")
    return -(-int(_eligible(corpus, n).sum()) // corpus.num_entities)


def sample_epoch(corpus, config, rng):
    """Draw one epoch of training instances.

    Every entity with at least one eligible n-gram position contributes
    exactly B instances (B = the per-entity budget), positions drawn
    uniformly over its (document, start) pairs with replacement. Each
    instance gets z negatives drawn uniformly with replacement from all
    entities; negatives are not filtered against the positive. The instance
    stream is shuffled before return.

    The generator is consumed in a committed order so equal seeds give
    byte-identical epochs: per-entity position draws in ascending entity
    index, each over the entity's start positions in ascending order, then
    the negatives matrix, then the shuffle permutation.
    """
    n, z = config.n, config.z
    budget = ngrams_per_entity_per_epoch(corpus, n)
    if budget == 0:
        raise DataError("window larger than all documents")

    # Every start position, grouped by entity: documents in a stable sort by
    # entity (so in input order within one), each one's starts ascending.
    order = np.argsort(corpus.doc_entity, kind="stable")
    eligible = _eligible(corpus, n)[order]
    ends = np.cumsum(eligible)
    positions = (np.repeat(corpus.doc_ptr[order] - (ends - eligible), eligible)
                 + np.arange(ends[-1]))
    last_doc = np.cumsum(np.bincount(corpus.doc_entity, minlength=corpus.num_entities))
    entity_end = np.concatenate(([0], ends))[last_doc]
    sizes = np.diff(entity_end, prepend=0)
    kept = np.flatnonzero(sizes)
    skipped = np.flatnonzero(sizes == 0).tolist()

    starts = np.empty((len(kept), budget), dtype=np.int64)
    for row, (end, size) in enumerate(zip(entity_end[kept].tolist(),
                                          sizes[kept].tolist())):
        starts[row] = positions[end - size + rng.integers(0, size, size=budget)]
    starts = starts.ravel()
    positives = np.repeat(kept.astype(np.int32), budget)
    count = len(starts)
    negatives = rng.integers(0, corpus.num_entities, size=(count, z)).astype(np.int32)
    perm = rng.permutation(count)

    starts = starts[perm]
    ngrams = corpus.tokens[starts[:, None] + np.arange(n)]
    return InstanceBlock(ngrams, positives[perm], negatives[perm], skipped)


def make_batches(instances, m):
    """Chunk an instance stream into consecutive batches of m; the final
    partial batch is kept."""
    return [instances[i:i + m] for i in range(0, len(instances), m)]
