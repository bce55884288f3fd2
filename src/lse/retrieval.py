"""Cosine retrieval over entity representations and the TREC run file
format."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .files import atomic_open, check_unique, read_fields
from .model import project

# rank_queries scores as many topics per matrix product as fit in this many
# scores (8 MiB of float64, 4 MiB of float32)
_BLOCK_SCORES = 1 << 20


@dataclass
class RankedList:
    """Entities ordered by descending score; ties by ascending entity id."""

    topic_id: str
    entries: list  # (entity_id, score) pairs


def _rank_order(pair):
    """Sort key of an (entity_id, score) pair in RankedList order."""
    return -pair[1], pair[0]


def ranked_from_scores(topic_id, entity_ids, scores, k=None):
    """The first k (entity, score) pairs of the full ranking by descending
    score and ascending id; the whole ranking when k is None.

    Only entities scoring at least the k-th largest score are sorted, so the
    id tie-break still decides among those tied at the cut."""
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if k is None or k >= n:
        candidates = np.arange(n)
    else:
        kth = np.partition(scores, n - k)[n - k]
        candidates = np.flatnonzero(scores >= kth)
    pairs = [(entity_ids[i], s)
             for i, s in zip(candidates.tolist(), scores[candidates].tolist())]
    pairs.sort(key=_rank_order)
    return RankedList(topic_id, pairs[:k])


def cosine_scores(matrix, vec, norms=None):
    """Cosine of vec, cast to matrix's dtype, against every row of matrix;
    zero-norm rows and a zero vec score 0. A (q, d) stack of vecs gives (q,
    n) scores from one product.

    norms, when given, must be np.linalg.norm(matrix, axis=1): callers that
    score many vectors against one matrix compute it once."""
    vec = np.asarray(vec, dtype=matrix.dtype)
    if norms is None:
        norms = np.linalg.norm(matrix, axis=1)
    out = vec @ matrix.T if vec.ndim == 2 else (matrix @ vec)[None]
    for row, v in zip(out, np.atleast_2d(vec)):  # in place: no (q, n) temporaries
        denom = norms * np.linalg.norm(v)
        np.divide(row, denom, out=row, where=denom > 0)
        row[~(denom > 0)] = 0.0
    return out if vec.ndim == 2 else out[0]


def rank_by_vector(matrix, vec, entity_ids, topic_id, k=None, norms=None):
    """Rank all entities by cosine similarity of their rows to vec; keep the
    top k (all when k is None). norms is as for cosine_scores."""
    return ranked_from_scores(topic_id, entity_ids,
                              cosine_scores(matrix, vec, norms), k)


def rank_entities(params, query_token_ids, entity_ids, topic_id="q", k=None,
                  norms=None):
    """Project the query, score every entity by cosine similarity and keep
    the top k (all when k is None). norms, when given, must be
    np.linalg.norm(params.W_e, axis=1). An empty query raises LSEError."""
    f = project(params, query_token_ids)
    return rank_by_vector(params.W_e, f, entity_ids, topic_id, k, norms)


def rank_queries(params, queries, entity_ids, k=None):
    """rank_entities of each (topic_id, query token ids) pair of the list
    queries, in order. The projected queries of a block of topics are scored
    with one matrix product, so a score's last bits can differ from
    rank_entities'."""
    norms = np.linalg.norm(params.W_e, axis=1)
    step = max(1, _BLOCK_SCORES // len(norms))
    ranked = []
    for start in range(0, len(queries), step):
        block = queries[start:start + step]
        scores = cosine_scores(params.W_e, np.stack([project(params, ids)
                                                     for _, ids in block]), norms)
        ranked += [ranked_from_scores(tid, entity_ids, row, k)
                   for (tid, _), row in zip(block, scores)]
    return ranked


def write_run(path, ranked_lists, tag="lse", top_k=100):
    """Write rankings in TREC run format, truncated to top_k per topic."""
    with atomic_open(path) as fh:
        for ranked in ranked_lists:
            for rank, (eid, score) in enumerate(ranked.entries[:top_k], start=1):
                fh.write(f"{ranked.topic_id} Q0 {eid} {rank} {score!r} {tag}\n")


def read_run(path):
    """Parse a TREC run file into {topic_id: RankedList}, topics in file
    order and each topic's entries by descending score and ascending entity
    id (the rank column is not used); an entity listed twice for one topic is
    a DataError."""
    pairs, first_line = {}, {}
    for number, (topic_id, q0, eid, rank, score, _tag) in read_fields(path, 6, sep=None):
        if q0 != "Q0":
            raise DataError(f"{path}:{number}: malformed run line")
        try:
            int(rank)
            score = float(score)
        except ValueError as exc:
            raise DataError(f"{path}:{number}: bad rank or score") from exc
        if math.isnan(score):
            raise DataError(f"{path}:{number}: score is NaN")
        check_unique(first_line, (topic_id, eid), path, number,
                     "entity {0[1]!r} for topic {0[0]!r}")
        pairs.setdefault(topic_id, []).append((eid, score))
    return {tid: RankedList(tid, sorted(entries, key=_rank_order))
            for tid, entries in pairs.items()}
