"""Lexical baseline: per-entity profile language models with Jelinek-Mercer
smoothing against the corpus model, scored in log domain."""

import math

import numpy as np

from .errors import DataError
from .retrieval import ranked_from_scores
from .text import tokenize


class EntityLanguageModel:
    """Term-major counts of every entity profile plus the interpolation weight.

    For term t, the entities whose profiles contain it are
    term_entities[term_ptr[t]:term_ptr[t + 1]] (ascending) and their counts
    the same slice of term_counts. entity_totals holds each profile's length
    and corpus_counts each term's corpus frequency. A query term's smoothed
    probability is (1 - lambda_jm) * P_ml(t|x) + lambda_jm * P_ml(t|C); an
    entity with an empty profile contributes P_ml(t|x) = 0, i.e. scores as
    the pure corpus model scaled by lambda_jm.
    """

    def __init__(self, term_ptr, term_entities, term_counts, entity_totals,
                 corpus_counts, lambda_jm=0.5):
        if not 0.0 <= lambda_jm <= 1.0:
            raise DataError("lambda_jm must lie in [0, 1]")
        self.term_ptr = term_ptr
        self.term_entities = term_entities
        self.term_counts = term_counts
        self.entity_totals = entity_totals
        self.corpus_counts = corpus_counts
        self.corpus_total = int(entity_totals.sum())
        self.lambda_jm = lambda_jm

    def with_lambda(self, lambda_jm):
        """Same counts, different interpolation weight (counts are shared)."""
        return EntityLanguageModel(self.term_ptr, self.term_entities,
                                   self.term_counts, self.entity_totals,
                                   self.corpus_counts, lambda_jm)

    def corpus_count(self, term):
        """Corpus frequency of a term id; 0 for ids outside the counts."""
        if 0 <= term < len(self.corpus_counts):
            return int(self.corpus_counts[term])
        return 0

    def postings(self, term):
        """(entity indices, counts) of the profiles containing a counted term."""
        lo, hi = self.term_ptr[term], self.term_ptr[term + 1]
        return self.term_entities[lo:hi], self.term_counts[lo:hi]


def estimate(corpus, lambda_jm=0.5):
    """Aggregate maximum-likelihood counts per entity and corpus-wide."""
    n = corpus.num_entities
    if n < 1:
        raise DataError("corpus has no entities")
    profiles = [corpus.profile_tokens(i) for i in range(n)]
    entity_totals = np.array([len(p) for p in profiles], dtype=np.int64)
    tokens = np.concatenate(profiles).astype(np.int64)
    owners = np.repeat(np.arange(n, dtype=np.int64), entity_totals)
    vocab_size = int(tokens.max()) + 1 if len(tokens) else 0
    keys, term_counts = np.unique(tokens * n + owners, return_counts=True)
    corpus_counts = np.bincount(tokens, minlength=vocab_size)
    term_ptr = np.concatenate(([0], np.cumsum(np.bincount(keys // n,
                                                          minlength=vocab_size))))
    return EntityLanguageModel(term_ptr, keys % n, term_counts, entity_totals,
                               corpus_counts, lambda_jm)


def score(model, entity_index, query_token_ids):
    """Sum of log smoothed term probabilities; -inf when a term probability
    is zero (lambda_jm = 0 and the term is unseen in the profile). Terms with
    zero corpus frequency are dropped.

    One entity at a time: the reference that `rank`'s array arithmetic must
    reproduce."""
    lam = model.lambda_jm
    total = int(model.entity_totals[entity_index])
    ctotal = model.corpus_total
    s = 0.0
    for t in query_token_ids:
        t = int(t)
        cc = model.corpus_count(t)
        if cc == 0:
            continue
        entities, counts = model.postings(t)
        j = int(np.searchsorted(entities, entity_index))
        c = int(counts[j]) if j < len(entities) and entities[j] == entity_index else 0
        p_x = c / total if total else 0.0
        p = (1.0 - lam) * p_x + lam * (cc / ctotal)
        s += math.log(p) if p > 0.0 else float("-inf")
    return s


def rank(model, entity_ids, query_token_ids, topic_id="q", k=None):
    """Score every entity for the query and keep the top k (all when k is
    None); ties broken by ascending entity id.

    Per query term, every entity gets the background log-probability and the
    entities in the term's postings get their smoothed one, with the
    arithmetic of `score` in the same order, so the scores are equal."""
    lam = model.lambda_jm
    ctotal = model.corpus_total
    scores = np.zeros(len(entity_ids))
    for t in query_token_ids:
        t = int(t)
        cc = model.corpus_count(t)
        if cc == 0:
            continue
        background = lam * (cc / ctotal)
        entities, counts = model.postings(t)
        p = (1.0 - lam) * (counts / model.entity_totals[entities]) + background
        term = np.full(len(entity_ids),
                       math.log(background) if background > 0.0 else float("-inf"))
        # math.log, not np.log: NumPy's vectorised log can differ from the
        # C library's in the last bit, and score uses the latter.
        term[entities] = list(map(math.log, p.tolist()))
        scores += term
    return ranked_from_scores(topic_id, entity_ids, scores, k)


SWEEP_GRID = tuple(i / 20 for i in range(21))


def sweep_lambda(corpus, topics, qrels, vocab, cutoff=100):
    """Evaluate mean NDCG at each of the 21 grid points 0.0, 0.05, ..., 1.0
    and return (best_lambda, [(lambda, mean_ndcg)]); ties prefer smaller
    lambda."""
    from .evaluation import evaluate_run

    if not topics:
        raise DataError("no validation topics for the sweep")
    queries = {tid: vocab.encode(tokenize(q)) for tid, q in topics.items()}
    queries = {tid: ids for tid, ids in queries.items() if ids}
    if not queries:
        raise DataError("all sweep topics have empty encoded queries")
    base = estimate(corpus, 0.0)
    grid = []
    best_lambda = None
    best_score = None
    for lam in SWEEP_GRID:
        model = base.with_lambda(lam)
        runs = {tid: rank(model, corpus.entities, ids, tid, cutoff)
                for tid, ids in queries.items()}
        mean = evaluate_run(runs, qrels, cutoff, ks=()).means[f"ndcg@{cutoff}"]
        if mean is None:
            raise DataError("no sweep topic has a relevant entity")
        grid.append((lam, mean))
        if best_score is None or mean > best_score:
            best_score = mean
            best_lambda = lam
    return best_lambda, grid
