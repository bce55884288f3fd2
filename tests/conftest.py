"""Shared fixtures: small hand-built corpora and synthetic benchmarks."""

from collections import Counter

import numpy as np
import pytest

from lse.model import ModelParams
from lse.text import Corpus, Vocabulary


def cast_params(params, dtype):
    """A copy of params with each of the four arrays cast to dtype."""
    return ModelParams(*(array.astype(dtype) for array in params))


def synth_word(i, j):
    """Alphabetic synthetic token for entity i's j-th vocabulary slot."""
    return "v" + chr(97 + i) + chr(97 + j)


def make_corpus(documents, entities=None):
    """Corpus of (entity id, token ids) documents; entities default to their
    order of first appearance."""
    if entities is None:
        entities = list(dict.fromkeys(e for e, _ in documents))
    index = {e: i for i, e in enumerate(entities)}
    tokens = [np.asarray(toks, dtype=np.int32) for _, toks in documents]
    return Corpus(np.concatenate([np.empty(0, dtype=np.int32)] + tokens),
                  np.cumsum([0] + [len(t) for t in tokens], dtype=np.int64),
                  np.array([index[e] for e, _ in documents], dtype=np.int32),
                  entities, 0)


def documents(corpus):
    """(entity index, token ids) of each document, in corpus order."""
    for j, e in enumerate(corpus.doc_entity.tolist()):
        yield e, corpus.tokens[corpus.doc_ptr[j]:corpus.doc_ptr[j + 1]]


def build_separable_corpus(num_entities=8, words_per=20, docs_per=10,
                           doc_len=30, seed=123):
    """Entities with mutually disjoint vocabularies; trivially learnable."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(num_entities):
        lo = i * words_per
        for _ in range(docs_per):
            docs.append((f"e{i}", rng.integers(lo, lo + words_per, size=doc_len)))
    names = [synth_word(i, j) for i in range(num_entities) for j in range(words_per)]
    vocab = Vocabulary(names, [docs_per * doc_len] * len(names), [docs_per] * len(names))
    return make_corpus(docs), vocab


def profile_counts(corpus):
    """Reference term counts: one Counter per entity profile, plus the corpus
    Counter, counted token by token."""
    per_entity = [Counter() for _ in range(corpus.num_entities)]
    for e, toks in documents(corpus):
        per_entity[e].update(toks.tolist())
    return per_entity, sum(per_entity, Counter())


def scalar_qlm_score(model, entity_index, query_token_ids):
    """Reference for lse.qlm.score: one profile's query log-likelihood, term
    by term, finding the profile's count in each term's postings by binary
    search. Sums in query order from 0.0, so a correct vectorised score
    equals it exactly."""
    lam = model.lambda_jm
    total = int(model.entity_totals[entity_index])
    corpus_total = int(model.entity_totals.sum())
    s = 0.0
    for t in query_token_ids:
        t = int(t)
        cc = int(model.corpus_counts[t]) if t < len(model.corpus_counts) else 0
        if cc == 0:
            continue
        lo, hi = model.term_ptr[t], model.term_ptr[t + 1]
        entities, counts = model.term_entities[lo:hi], model.term_counts[lo:hi]
        j = int(np.searchsorted(entities, entity_index))
        c = int(counts[j]) if j < len(entities) and entities[j] == entity_index else 0
        p_x = c / total if total else 0.0
        p = (1.0 - lam) * p_x + lam * (cc / corpus_total)
        s += float(np.log(p)) if p > 0.0 else float("-inf")
    return s


def pair_rows(labels, groups, pair_samples, seed):
    """Reference for the pairs lse.ltr._pair_steps streams: row indices
    (relevant, non-relevant) of all pair_samples pairs at once, the picks
    drawn by a generator seeded with seed and the partners by one seeded
    with the first child that seed's SeedSequence spawns.

    Pairs are formed within a group (groups=None treats all rows as one
    group): a relevant row is drawn uniformly over all groups' relevant rows
    and its partner uniformly with replacement from the same group's
    non-relevant rows."""
    groups = (np.zeros(len(labels), dtype=np.int64) if groups is None
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

    pick = np.random.default_rng(seed).integers(0, len(pos_pool), size=pair_samples)
    gcode = pos_group_code[pick]
    partners = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    neg_local = np.floor(partners.random(pair_samples)
                         * neg_counts[gcode]).astype(np.int64)
    return pos_pool[pick], neg_flat[neg_starts[gcode] + neg_local]


def separable_topics(num_entities=8, multi=4):
    """One single-relevant topic per entity plus topics relevant to entity
    pairs, with queries drawn from the owning vocabularies."""
    topics = {}
    grades = {}
    for i in range(num_entities):
        topics[f"s{i}"] = " ".join(synth_word(i, k) for k in range(3))
        grades[(f"s{i}", f"e{i}")] = 1
    for k in range(multi):
        a, b = 2 * k, 2 * k + 1
        topics[f"m{k}"] = " ".join([synth_word(a, 0), synth_word(a, 1),
                                    synth_word(b, 0), synth_word(b, 1)])
        grades[(f"m{k}", f"e{a}")] = 1
        grades[(f"m{k}", f"e{b}")] = 1
    return topics, grades


def build_fusion_benchmark():
    """Benchmark where half the topics are decidable only from term overlap
    and half only from the vector space.

    Lexical cue words appear only in their entity's documents but have a
    zero projection; semantic cue words never occur in any document (so the
    profile models are blind to them) but project onto their entity's
    direction in a hand-built model.
    """
    num_entities = 16
    lex = [f"lex{chr(97 + i)}" for i in range(10)]
    sem = [f"sem{chr(97 + i)}" for i in range(10)]
    fill = ["filla", "fillb", "fillc", "filld"]
    names = sem + lex + fill
    vocab = Vocabulary(names, [1] * len(names), [1] * len(names))
    fill_ids = [vocab.token_to_id[w] for w in fill]

    entities = [f"p{i:02d}" for i in range(num_entities)]
    docs = []
    for i in range(num_entities):
        toks = list(fill_ids)
        if i < 10:
            toks = [vocab.token_to_id[lex[i]]] * 3 + toks
        docs.append((entities[i], toks))
    corpus = make_corpus(docs)

    e_v = len(names)
    e_e = 32
    word_rows = np.eye(e_v)
    W = np.zeros((e_e, e_v))
    for i, w in enumerate(sem):
        W[i, vocab.token_to_id[w]] = 5.0
    W_e = np.zeros((num_entities, e_e))
    for i in range(num_entities):
        W_e[i, i] = 1.0
    params = ModelParams(word_rows, W, np.zeros(e_e), W_e)

    topics = {}
    grades = {}
    for i in range(10):
        topics[f"l{i}"] = lex[i]
        grades[(f"l{i}", entities[i])] = 1
        topics[f"s{i}"] = sem[i]
        grades[(f"s{i}", entities[i])] = 1
    return corpus, vocab, params, topics, grades


@pytest.fixture
def tiny_raw_docs():
    return [
        ("d1", "cam", "the digital camera takes sharp photos"),
        ("d2", "cam", "camera with a zoom lens for photos"),
        ("d3", "gui", "an acoustic guitar with steel strings"),
        ("d4", "gui", "the guitar sounds warm and clear"),
    ]


@pytest.fixture
def separable_setup():
    corpus, vocab = build_separable_corpus()
    topics, grades = separable_topics()
    return corpus, vocab, topics, grades
