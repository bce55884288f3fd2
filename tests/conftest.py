"""Shared fixtures: small hand-built corpora and synthetic benchmarks, the
valid inputs of every command, and scalar oracles."""

import json
import math
import os
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from lse.cli import main
from lse.evaluation import Qrels
from lse.model import MAGIC, ModelParams
from lse.text import Corpus, Vocabulary


def cast_params(params, dtype):
    """A copy of params with each of the four arrays cast to dtype."""
    return ModelParams(*(array.astype(dtype) for array in params))


def sigma(x):
    return 1.0 / (1.0 + math.exp(-x))


def sigmoid_product_prob(params, ngram, positive, negatives):
    """Scalar oracle: one instance's probability as a plain product of
    sigmoids, sigma(e+ . f) * prod_k (1 - sigma(e_k . f)), without
    log-domain arithmetic."""
    h = params.word_rows[list(ngram)].mean(axis=0)
    f = np.tanh(params.W @ h + params.b)
    prob = sigma(float(params.W_e[positive] @ f))
    for k in negatives:
        prob *= 1.0 - sigma(float(params.W_e[k] @ f))
    return prob


def sigmoid_product_loss(params, block, weight_decay):
    """The training objective evaluated the obvious way: minus the mean log
    of each instance's sigmoid_product_prob, plus weight_decay / (2 m) times
    the squared norms of the word embeddings, W and W_e."""
    m = len(block.positives)
    total = sum(math.log(sigmoid_product_prob(params, *instance))
                for instance in zip(block.ngrams, block.positives, block.negatives))
    reg = (float((params.word_rows ** 2).sum()) + float((params.W ** 2).sum())
           + float((params.W_e ** 2).sum()))
    return -total / m + weight_decay / (2.0 * m) * reg


def pack_model(header, arrays=b"", declared_length=None):
    """Model container bytes: MAGIC, the header's length (or declared_length),
    the header (a dict written as JSON, or bytes as they are) and arrays."""
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    length = len(blob) if declared_length is None else declared_length
    return MAGIC + struct.pack("<Q", length) + blob + arrays


def traced_peak(call):
    """call()'s result, and the traced memory it peaks at above what was
    held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


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
    pairs, with queries drawn from the owning vocabularies; returns the
    topics and their Qrels."""
    topics = {}
    qrels = Qrels()
    for i in range(num_entities):
        topics[f"s{i}"] = " ".join(synth_word(i, k) for k in range(3))
        qrels[f"s{i}"] = {f"e{i}"}
    for k in range(multi):
        a, b = 2 * k, 2 * k + 1
        topics[f"m{k}"] = " ".join([synth_word(a, 0), synth_word(a, 1),
                                    synth_word(b, 0), synth_word(b, 1)])
        qrels[f"m{k}"] = {f"e{a}", f"e{b}"}
    return topics, qrels


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
    qrels = Qrels()
    for i in range(10):
        topics[f"l{i}"] = lex[i]
        qrels[f"l{i}"] = {entities[i]}
        topics[f"s{i}"] = sem[i]
        qrels[f"s{i}"] = {entities[i]}
    return corpus, vocab, params, topics, qrels


@pytest.fixture
def tiny_raw_docs():
    return [
        ("d1", "cam", "the digital camera takes sharp photos"),
        ("d2", "cam", "camera with a zoom lens for photos"),
        ("d3", "gui", "an acoustic guitar with steel strings"),
        ("d4", "gui", "the guitar sounds warm and clear"),
    ]


# ---- the valid inputs of every command ----

CORPUS_LINES = [
    {"doc_id": "d1", "entity_id": "cam", "text": "digital camera zoom lens"},
    {"doc_id": "d2", "entity_id": "cam", "text": "camera photo lens sharp"},
    {"doc_id": "d3", "entity_id": "gui", "text": "acoustic guitar steel strings"},
    {"doc_id": "d4", "entity_id": "gui", "text": "guitar warm wood tone"},
    {"doc_id": "d5", "entity_id": "pia", "text": "grand piano ivory keys"},
    {"doc_id": "d6", "entity_id": "pia", "text": "piano pedal concert sound"},
    {"doc_id": "d7", "entity_id": "vio", "text": "violin bow rosin strings"},
    {"doc_id": "d8", "entity_id": "vio", "text": "violin chin rest wood"},
]

# input name -> (file name, text)
TEXT_INPUTS = {
    "corpus": ("corpus.jsonl", "".join(json.dumps(r) + "\n" for r in CORPUS_LINES)),
    "topics": ("topics.tsv", "topic_id\ttest\nt1\tcamera lens\nt2\tguitar\n"
                             "t3\tpiano keys\nt5\tstrings wood\n"),
    "qrels": ("qrels.txt", "t1 0 cam 1\nt2 0 gui 1\nt3 0 pia 1\nt5 0 gui 1\nt5 0 vio 1\n"),
    "config": ("train.cfg", "e_v = 4\ne_e = 3\nn = 2\nz = 2\nm = 8\nepochs = 1\n"
                            "seed = 0  # root seed\n"),
    "attrs": ("attrs.jsonl", '{"entity_id": "cam", "price": 3.5, "sales_rank": 4}\n'
                             '{"entity_id": "gui", "description_length": 12}\n'),
    "graph": ("graph.tsv", "cam\tgui\ngui\tpia\nvio\tcam\n"),
}

# command -> argv, each {name} an input of the inputs fixture
COMMANDS = {
    "build-vocab": ["build-vocab", "{corpus}"],
    "train": ["train", "{corpus}", "{vocab}", "--config", "{config}",
              "--validation-topics", "{topics}", "--validation-qrels", "{qrels}"],
    "rank": ["rank", "{model}", "{vocab}", "{topics}"],
    "qlm": ["qlm", "{corpus}", "{vocab}", "{topics}"],
    "eval": ["eval", "{run}", "{qrels}", "--baseline-run", "{baseline}"],
    "sweep-lambda": ["sweep-lambda", "{corpus}", "{vocab}", "{topics}", "{qrels}"],
    "fuse": ["fuse", "{corpus}", "{vocab}", "{topics}", "{qrels}", "--model", "{model}",
             "--qi-attrs", "{attrs}", "--graph", "also_bought={graph}", "--folds", "2",
             "--pair-samples", "50"],
    "ideal-vector": ["ideal-vector", "{model}", "{vocab}", "{topics}", "{qrels}",
                     "--pair-samples", "50"],
}


def write_inputs(root, names=("corpus", "topics", "qrels")):
    """Write the TEXT_INPUTS called names into root; their paths."""
    paths = [root / TEXT_INPUTS[name][0] for name in names]
    for path, name in zip(paths, names):
        path.write_text(TEXT_INPUTS[name][1])
    return paths


def run_main(args):
    """Run the command args (each made a str) in-process as the lse entry
    point does; its exit status."""
    with pytest.raises(SystemExit) as exited:
        main.main([str(arg) for arg in args], standalone_mode=True)
    return exited.value.code


def error_line(status, err, want, gone):
    """The error line of a command that failed as the README promises: it
    exited with want, its stderr err holds exactly one line starting
    'Error: ' and no traceback, and nothing is left at gone (None: not
    checked). None if it did not."""
    errors = [line for line in err.splitlines() if line.startswith("Error: ")]
    if (status == want and len(errors) == 1 and "Traceback" not in err
            and (gone is None or not os.path.exists(gone))):
        return errors[0]
    return None


def fails(capsys, status, gone, args, *fragments):
    """Run the command args in-process and assert that it fails as the README
    promises: exit status status, nothing left at gone (None where a path
    must stay) and an error line holding every fragment. Returns that line."""
    capsys.readouterr()
    code = run_main(args)
    err = capsys.readouterr().err
    line = error_line(code, err, status, gone)
    assert line is not None and all(f in line for f in fragments), (code, err)
    return line


@pytest.fixture(scope="session")
def inputs(tmp_path_factory):
    """Valid inputs of every command in COMMANDS, each its own file:
    name -> path. The vocabulary, model and runs are made by the commands."""
    root = tmp_path_factory.mktemp("valid")
    paths = dict(zip(TEXT_INPUTS, write_inputs(root, TEXT_INPUTS)))
    paths["vocab"] = root / "vocab.tsv"
    paths["model"] = root / "model.lse"
    paths["run"] = root / "run.trec"
    paths["baseline"] = root / "baseline.trec"
    steps = [(["build-vocab", "{corpus}"], "vocab.tsv", "vocab"),
             (["train", "{corpus}", "{vocab}", "--config", "{config}"], "model.lse", "model"),
             (COMMANDS["rank"], "run.trec", "run"),
             (COMMANDS["qlm"], "run.trec", "baseline")]
    for argv, output, name in steps:
        out = root / f"{name}_out"
        assert run_main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 0
        (out / output).replace(paths[name])
    return paths
