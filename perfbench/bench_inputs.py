"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its sizes and seed: the same seed
writes byte-identical files. Only NumPy and the standard library are used
here, so the inputs do not depend on the code under test; the model
container for `retrieve` and `tune` is the exception, written by `lse`'s
own `init_params` and `save_model` because its format is part of what the
commands read.
"""

import hashlib
import json
import os

import numpy as np

# Input shapes. `train` follows the 1024-entity scaling shape of the
# acceptance suite (uniform tokens, 50-token documents) with fewer documents
# so one epoch stays short; `retrieve` is a large pool with a Zipf vocabulary;
# `tune` is a 1024-entity Zipf pool with attributes and an also_bought graph.
SHAPES = {
    "train": {"entities": 1024, "docs": 1500, "doc_len": 50, "vocab": 2000,
              "topics": 20, "zipf": None},
    "retrieve": {"entities": 10000, "docs": 20000, "doc_len": 40, "vocab": 20000,
                 "topics": 100, "zipf": 1.0},
    "tune": {"entities": 1024, "docs": 3072, "doc_len": 40, "vocab": 5000,
             "topics": 12, "zipf": 1.0},
}
QUERY_LEN = 3
MODEL_SEED_KEY = 9
NGRAM = 4  # lse's default training window


def word(i):
    """Alphabetic token for vocabulary slot i: 'q' plus four letters, so it
    survives tokenization and is never a stopword."""
    letters = []
    for _ in range(4):
        i, r = divmod(i, 26)
        letters.append(chr(97 + r))
    return "q" + "".join(reversed(letters))


def entity_id(i):
    return f"x{i:05d}"


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(stream,)))


def make_corpus(shape, seed):
    """Return (owners, tokens): the owning entity index of each document
    (sorted, every entity owns at least one) and a (docs, doc_len) array of
    vocabulary slots, uniform or Zipf-distributed."""
    rng = _rng(seed, 0)
    e, d = shape["entities"], shape["docs"]
    owners = np.sort(np.concatenate([np.arange(e),
                                     rng.integers(0, e, size=d - e)]))
    size = (d, shape["doc_len"])
    if shape["zipf"] is None:
        tokens = rng.integers(0, shape["vocab"], size=size)
    else:
        weights = 1.0 / np.arange(1, shape["vocab"] + 1) ** shape["zipf"]
        tokens = rng.choice(shape["vocab"], size=size, p=weights / weights.sum())
    return owners, tokens


def make_topics(owners, tokens, n_topics, seed):
    """Topics with two or three relevant entities each; the query is
    QUERY_LEN consecutive tokens of one document of one relevant entity.
    Returns [(topic_id, query_slots, relevant_entity_indices)]."""
    rng = _rng(seed, 1)
    n_entities = int(owners[-1]) + 1
    first_doc = np.searchsorted(owners, np.arange(n_entities + 1))
    topics = []
    for t in range(n_topics):
        relevant = np.sort(rng.choice(n_entities, size=int(rng.integers(2, 4)),
                                      replace=False))
        source = relevant[rng.integers(0, len(relevant))]
        doc = int(rng.integers(first_doc[source], first_doc[source + 1]))
        start = int(rng.integers(0, tokens.shape[1] - QUERY_LEN + 1))
        topics.append((f"t{t:03d}", tokens[doc, start:start + QUERY_LEN],
                       relevant))
    return topics


def corpus_lines(owners, tokens):
    words = [word(i) for i in range(int(tokens.max()) + 1)]
    for j, (owner, row) in enumerate(zip(owners, tokens.tolist())):
        rec = {"doc_id": f"d{j:06d}", "entity_id": entity_id(int(owner)),
               "text": " ".join([words[t] for t in row])}
        yield json.dumps(rec, sort_keys=True)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_topics(directory, topics, stem="topics"):
    """Write topics TSV (with header) and binary qrels; returns both paths."""
    topics_path = os.path.join(directory, f"{stem}.tsv")
    qrels_path = os.path.join(directory, f"{stem}_qrels.txt")
    _write_lines(topics_path, ["topic_id\ttest"] + [
        f"{tid}\t{' '.join(word(int(s)) for s in query)}"
        for tid, query, _ in topics])
    _write_lines(qrels_path, [f"{tid} 0 {entity_id(int(e))} 1"
                              for tid, _, relevant in topics for e in relevant])
    return topics_path, qrels_path


def write_attributes(path, owners, tokens, seed):
    """Entity attributes JSONL; about one value in ten is missing."""
    rng = _rng(seed, 2)
    n_entities = int(owners[-1]) + 1
    desc = np.bincount(owners, minlength=n_entities) * tokens.shape[1]
    prices = np.round(rng.lognormal(3.0, 1.0, size=n_entities), 2)
    ranks = rng.integers(1, 100000, size=n_entities)
    missing = rng.random((n_entities, 3)) < 0.1
    lines = []
    for i in range(n_entities):
        rec = {"entity_id": entity_id(i)}
        if not missing[i, 0]:
            rec["price"] = float(prices[i])
        if not missing[i, 1]:
            rec["sales_rank"] = int(ranks[i])
        if not missing[i, 2]:
            rec["description_length"] = int(desc[i])
        lines.append(json.dumps(rec, sort_keys=True))
    _write_lines(path, lines)


def write_graph(path, n_entities, seed):
    """also_bought edge list: zero to four out-edges per entity."""
    rng = _rng(seed, 3)
    lines = []
    for i in range(n_entities):
        for j in rng.integers(0, n_entities, size=int(rng.integers(0, 5))):
            if j != i:
                lines.append(f"{entity_id(i)}\t{entity_id(int(j))}")
    _write_lines(path, lines)


def vocab_tsv(tokens):
    """The vocabulary `lse build-vocab` writes for this corpus: every slot
    that occurs, by descending frequency, ties in word order (which is slot
    order), as token, id, frequency, document frequency."""
    n_slots = int(tokens.max()) + 1
    freq = np.bincount(tokens.ravel(), minlength=n_slots)
    rows = np.sort(tokens, axis=1)
    first = np.ones(rows.shape, dtype=bool)
    first[:, 1:] = rows[:, 1:] != rows[:, :-1]
    doc_freq = np.bincount(rows[first], minlength=n_slots)
    order = np.lexsort((np.arange(n_slots), -freq))
    return "".join(f"{word(int(t))}\t{i}\t{freq[t]}\t{doc_freq[t]}\n"
                   for i, t in enumerate(order[freq[order] > 0]))


def write_model(directory, tokens, seed, n_entities):
    """Vocabulary file and an untrained default-size model container written
    by lse's init_params and save_model."""
    from lse.model import Dims, init_params, save_model

    text = vocab_tsv(tokens)
    with open(os.path.join(directory, "vocab.tsv"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(text)
    params = init_params(Dims(300, 256, text.count("\n"), n_entities),
                         _rng(seed, MODEL_SEED_KEY))
    save_model(os.path.join(directory, "model.lse"), params,
               vocab_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
               entity_ids=[entity_id(i) for i in range(n_entities)])


def setup(workload, directory, seed):
    """Write every input of a workload into directory; returns the input
    sizes recorded with the results."""
    shape = SHAPES[workload]
    os.makedirs(directory, exist_ok=True)
    owners, tokens = make_corpus(shape, seed)
    topics = make_topics(owners, tokens, shape["topics"], seed)
    corpus_path = os.path.join(directory, "corpus.jsonl")
    _write_lines(corpus_path, corpus_lines(owners, tokens))
    write_topics(directory, topics)
    if workload != "train":
        write_model(directory, tokens, seed, shape["entities"])
    if workload == "tune":
        write_attributes(os.path.join(directory, "attributes.jsonl"),
                         owners, tokens, seed)
        write_graph(os.path.join(directory, "also_bought.tsv"),
                    shape["entities"], seed)
    return sizes(workload)


def sizes(workload):
    """Input sizes recorded with the results; instances is one training
    epoch's sample count (the per-entity budget times the entities)."""
    shape = SHAPES[workload]
    e, d = shape["entities"], shape["docs"]
    instances = -(-d * (shape["doc_len"] - NGRAM + 1) // e) * e
    return {"entities": e, "documents": d, "tokens": d * shape["doc_len"],
            "topics": shape["topics"], "word_slots": shape["vocab"],
            "instances": instances if workload == "train" else 0}
