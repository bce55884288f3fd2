"""Independent NumPy recomputations of what `rank` and `qlm` write.

Nothing here imports `lse`: the model container, vocabulary, corpus and run
files are parsed from their documented formats, and the scores are
recomputed from the arrays and raw counts. The generated corpora use only
plain lowercase words that are not stopwords, so whitespace splitting is
the tokenizer.
"""

import json
import struct

import numpy as np

FIELDS = ("W_v", "W", "b", "W_e")
SCORE_TOL = 1e-9


def read_container(path):
    """(header, {field: array}) from a model container: 8 magic bytes, a
    little-endian u64 header length, the JSON header, then the four float64
    arrays in FIELDS order."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + hlen])
    d = header["dims"]
    shapes = {"W_v": (d["e_v"], d["vocab_size"]), "W": (d["e_e"], d["e_v"]),
              "b": (d["e_e"],), "W_e": (d["num_entities"], d["e_e"])}
    arrays = {}
    offset = 16 + hlen
    for name in FIELDS:
        count = int(np.prod(shapes[name]))
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count,
                                     offset=offset).reshape(shapes[name])
        offset += 8 * count
    return header, arrays


def read_vocab(path):
    with open(path, encoding="utf-8") as fh:
        return {line.split("\t")[0]: int(line.split("\t")[1])
                for line in fh if line.strip()}


def read_topics(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    return {tid: query for tid, query in rows}


def read_run(path):
    """{topic_id: [(entity_id, score)]} in file order."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tid, _q0, eid, _rank, score, _tag = line.split()
            runs.setdefault(tid, []).append((eid, float(score)))
    return runs


def read_corpus(path, vocab):
    """(entity_ids in first-appearance order, per-token entity index, per-token
    vocabulary id), out-of-vocabulary tokens dropped."""
    entity_index = {}
    ents, toks = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            e = entity_index.setdefault(rec["entity_id"], len(entity_index))
            ids = [vocab[w] for w in rec["text"].split() if w in vocab]
            toks.extend(ids)
            ents.extend([e] * len(ids))
    return list(entity_index), np.asarray(ents), np.asarray(toks)


def cosine_scores(arrays, query_ids):
    """Cosine of every entity row against tanh(W mean(W_v[:, q]) + b)."""
    f = np.tanh(arrays["W"] @ arrays["W_v"][:, query_ids].mean(axis=1) + arrays["b"])
    w_e = arrays["W_e"]
    return (w_e @ f) / (np.sqrt((w_e * w_e).sum(axis=1)) * np.sqrt(f @ f))


def jm_scores(ents, toks, n_entities, query_ids, lambda_jm):
    """Jelinek-Mercer query log-likelihood of every entity from raw counts:
    sum over query terms of log((1-l) c(t,x)/|x| + l c(t)/|C|), skipping
    terms absent from the corpus."""
    totals = np.bincount(ents, minlength=n_entities).astype(np.float64)
    scores = np.zeros(n_entities)
    for t in query_ids:
        per_entity = np.bincount(ents[toks == t], minlength=n_entities)
        if per_entity.sum() == 0:
            continue
        p_x = np.divide(per_entity, totals, out=np.zeros(n_entities),
                        where=totals > 0)
        scores += np.log((1.0 - lambda_jm) * p_x
                         + lambda_jm * per_entity.sum() / totals.sum())
    return scores


def check_top_k(entries, scores, entity_ids, k=10):
    """None when the first k run entries agree with the oracle scores, else
    a message. Agreement: each listed score matches its entity's oracle score
    to SCORE_TOL, the list is ordered by (score desc, id asc), and no
    unlisted entity scores above the k-th listed one by more than SCORE_TOL.
    Which of several entities tied at the cut is listed is not checked: the
    oracle's sums may differ from lse's in the last bit."""
    index = {eid: i for i, eid in enumerate(entity_ids)}
    top = entries[:k]
    if len(top) != min(k, len(entity_ids)):
        return f"expected {k} entries, found {len(top)}"
    for eid, score in top:
        want = scores[index[eid]]
        if abs(score - want) > SCORE_TOL * max(1.0, abs(want)):
            return f"{eid}: run score {score!r}, oracle {want!r}"
    if top != sorted(top, key=lambda e: (-e[1], e[0])):
        return "entries not ordered by (score desc, id asc)"
    listed = np.zeros(len(entity_ids), dtype=bool)
    listed[[index[eid] for eid, _ in top]] = True
    floor = top[-1][1]
    above = np.flatnonzero(~listed & (scores > floor + SCORE_TOL * max(1.0, abs(floor))))
    if len(above):
        e = entity_ids[above[0]]
        return f"{e} scores {scores[above[0]]!r} but is missing from the top {k}"
    return None
