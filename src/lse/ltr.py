"""Pairwise linear ranking: query-independent features (PageRank over
related-product graphs, price, description length, reciprocal sales rank),
RankSVM (Joachims, KDD 2002) trained by mini-batch Pegasos over balanced
pair samples, 10-fold cross-validated feature fusion, and the per-topic
ideal-retrieval-vector approximation."""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SizeError
from .evaluation import compare_runs, evaluate_run, ndcg
from .files import check_unique, read_fields, read_records
from .model import project
from .qlm import score as qlm_score
from .retrieval import cosine_scores, rank_by_vector, rank_entities, ranked_from_scores

GRAPH_NAMES = ("also_bought", "also_viewed", "bought_together", "buy_after_viewing")

QI_VALUE_FEATURES = ("price", "description_length", "reciprocal_sales_rank",
                     "pagerank_also_bought", "pagerank_also_viewed",
                     "pagerank_bought_together", "pagerank_buy_after_viewing")
QI_MASK_FEATURES = ("price_present", "description_length_present",
                    "sales_rank_present")


# PageRank's damping factor, and its stopping rule: an L1 change below the
# tolerance, or the iteration cap
PAGERANK_DAMPING, PAGERANK_TOL, PAGERANK_MAX_ITER = 0.85, 1e-10, 200


def pagerank(num_nodes, edges):
    """Power iteration on the column-stochastic transition with uniform
    teleport at PAGERANK_DAMPING; dangling mass is redistributed uniformly.
    An empty edge list gives uniform scores, and an edge endpoint outside
    [0, num_nodes) is a DataError."""
    if not edges:
        return np.full(num_nodes, 1.0 / num_nodes)
    src = np.asarray([e[0] for e in edges], dtype=np.intp)
    dst = np.asarray([e[1] for e in edges], dtype=np.intp)
    if src.min() < 0 or dst.min() < 0 or src.max() >= num_nodes or dst.max() >= num_nodes:
        raise DataError("edge endpoint out of range")
    outdeg = np.bincount(src, minlength=num_nodes).astype(np.float64)
    dangling = outdeg == 0
    p = np.full(num_nodes, 1.0 / num_nodes)
    for _ in range(PAGERANK_MAX_ITER):
        contrib = p[src] / outdeg[src]
        new = np.bincount(dst, weights=contrib, minlength=num_nodes)
        new = (PAGERANK_DAMPING * (new + p[dangling].sum() / num_nodes)
               + (1.0 - PAGERANK_DAMPING) / num_nodes)
        delta = float(np.abs(new - p).sum())
        p = new
        if delta < PAGERANK_TOL:
            break
    return p


# the pairs sampled per RankSVM fit unless a caller sets another count
PAIR_SAMPLES = 100000

# the fewest Pegasos steps a fit of at least this many pairs takes
_MIN_STEPS = 100


def pegasos_batch(pair_samples):
    """Pairs per Pegasos step for a fit of pair_samples pairs: 1000 at the
    default 1e5, so that a fit takes 100 steps, and 1 below 200 pairs.
    Every fit takes at least min(pair_samples, _MIN_STEPS) steps and fewer
    than 2 _MIN_STEPS. A pair_samples below 1 is a DataError, and one whose
    steps draw more 8-byte values than NumPy can size a SizeError."""
    if pair_samples < 1:
        raise DataError(f"pair_samples must be at least 1, got {pair_samples}")
    batch = max(1, pair_samples // _MIN_STEPS)
    SizeError.check({"pair_samples": batch}, ("pair_samples",))
    return batch


# Values (512 KB) per gathered block and per drawn block of pairs (unless
# one step holds more): a memory bound whatever the batch, fits and width.
_CHUNK_VALUES = 1 << 16


def _pair_steps(labels, rows, streams, seeds, pair_samples, batch):
    """Per Pegasos step, the (n, S) row indices (relevant, non-relevant) of
    S pair streams' next n = batch pairs (fewer in the last step), so that
    no more than a few steps' pairs are held at once.

    labels is a (topics, entities) boolean relevance matrix, rows its cells'
    row indices. Stream s draws a relevant cell uniformly over those of the
    topics streams[s] lists in ascending order that hold both classes, and
    its partner uniformly with replacement from the same topic's
    non-relevant cells, which balances the classes whatever their raw
    distribution; a generator seeded with seeds[s] draws the picks, and its
    first spawned child the partners. Pools and index arithmetic take one
    pass over the matrix for all S streams."""
    relevant, others = labels.sum(axis=1), (~labels).sum(axis=1)
    pos, neg = rows[labels], rows[~labels]  # topic-major
    # the pools end to end: per (stream, topic) membership, stream-major, the
    # topic's relevant rows, none if it has no non-relevant one
    topic = np.concatenate(streams)
    sizes = np.where(others[topic] > 0, relevant[topic], 0)
    ends = np.concatenate(([0], np.cumsum(sizes)))
    pos = pos[np.repeat(np.cumsum(relevant)[topic] - ends[1:], sizes) + np.arange(ends[-1])]
    topic = np.repeat(topic, sizes)  # per pool row
    firsts = ends[np.cumsum([0] + [len(topics) for topics in streams])]
    offsets, sizes, starts = firsts[:-1], np.diff(firsts), np.cumsum(others) - others
    picks = [np.random.default_rng(seed) for seed in seeds]
    partners = [rng.spawn(1)[0] for rng in picks]
    # whole steps' pairs at a time, at most _CHUNK_VALUES per stream-wide draw
    span = batch * max(1, _CHUNK_VALUES // (batch * len(seeds)))
    for lo in range(0, pair_samples, span):
        n = min(span, pair_samples - lo)
        at = np.column_stack([rng.integers(0, size, size=n)
                              for rng, size in zip(picks, sizes)]) + offsets
        t = topic[at]
        local = np.floor(np.column_stack([rng.random(n) for rng in partners])
                         * others[t]).astype(np.int64)
        p, q = pos[at], neg[starts[t] + local]
        yield from ((p[i:i + batch], q[i:i + batch]) for i in range(0, n, batch))


def _pegasos(rows, steps, streams, scale=None, mask=None, batch=1):
    """Weights (C S, width), row c S + s for feature set c on pair stream s,
    of C S RankSVM fits trained in lockstep by mini-batch Pegasos
    (Shalev-Shwartz, Singer, Srebro & Cotter, Math. Programming 2011, section
    2.3). Each fit minimises (1/2)|w|^2 plus the mean hinge over its pairs:
    RankSVM at C = 1, which is Pegasos at lambda = 1.

    Step t takes the (n, S) row indices (p, q) that steps yields t-th (n = b
    but in a shorter last step) as its batch B: pair i of stream s has the
    difference d = rows[p[i, s]] / scale[s] - rows[q[i, s]] / scale[s]
    (scale 1 when None). Fit (c, s) sets w = (1 - 1/t) w + (sum of the d in
    B with d.w < 1) / (t |B|), every margin measured against the weights
    before the step, and w kept at 0 where the boolean mask[c, s] is False
    (C = 1 without a mask). A step costs the same few NumPy calls for any C
    and S.

    Unscaled rows with R < 2b take the step sums from _scored_sum, the rest
    from _gathered_sum, which gathers each pair once for all C sets. Scoring
    is faster, but it holds (C S, R) tables per step (R < 2b keeps them
    smaller than the 2 b S rows the step reads) where gathering holds
    byte-bounded blocks, and it sums raw rows, which can overflow where scaled
    differences do not. Either way fit (c, s) gets the weights of the C = 1
    call that gives it stream s and mask[c, s], bit for bit. At b = 1 the
    gathered sum is d itself and this is the single-pair loop: each fit's
    weights are bit-identical to training it alone on its mask's columns while
    the dot product sums in column order, so that the masked columns' zero
    products change no sum (OpenBLAS's does below 16 columns)."""
    keep = np.ones((1, streams, 1), dtype=bool) if mask is None else np.asarray(mask)
    weights = np.zeros((len(keep), streams, rows.shape[1]))
    scored = scale is None and len(rows) < 2 * batch
    for t, (p, q) in enumerate(steps, start=1):
        total, active = (_scored_sum(rows, p, q, weights) if scored
                         else _gathered_sum(rows, p, q, weights, scale))
        weights *= 1.0 - 1.0 / t
        total *= 1.0 / (t * len(p))
        np.add(weights, total, out=weights, where=active & keep)
    return weights.reshape(-1, rows.shape[1])


def _gathered_sum(rows, pos, neg, weights, scale=None):
    """One step's (C, S, width) sum of its active pairs' d and a (C, S, 1)
    flag of fits with an active pair, for the (n, S) pairs pos and neg. The
    pairs' rows are gathered, scaled and subtracted in place in blocks of at
    most _CHUNK_VALUES values over all fits, counted from the step's first
    pair; raw rows could overflow in the subtraction."""
    block = max(1, _CHUNK_VALUES // weights.size)
    total, active = np.zeros(weights.shape), np.zeros((*weights.shape[:2], 1), dtype=bool)
    for lo in range(0, len(pos), block):
        diffs = np.take(rows, pos[lo:lo + block], axis=0)
        others = np.take(rows, neg[lo:lo + block], axis=0)
        if scale is not None:
            np.divide(diffs, scale, out=diffs)
            np.divide(others, scale, out=others)
        np.subtract(diffs, others, out=diffs)
        hits = np.ascontiguousarray(
            (np.vecdot(diffs[:, None], weights) < 1.0).transpose(1, 2, 0))
        # each sum adds its pairs along the last axis of a C-ordered (C, S,
        # width, n) block, in the same order whatever C, S and width are
        total += np.multiply(np.ascontiguousarray(diffs.transpose(1, 2, 0)),
                             hits[:, :, None, :], order="C").sum(axis=-1)
        active |= hits.any(axis=-1, keepdims=True)
    return total, active


def _scored_sum(rows, pos, neg, weights):
    """What _gathered_sum returns without a scale, scoring every row once
    instead of gathering pairs: fit k of the K = C S fits, on stream s = k
    mod S, scores rows @ w_k, and the sum of its active pairs' d is the (K,
    R) signed count of their rows times rows."""
    combos, num_rows = len(weights), len(rows)
    pos, neg = np.tile(pos, combos), np.tile(neg, combos)
    fits = pos.shape[1]
    fit = np.arange(fits)
    offsets = fit * num_rows
    scores = rows @ weights.reshape(fits, -1).T
    hits = scores[pos, fit] - scores[neg, fit] < 1.0
    counts = (np.bincount((pos + offsets)[hits], minlength=fits * num_rows)
              - np.bincount((neg + offsets)[hits], minlength=fits * num_rows))
    total = counts.reshape(fits, num_rows) @ rows
    return total.reshape(weights.shape), hits.any(axis=0).reshape(combos, -1, 1)


# Attribute record fields, each optional: (JSON type, None) as read_records
# takes it.
_ATTRIBUTES = {"price": (float, None), "sales_rank": (int, None),
               "description_length": (int, None)}


def load_qi_attributes(path):
    """JSON-lines: {"entity_id": str, "price": real?, "sales_rank": int?,
    "description_length": int?}; a value of another type or a repeated
    entity id is a DataError naming the file and line."""
    attributes, first_line = {}, {}
    for number, rec in read_records(path, {"entity_id": str, **_ATTRIBUTES}):
        check_unique(first_line, rec["entity_id"], path, number, "entity_id {!r}")
        attributes[rec["entity_id"]] = {name: rec.get(name) for name in _ATTRIBUTES}
    return attributes


def load_graph(path):
    """Edge-list TSV: src_entity <TAB> dst_entity."""
    return [tuple(edge) for _, edge in read_fields(path, 2)]


def qi_feature_matrix(corpus, attributes, graphs):
    """Per-entity query-independent block: the 7 value features followed by
    the 3 presence masks, from attributes (load_qi_attributes' entity_id ->
    {price, sales_rank, description_length}) and graphs (a name of
    GRAPH_NAMES -> (src_entity_id, dst_entity_id) edges). Missing attributes
    are imputed as 0 with the mask cleared; graph edges naming unknown
    entities are dropped."""
    n = corpus.num_entities
    out = np.zeros((n, len(QI_VALUE_FEATURES) + len(QI_MASK_FEATURES)))
    for i, eid in enumerate(corpus.entities):
        attrs = attributes.get(eid, {})
        price = attrs.get("price")
        salesrank = attrs.get("sales_rank")
        desclen = attrs.get("description_length")
        if price is not None:
            out[i, 0] = float(price)
            out[i, 7] = 1.0
        if desclen is not None:
            out[i, 1] = float(desclen)
            out[i, 8] = 1.0
        if salesrank is not None and salesrank > 0:
            out[i, 2] = 1.0 / float(salesrank)
            out[i, 9] = 1.0
    index = {eid: i for i, eid in enumerate(corpus.entities)}
    for k, name in enumerate(GRAPH_NAMES):
        edges = [(index[sid], index[did]) for sid, did in graphs.get(name, ())
                 if sid in index and did in index]
        out[:, 3 + k] = pagerank(n, edges)
    return out


@dataclass
class FeatureTable:
    """One feature matrix per topic; rows follow corpus entity order."""

    feature_names: tuple
    entity_ids: list
    topics: list
    matrices: dict  # topic_id -> (num_entities, num_features)

    def columns_for(self, blocks):
        cols = []
        for block in blocks:
            if block == "qi":
                cols.extend(range(len(QI_VALUE_FEATURES) + len(QI_MASK_FEATURES)))
            else:
                cols.append(self.feature_names.index(block))
        return np.asarray(cols, dtype=np.intp)


def build_features(queries, corpus, qlm_model, params, attributes=None, graphs=None):
    """Assemble per-(topic, entity) feature rows over the full entity pool
    for queries ({topic_id: token ids}), with qi_feature_matrix's attributes
    and graphs (none when None).

    Columns: the QI block, then the lexical log-likelihood, then the cosine
    of the projected query, left out when params is None. An empty query
    gets zero query-dependent columns; a -inf lexical score is replaced by
    (the topic's smallest finite score - 1)."""
    names = QI_VALUE_FEATURES + QI_MASK_FEATURES + ("qlm",)
    names += () if params is None else ("lse",)
    qi_block = qi_feature_matrix(corpus, attributes or {}, graphs or {})
    n = corpus.num_entities
    norms = None if params is None else np.linalg.norm(params.W_e, axis=1)
    matrices = {}
    for tid, qids in sorted(queries.items()):
        qlm_col = np.zeros(n)
        if qids:
            qlm_col = qlm_score(qlm_model, slice(None), qids)
            finite = qlm_col[np.isfinite(qlm_col)]
            if len(finite) == 0:
                qlm_col = np.zeros(n)
            elif len(finite) < n:
                qlm_col[~np.isfinite(qlm_col)] = finite.min() - 1.0
        columns = [qi_block, qlm_col]
        if params is not None:
            columns.append(cosine_scores(params.W_e, project(params, qids), norms)
                           if qids else np.zeros(n))
        matrices[tid] = np.column_stack(columns)
    return FeatureTable(names, list(corpus.entities), sorted(queries), matrices)


def _standardize_fit(matrix):
    """Column standard deviations, 1.0 for a constant column. A column whose
    plain std overflows (finite values near 1e154 or more) is divided by its
    largest magnitude first and its std scaled back."""
    with np.errstate(over="ignore", invalid="ignore"):
        std = matrix.std(axis=0)
    wide = ~np.isfinite(std)
    if wide.any():
        scale = np.abs(matrix[:, wide]).max(axis=0)
        std[wide] = (matrix[:, wide] / scale).std(axis=0) * scale
    return np.where(std > 0, std, 1.0)


@dataclass
class FusionReport:
    rows: list          # {"features", "means", "per_topic"}
    significance: dict  # metric -> {"t", "p", "marker"} or {"degenerate"}


COMBOS = (("qi",), ("qi", "qlm"), ("qi", "lse"), ("qi", "qlm", "lse"))


def _fold_partition(topics, folds, seed):
    order = list(topics)
    np.random.default_rng(seed).shuffle(order)
    return [order[i::folds] for i in range(folds)]


def _relevance_labels(qrels, topic_ids, entity_ids):
    """(topic, entity) booleans, True where qrels judge the entity relevant;
    a judged id outside entity_ids has no column and is left out."""
    column = {eid: j for j, eid in enumerate(entity_ids)}
    labels = np.zeros((len(topic_ids), len(entity_ids)), dtype=bool)
    for row, tid in zip(labels, topic_ids):
        row[[column[eid] for eid in qrels.relevant(tid) if eid in column]] = True
    return labels


def _spawned_seed(entropy, spawn_key):
    return int(np.random.SeedSequence(entropy=entropy,
                                      spawn_key=spawn_key).generate_state(1)[0])


def cross_validated_fusion(table, qrels, folds=10, seed=0, cutoff=100, ks=(5, 10),
                           pair_samples=PAIR_SAMPLES, source="topics", qrels_source="qrels"):
    """Run the feature combinations of COMBOS whose blocks the table has
    under a seeded topic-level fold partition; per fold, train on the other
    folds' topics, with a RankSVM of pair_samples pairs, and score the held
    out ones. A fold's fits train on pair differences divided by its
    training topics' column standard deviations, which also divide the held
    out rows; its combinations share one pair stream, drawn within its
    training topics from one relevance matrix of all topics, and all train
    in one lockstep loop. Significance compares the full combination against
    qi+qlm by a paired t-test per metric; without an lse column each
    metric's entry is degenerate. Fewer topics than folds is a DataError
    naming source, their file; a fold whose training topics all lack a
    relevant or a non-relevant entity is one naming qrels_source."""
    topics = list(table.topics)
    depth = max((cutoff, *ks))
    batch = pegasos_batch(pair_samples)
    if len(topics) < folds:
        raise DataError(f"{source}: need at least {folds} topics for {folds}-fold "
                        "cross-validation")
    partition = _fold_partition(topics, folds, seed)
    combos = [combo for combo in COMBOS
              if all(block == "qi" or block in table.feature_names for block in combo)]
    labels = _relevance_labels(qrels, topics, table.entity_ids)
    both = labels.any(axis=1) & ~labels.all(axis=1)
    # every topic's rows, topic-major, so cell (t, e) is row t n + e
    stacked = np.concatenate([table.matrices[tid] for tid in topics])
    streams, scales = [], []  # per fold: its training topics, its deviations
    for fold, heldout in enumerate(partition, start=1):
        train = [p for p, tid in enumerate(topics) if tid not in heldout]
        # a single fold trains on no topic, which np.concatenate rejects
        scales.append(_standardize_fit(np.concatenate([table.matrices[topics[p]]
                                                       for p in train])))
        if not both[train].any():
            raise DataError(f"{qrels_source}: no training topic of fold {fold} has "
                            "both a relevant and a non-relevant entity")
        streams.append(train)
    # a fold's stream is scaled by its deviations of every column, and each
    # combination's mask keeps its own columns
    masks = np.zeros((len(combos), folds, stacked.shape[1]), dtype=bool)
    for mask, combo in zip(masks, combos):
        mask[:, table.columns_for(combo)] = True
    steps = _pair_steps(labels, np.arange(labels.size).reshape(labels.shape), streams,
                        [_spawned_seed(seed, (0, f)) for f in range(folds)], pair_samples, batch)
    weights = _pegasos(stacked, steps, folds, np.array(scales), masks, batch=batch)

    runs = {combo: {} for combo in combos}
    for k, w in enumerate(weights):  # combination-major
        combo, std = combos[k // folds], scales[k % folds]
        cols = table.columns_for(combo)
        for tid in partition[k % folds]:
            scores = (table.matrices[tid][:, cols] / std[cols]) @ w[cols]
            runs[combo][tid] = ranked_from_scores(tid, table.entity_ids, scores, depth)
    reports = {combo: evaluate_run(runs[combo], qrels, cutoff=cutoff, ks=ks)
               for combo in combos}
    rows = [{"features": "+".join(combo), "means": report.means,
             "per_topic": report.per_topic}
            for combo, report in reports.items()]

    if ("qi", "qlm", "lse") in reports:
        significance = compare_runs(reports["qi", "qlm", "lse"], reports["qi", "qlm"])
    else:
        significance = {metric: {"degenerate": "no model was given, so there is no "
                                               "qi+qlm+lse run to compare"}
                        for metric in rows[0]["means"]}
    return FusionReport(rows, significance)


def ideal_vector_report(params, queries, qrels, entity_ids, cutoff=100,
                        pair_samples=PAIR_SAMPLES, seed=0):
    """Per-topic comparison of the ideal-vector ranking against the
    projected-query ranking (rank_entities) for queries ({topic_id: token
    ids}), both scored in the params' dtype; eligible topics' ideal
    vectors, RankSVMs of pair_samples pairs each, train in lockstep, each
    on pairs drawn within its topic from one relevance matrix of all
    topics, as cross_validated_fusion's folds are.

    Returns a list of rows {topic_id, status, n_relevant, ndcg_ideal,
    ndcg_query}; status is one of ok, skipped_no_relevant,
    skipped_single_relevant, skipped_all_relevant, skipped_empty_query."""
    batch = pegasos_batch(pair_samples)
    topic_ids = sorted(queries)
    labels = _relevance_labels(qrels, topic_ids, entity_ids)
    rows = []
    for tid, relevant in zip(topic_ids, labels):
        n_rel = len(qrels.relevant(tid))
        # relevant ids outside entity_ids do not count towards the two needed
        status = ("skipped_no_relevant" if n_rel == 0
                  else "skipped_single_relevant" if relevant.sum() < 2
                  else "skipped_all_relevant" if relevant.all()
                  else "skipped_empty_query" if not queries[tid] else "ok")
        rows.append({"topic_id": tid, "status": status, "n_relevant": n_rel,
                     "ndcg_ideal": None, "ndcg_query": None})
    eligible = [index for index, row in enumerate(rows) if row["status"] == "ok"]
    if not eligible:
        return rows
    steps = _pair_steps(labels, np.broadcast_to(np.arange(len(entity_ids)), labels.shape),
                        [[i] for i in eligible], [_spawned_seed(seed, (11, i)) for i in eligible],
                        pair_samples, batch)
    norms = np.linalg.norm(params.W_e, axis=1)
    # the fits train on unit rows (zero rows kept zero) in float64, the
    # dtype of their weights, so that no Pegasos step casts the rows
    unit = np.divide(params.W_e, norms[:, None], out=np.zeros(params.W_e.shape),
                     where=norms[:, None] > 0)
    weights = _pegasos(unit, steps, len(eligible), batch=batch)
    for index, w in zip(eligible, weights):
        tid = topic_ids[index]
        ideal_run = rank_by_vector(params.W_e, w, entity_ids, tid, cutoff, norms)
        query_run = rank_entities(params, queries[tid], entity_ids, tid, cutoff, norms)
        rows[index]["ndcg_ideal"] = ndcg(ideal_run, qrels, cutoff)
        rows[index]["ndcg_query"] = ndcg(query_run, qrels, cutoff)
    return rows
