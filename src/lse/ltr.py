"""Pairwise linear ranking: query-independent features (PageRank over
related-product graphs, price, description length, reciprocal sales rank),
RankSVM (Joachims, KDD 2002) trained by mini-batch Pegasos over balanced
pair samples, 10-fold cross-validated feature fusion, and the per-topic
ideal-retrieval-vector approximation."""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .evaluation import check_cutoff, compare_runs, evaluate_run, ndcg
from .files import read_lines, read_records
from .model import project
from .qlm import score as qlm_score
from .retrieval import cosine_scores, rank_by_vector, ranked_from_scores

GRAPH_NAMES = ("also_bought", "also_viewed", "bought_together", "buy_after_viewing")

QI_VALUE_FEATURES = ("price", "description_length", "reciprocal_sales_rank",
                     "pagerank_also_bought", "pagerank_also_viewed",
                     "pagerank_bought_together", "pagerank_buy_after_viewing")
QI_MASK_FEATURES = ("price_present", "description_length_present",
                    "sales_rank_present")


def pagerank(num_nodes, edges, damping=0.85, tol=1e-10, max_iter=200):
    """Power iteration on the column-stochastic transition with uniform
    teleport; dangling mass is redistributed uniformly. Stops when the L1
    change drops below tol or at max_iter. An empty edge list gives uniform
    scores."""
    if not 0.0 < damping < 1.0:
        raise DataError("damping must lie strictly between 0 and 1")
    if num_nodes < 1:
        raise DataError("graph needs at least one node")
    if not edges:
        return np.full(num_nodes, 1.0 / num_nodes)
    src = np.asarray([e[0] for e in edges], dtype=np.intp)
    dst = np.asarray([e[1] for e in edges], dtype=np.intp)
    if src.min() < 0 or dst.min() < 0 or src.max() >= num_nodes or dst.max() >= num_nodes:
        raise DataError("edge endpoint out of range")
    outdeg = np.bincount(src, minlength=num_nodes).astype(np.float64)
    dangling = outdeg == 0
    p = np.full(num_nodes, 1.0 / num_nodes)
    for _ in range(max_iter):
        contrib = p[src] / outdeg[src]
        new = np.bincount(dst, weights=contrib, minlength=num_nodes)
        new = damping * (new + p[dangling].sum() / num_nodes) + (1.0 - damping) / num_nodes
        delta = float(np.abs(new - p).sum())
        p = new
        if delta < tol:
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
    than 2 _MIN_STEPS."""
    return max(1, pair_samples // _MIN_STEPS)


def _pair_rows(labels, groups, pair_samples, seed):
    """Row indices (relevant, non-relevant) of pair_samples pairs (at least
    1), drawn by a generator seeded with seed.

    Pairs are formed within a group (groups=None treats all rows as one
    group): a relevant row is drawn uniformly over all groups' relevant rows
    and its partner uniformly with replacement from the same group's
    non-relevant rows, which balances the classes regardless of their raw
    distribution. Raises on single-class input."""
    if pair_samples < 1:
        raise DataError(f"pair_samples must be at least 1, got {pair_samples}")
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
    if not pos_pool:
        if len(np.unique(labels)) < 2:
            raise DataError("training data has a single class")
        raise DataError("no group contains both a relevant and a non-relevant row")
    pos_pool = np.concatenate(pos_pool)
    pos_group_code = np.concatenate(pos_group_code)
    neg_counts = np.array([len(neg) for neg in neg_lists], dtype=np.int64)
    neg_starts = np.zeros(len(neg_lists), dtype=np.int64)
    np.cumsum(neg_counts[:-1], out=neg_starts[1:])
    neg_flat = np.concatenate(neg_lists)

    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(pos_pool), size=pair_samples)
    gcode = pos_group_code[pick]
    neg_local = np.floor(rng.random(pair_samples) * neg_counts[gcode]).astype(np.int64)
    return pos_pool[pick], neg_flat[neg_starts[gcode] + neg_local]


# Values (512 KB) per gathered block of pair differences: a bound on the
# memory the gathered step sum takes whatever the batch, fits and width.
_CHUNK_VALUES = 1 << 16


def _index_dtype(num_rows):
    """int32 for pair indices into num_rows rows when it fits, else intp."""
    return np.int32 if num_rows <= np.iinfo(np.int32).max else np.intp


def _pegasos(rows, pos, neg, center=None, scale=None, mask=None, batch=1):
    """Weights (K, width) of K RankSVM fits trained in lockstep by mini-batch
    Pegasos (Shalev-Shwartz, Singer, Srebro & Cotter, Math. Programming 2011,
    section 2.3). Each fit minimises (1/2)|w|^2 plus the mean hinge over its
    pairs: RankSVM at C = 1, which is Pegasos at lambda = 1.

    pos and neg are (pairs, K) row indices. Pair i of fit k has the
    difference d = rows[pos[i, k]] - rows[neg[i, k]], of rows z-scored by
    center[k], scale[k] when given. Step t takes the batch B of pairs
    (t-1)b .. tb-1 (the last one may be shorter) and sets w = (1 - 1/t) w +
    (sum of the d in B with d.w < 1) / (t |B|), every margin measured
    against the weights before the step, and the sum set to 0 where the
    boolean mask[k] is False, so that w stays 0 there. A step costs the same
    few NumPy calls for any K.

    The step sums come from _scored_steps when R < 2b, else from
    _gathered_steps. Scoring is the faster source, but it holds (K, R)
    tables per step where gathering holds byte-bounded blocks; R < 2b keeps
    those tables smaller than the 2 b K rows the step reads. At b = 1 the
    gathered sum is d itself and this is the single-pair loop: each fit's
    weights are bit-identical to training it alone on its mask's columns
    while the dot product sums in column order, so that the masked columns'
    zero products change no sum (OpenBLAS's does below 16 columns)."""
    weights = np.zeros((pos.shape[1], rows.shape[1]))
    unused = None if mask is None else ~np.asarray(mask, dtype=bool)
    steps = _scored_steps if len(rows) < 2 * batch else _gathered_steps
    for t, (total, active, size) in enumerate(
            steps(rows, pos, neg, batch, weights, center, scale), start=1):
        if unused is not None:
            total[unused] = 0.0
        weights *= 1.0 - 1.0 / t
        total *= 1.0 / (t * size)
        np.add(weights, total, out=weights, where=active)
    return weights


def _gathered_steps(rows, pos, neg, batch, weights, center, scale):
    """Yield each step's (K, width) sum of its active pairs' d, a (K, 1) flag
    of fits with an active pair, and the step's pair count, against the
    weights as they are when the step is asked for.

    The pairs' rows are gathered in blocks of at most _CHUNK_VALUES values,
    each several whole steps or a part of one step, and z-scored in place; a
    step's margins and sum are taken on its rows in each block."""
    block = max(1, _CHUNK_VALUES // weights.size)
    if block >= batch:
        block -= block % batch
    total = active = None
    for lo in range(0, len(pos), block):
        diffs = np.take(rows, pos[lo:lo + block], axis=0)
        others = np.take(rows, neg[lo:lo + block], axis=0)
        if center is not None:
            for side in (diffs, others):
                np.subtract(side, center, out=side)
                np.divide(side, scale, out=side)
        np.subtract(diffs, others, out=diffs)
        start, hi = lo, lo + len(diffs)
        while start < hi:
            first = start - start % batch  # the step's first pair
            last = min(first + batch, len(pos))
            end = min(hi, last)
            d = diffs[start - lo:end - lo]
            hits = (np.vecdot(d, weights) < 1.0).T.astype(np.float64)
            # the pairs run along the last axis of a C-ordered (K, width, n)
            # block, so that each sum adds in the same order whatever K and
            # width are
            part = np.multiply(d.transpose(1, 2, 0), hits[:, None, :],
                               order="C").sum(axis=-1)
            hit = hits.any(axis=1, keepdims=True)
            if total is None:
                total, active = part, hit
            else:
                total += part
                active |= hit
            if end == last:
                yield total, active, last - first
                total = active = None
            start = end


def _scored_steps(rows, pos, neg, batch, weights, center, scale):
    """Yield what _gathered_steps does, scoring every row once per step
    instead of gathering pairs.

    Fit k's z-scored rows score rows @ (w_k / scale[k]) less a constant that
    the margins S[p] - S[q] cancel, and the sum of its active pairs' d is the
    (K, R) signed count of their rows times rows, over scale[k]."""
    fits, num_rows = weights.shape[0], len(rows)
    offsets = np.arange(fits) * num_rows
    fit = np.arange(fits)
    for lo in range(0, len(pos), batch):
        p, q = pos[lo:lo + batch], neg[lo:lo + batch]
        scores = rows @ (weights if scale is None else weights / scale).T
        hits = scores[p, fit] - scores[q, fit] < 1.0
        counts = (np.bincount((p + offsets)[hits], minlength=fits * num_rows)
                  - np.bincount((q + offsets)[hits], minlength=fits * num_rows))
        total = counts.reshape(fits, num_rows) @ rows
        if scale is not None:
            total /= scale
        yield total, hits.any(axis=0)[:, None], len(p)


# Attribute record fields, each optional: (JSON type, None) as read_records
# takes it.
_ATTRIBUTES = {"price": (float, None), "sales_rank": (int, None),
               "description_length": (int, None)}


def load_qi_attributes(path):
    """JSON-lines: {"entity_id": str, "price": real?, "sales_rank": int?,
    "description_length": int?}; a value of another type is a DataError
    naming the file and line."""
    return {rec["entity_id"]: {name: rec.get(name) for name in _ATTRIBUTES}
            for _, rec in read_records(path, {"entity_id": str, **_ATTRIBUTES})}


def load_graph(path):
    """Edge-list TSV: src_entity <TAB> dst_entity."""
    edges = []
    for number, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{number}: expected 2 tab-separated fields")
        edges.append((parts[0], parts[1]))
    return edges


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
    for k, name in enumerate(GRAPH_NAMES):
        edges = []
        for sid, did in graphs.get(name, ()):
            si = corpus.entity_index.get(sid)
            di = corpus.entity_index.get(did)
            if si is not None and di is not None:
                edges.append((si, di))
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
            elif block in ("qlm", "lse") and block in self.feature_names:
                cols.append(self.feature_names.index(block))
            else:
                raise DataError(f"no feature block {block!r} in the table")
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
    """Column means and standard deviations. A column whose plain statistics
    overflow (finite values near 1e154 or more) is divided by its largest
    magnitude first and its statistics scaled back."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = matrix.mean(axis=0), matrix.std(axis=0)
    wide = ~(np.isfinite(mean) & np.isfinite(std))
    if wide.any():
        scale = np.abs(matrix[:, wide]).max(axis=0)
        scaled = matrix[:, wide] / scale
        mean[wide], std[wide] = scaled.mean(axis=0) * scale, scaled.std(axis=0) * scale
    std = np.where(std > 0, std, 1.0)  # constant columns center to zero
    return mean, std


@dataclass
class FusionReport:
    rows: list          # {"features", "means", "per_topic"}
    significance: dict  # metric -> {"t", "p", "marker"} or {"degenerate"}


COMBOS = (("qi",), ("qi", "qlm"), ("qi", "lse"), ("qi", "qlm", "lse"))


def _fold_partition(topics, folds, seed):
    order = list(topics)
    np.random.default_rng(seed).shuffle(order)
    return [order[i::folds] for i in range(folds)]


def _relevance_labels(qrels, topic_id, entity_ids):
    rel = qrels.relevant(topic_id)
    return np.array([1 if eid in rel else 0 for eid in entity_ids], dtype=np.int64)


def _spawned_seed(entropy, spawn_key):
    return int(np.random.SeedSequence(entropy=entropy,
                                      spawn_key=spawn_key).generate_state(1)[0])


def cross_validated_fusion(table, qrels, folds=10, seed=0, cutoff=100, ks=(5, 10),
                           pair_samples=PAIR_SAMPLES):
    """Run the feature combinations of COMBOS whose blocks the table has
    under a seeded topic-level fold partition; per fold, train on the other
    folds' topics, with a RankSVM of pair_samples pairs, and score the held
    out ones. Features are z-scored with
    statistics fit on training folds only, and every combination's folds
    train in one lockstep loop. Significance compares the full combination
    against qi+qlm by a paired t-test per metric; without an lse column each
    metric's entry is degenerate."""
    topics = list(table.topics)
    depth = max((cutoff, *ks))
    if folds < 2:
        raise DataError(f"cross-validation needs at least 2 folds, got {folds}")
    if len(topics) < folds:
        raise DataError(f"need at least {folds} topics for {folds}-fold cross-validation")
    check_cutoff(cutoff)
    partition = _fold_partition(topics, folds, seed)
    combos = [combo for combo in COMBOS
              if all(block == "qi" or block in table.feature_names for block in combo)]
    n = len(table.entity_ids)
    labels = np.array([_relevance_labels(qrels, tid, table.entity_ids)
                       for tid in topics])
    # every topic's rows, topic-major; a fold trains on some topics' blocks
    stacked = np.concatenate([table.matrices[tid] for tid in topics])
    train_sets, stats = [], []
    for heldout in partition:
        train = [p for p, tid in enumerate(topics) if tid not in heldout]
        index = (n * np.array(train)[:, None] + np.arange(n)).ravel()
        train_sets.append((index, labels[train].ravel(),
                           np.repeat(np.arange(len(train)), n)))
        stats.append(_standardize_fit(stacked[index]))
    fits = [(combo, f) for combo in combos for f in range(folds)]
    masks = np.zeros((len(fits), stacked.shape[1]), dtype=bool)
    pos = np.empty((pair_samples, len(fits)), dtype=_index_dtype(len(stacked)))
    neg = np.empty_like(pos)
    for k, (combo, f) in enumerate(fits):
        masks[k, table.columns_for(combo)] = True
        index, train_labels, groups = train_sets[f]
        p, q = _pair_rows(train_labels, groups, pair_samples,
                          _spawned_seed(seed, (COMBOS.index(combo), f)))
        pos[:, k], neg[:, k] = index[p], index[q]
    # a fit is z-scored by its fold's statistics on every column and the mask
    # keeps its own; a column's statistics over C-ordered rows do not depend
    # on the other columns, so they equal those of the combination's alone
    centers, scales = (np.array(side)[[f for _, f in fits]] for side in zip(*stats))
    weights = _pegasos(stacked, pos, neg, centers, scales, masks,
                       batch=pegasos_batch(pair_samples))

    runs = {combo: {} for combo in combos}
    for (combo, f), w, mean, std in zip(fits, weights, centers, scales):
        cols = table.columns_for(combo)
        for tid in partition[f]:
            scores = ((table.matrices[tid][:, cols] - mean[cols]) / std[cols]) @ w[cols]
            runs[combo][tid] = ranked_from_scores(tid, table.entity_ids, scores, depth)
    reports = {combo: evaluate_run(runs[combo], qrels, cutoff=cutoff, ks=ks)
               for combo in combos}
    rows = [{"features": "+".join(combo), "means": report.means,
             "per_topic": report.per_topic, "excluded": report.excluded}
            for combo, report in reports.items()]

    if ("qi", "qlm", "lse") in reports:
        significance = compare_runs(reports["qi", "qlm", "lse"], reports["qi", "qlm"])
    else:
        significance = {metric: {"degenerate": "no model was given, so there is no "
                                               "qi+qlm+lse run to compare"}
                        for metric in rows[0]["means"]}
    return FusionReport(rows, significance)


def _unit_rows(w_e):
    """(w_e's rows over their L2 norms, zero rows kept zero; the norms)."""
    norms = np.linalg.norm(w_e, axis=1)
    return np.divide(w_e, norms[:, None], out=np.zeros_like(w_e),
                     where=norms[:, None] > 0), norms


def ideal_vector_report(params, queries, qrels, entity_ids, cutoff=100,
                        pair_samples=PAIR_SAMPLES, seed=0):
    """Per-topic comparison of the ideal-vector ranking against the
    projected-query ranking for queries ({topic_id: token ids}); eligible
    topics' ideal vectors, RankSVMs of pair_samples pairs each, train in
    lockstep.

    Returns a list of rows {topic_id, status, n_relevant, ndcg_ideal,
    ndcg_query}; status is one of ok, skipped_single_relevant,
    skipped_no_relevant, skipped_empty_query."""
    check_cutoff(cutoff)
    rows = []
    eligible = []  # (row, qids, labels, pair seed) per topic with status ok
    for index, (tid, qids) in enumerate(sorted(queries.items())):
        n_rel = len(qrels.relevant(tid))
        labels = _relevance_labels(qrels, tid, entity_ids)
        # relevant ids outside entity_ids do not count towards the two needed
        status = ("skipped_no_relevant" if n_rel == 0
                  else "skipped_single_relevant" if labels.sum() < 2
                  else "skipped_empty_query" if not qids else "ok")
        row = {"topic_id": tid, "status": status, "n_relevant": n_rel,
               "ndcg_ideal": None, "ndcg_query": None}
        rows.append(row)
        if status == "ok":
            eligible.append((row, qids, labels, _spawned_seed(seed, (11, index))))
    if not eligible:
        return rows
    pos = np.empty((pair_samples, len(eligible)), dtype=_index_dtype(len(entity_ids)))
    neg = np.empty_like(pos)
    for k, (_, _, labels, pair_seed) in enumerate(eligible):
        pos[:, k], neg[:, k] = _pair_rows(labels, None, pair_samples, pair_seed)
    w_e = np.asarray(params.W_e, dtype=np.float64)
    unit, norms = _unit_rows(w_e)
    weights = _pegasos(unit, pos, neg, batch=pegasos_batch(pair_samples))
    for (row, qids, _, _), w in zip(eligible, weights):
        tid = row["topic_id"]
        ideal_run = rank_by_vector(w_e, w, entity_ids, tid, cutoff, norms)
        query_run = rank_by_vector(w_e, project(params, qids), entity_ids, tid,
                                   cutoff, norms)
        row["ndcg_ideal"] = ndcg(ideal_run, qrels, cutoff)
        row["ndcg_query"] = ndcg(query_run, qrels, cutoff)
    return rows
