"""Pairwise linear ranking: query-independent features (PageRank over
related-product graphs, price, description length, reciprocal sales rank),
RankSVM trained by stochastic gradient descent with balanced pair sampling,
10-fold cross-validated feature fusion, and the per-topic ideal-retrieval-
vector approximation."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .evaluation import compare_runs, evaluate_run
from .files import read_lines, read_records
from .model import project
from .qlm import score as qlm_score
from .retrieval import cosine_scores, rank_by_vector, ranked_from_scores
from .text import tokenize

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


@dataclass(frozen=True)
class RankerConfig:
    """RankSVM defaults: C=1.0 and 1e5 sampled pairs. The objective is
    (1/(2C))|w|^2 plus the mean hinge over the pairs; step t has learning
    rate 1/(lambda t) with lambda = 1/C."""

    c: float = 1.0
    pair_samples: int = 100000
    seed: int = 0

    def __post_init__(self):
        if self.c <= 0 or self.pair_samples < 1:
            raise DataError("C must be positive and pair_samples at least 1")


def _pair_rows(labels, groups, config):
    """Row indices (relevant, non-relevant) of config.pair_samples pairs,
    seeded by config.seed.

    Pairs are formed within a group (groups=None treats all rows as one
    group): a relevant row is drawn uniformly over all groups' relevant rows
    and its partner uniformly with replacement from the same group's
    non-relevant rows, which balances the classes regardless of their raw
    distribution. Raises on single-class input."""
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

    rng = np.random.default_rng(config.seed)
    t_total = config.pair_samples
    pick = rng.integers(0, len(pos_pool), size=t_total)
    gcode = pos_group_code[pick]
    neg_local = np.floor(rng.random(t_total) * neg_counts[gcode]).astype(np.int64)
    return pos_pool[pick], neg_flat[neg_starts[gcode] + neg_local]


# Values (512 KB) per chunk of gathered pair differences: on a 2-vCPU x86-64
# host, ideal-vector ran 1.6x faster with chunks this size than with 8 MB.
_CHUNK_VALUES = 1 << 16


def _pegasos(rows, pairs, lam, center=None, scale=None):
    """Weights (K, width) of K RankSVM fits trained in lockstep.

    pairs[k] is fit k's (pos, neg) row indices, all of one length. Step t of
    fit k takes d = rows[pos[t-1]] - rows[neg[t-1]] (rows z-scored by
    center[k], scale[k] when given) and does the single-fit update: active =
    d.w < 1, w *= 1 - 1/t, w += d / (lam[k] t) if active. A step costs the
    same few NumPy calls for any K, and each fit's weights are bit-identical
    to training it alone. Differences are gathered (steps, K, width)."""
    pos, neg = (np.stack(side, axis=1) for side in zip(*pairs))
    lam = np.asarray(lam, dtype=np.float64)
    weights = np.zeros((pos.shape[1], rows.shape[1]))
    steps = max(1, _CHUNK_VALUES // weights.size)
    for lo in range(0, len(pos), steps):
        a, b = rows[pos[lo:lo + steps]], rows[neg[lo:lo + steps]]
        if center is not None:
            a, b = (a - center) / scale, (b - center) / scale
        diffs = a - b
        t = np.arange(lo + 1, lo + len(diffs) + 1, dtype=np.float64)
        updates = (1.0 / (lam * t[:, None]))[:, :, None] * diffs
        for d, u, decay in zip(diffs, updates, (1.0 - 1.0 / t).tolist()):
            active = np.vecdot(d, weights, keepdims=True) < 1.0
            weights *= decay
            np.add(weights, u, out=weights, where=active)
    return weights


@dataclass
class QIData:
    """Optional per-entity attributes and related-product graphs.

    attributes maps entity_id -> {price, sales_rank, description_length}
    with missing values as None; graphs maps a name from GRAPH_NAMES to an
    edge list of (src_entity_id, dst_entity_id).
    """

    attributes: dict = field(default_factory=dict)
    graphs: dict = field(default_factory=dict)


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


def qi_feature_matrix(corpus, qi):
    """Per-entity query-independent block: the 7 value features followed by
    the 3 presence masks. Missing attributes are imputed as 0 with the mask
    cleared; graph edges naming unknown entities are dropped."""
    n = corpus.num_entities
    out = np.zeros((n, len(QI_VALUE_FEATURES) + len(QI_MASK_FEATURES)))
    attributes = qi.attributes if qi else {}
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
    graphs = qi.graphs if qi else {}
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
            elif block == "qlm":
                cols.append(self.feature_names.index("qlm"))
            elif block == "lse":
                cols.append(self.feature_names.index("lse"))
            else:
                raise DataError(f"unknown feature block {block!r}")
        return np.asarray(cols, dtype=np.intp)


def build_features(topics, corpus, vocab, qlm_model, params, qi=None):
    """Assemble per-(topic, entity) feature rows over the full entity pool.

    Columns: the QI block, then the lexical log-likelihood, then the cosine
    of the projected query. A query whose tokens are all out of vocabulary
    gets zero query-dependent columns; a -inf lexical score is replaced by
    (the topic's smallest finite score - 1)."""
    names = QI_VALUE_FEATURES + QI_MASK_FEATURES + ("qlm", "lse")
    qi_block = qi_feature_matrix(corpus, qi)
    n = corpus.num_entities
    norms = None if params is None else np.linalg.norm(params.W_e, axis=1)
    matrices = {}
    for tid in sorted(topics):
        qids = vocab.encode(tokenize(topics[tid]))
        qlm_col = np.zeros(n)
        lse_col = np.zeros(n)
        if qids:
            qlm_col = np.array([qlm_score(qlm_model, i, qids) for i in range(n)])
            finite = qlm_col[np.isfinite(qlm_col)]
            if len(finite) == 0:
                qlm_col = np.zeros(n)
            elif len(finite) < n:
                qlm_col[~np.isfinite(qlm_col)] = finite.min() - 1.0
            if params is not None:
                lse_col = cosine_scores(params.W_e, project(params, qids), norms)
        matrices[tid] = np.column_stack([qi_block, qlm_col, lse_col])
    return FeatureTable(names, list(corpus.entities), sorted(topics), matrices)


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
    folds: int
    seed: int


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
                           ranker_config=None):
    """Run the four feature combinations under a seeded topic-level fold
    partition; per fold, train on the other folds' topics and score the held
    out ones. Features are z-scored with statistics fit on training folds
    only, and a combination's folds train in lockstep. Significance compares
    the full combination against qi+qlm by a paired t-test per metric."""
    topics = list(table.topics)
    depth = max((cutoff, *ks))
    if folds < 2:
        raise DataError(f"cross-validation needs at least 2 folds, got {folds}")
    if len(topics) < folds:
        raise DataError(f"need at least {folds} topics for {folds}-fold cross-validation")
    base_config = ranker_config or RankerConfig()
    partition = _fold_partition(topics, folds, seed)
    n = len(table.entity_ids)
    labels = np.array([_relevance_labels(qrels, tid, table.entity_ids)
                       for tid in topics])

    rows, reports = [], []
    for combo_index, combo in enumerate(COMBOS):
        cols = table.columns_for(combo)
        # every topic's rows, topic-major; a fold trains on some topics' blocks
        stacked = np.concatenate([table.matrices[tid][:, cols] for tid in topics])
        pairs, stats = [], []
        for fold_index, heldout in enumerate(partition):
            train = [p for p, tid in enumerate(topics) if tid not in heldout]
            index = (n * np.array(train)[:, None] + np.arange(n)).ravel()
            stats.append(_standardize_fit(stacked[index]))
            cfg = RankerConfig(c=base_config.c, pair_samples=base_config.pair_samples,
                               seed=_spawned_seed(seed, (combo_index, fold_index)))
            p, q = _pair_rows(labels[train].ravel(), np.repeat(np.arange(len(train)), n),
                              cfg)
            pairs.append((index[p], index[q]))
        means, stds = (np.array(side) for side in zip(*stats))
        weights = _pegasos(stacked, pairs, [1.0 / base_config.c] * folds, means, stds)
        runs = {}
        for heldout, mean, std, w in zip(partition, means, stds, weights):
            for tid in heldout:
                scores = ((table.matrices[tid][:, cols] - mean) / std) @ w
                runs[tid] = ranked_from_scores(tid, table.entity_ids, scores, depth)
        report = evaluate_run(runs, qrels, cutoff=cutoff, ks=ks)
        reports.append(report)
        rows.append({"features": "+".join(combo),
                     "means": report.means,
                     "per_topic": report.per_topic,
                     "excluded": report.excluded})

    significance = compare_runs(reports[COMBOS.index(("qi", "qlm", "lse"))],
                                reports[COMBOS.index(("qi", "qlm"))])
    return FusionReport(rows, significance, folds, seed)


def _unit_rows(w_e):
    """(w_e's rows over their L2 norms, zero rows kept zero; the norms)."""
    norms = np.linalg.norm(w_e, axis=1)
    return np.divide(w_e, norms[:, None], out=np.zeros_like(w_e),
                     where=norms[:, None] > 0), norms


def ideal_vector_report(params, vocab, topics, qrels, entity_ids, cutoff=100,
                        config=None):
    """Per-topic comparison of the ideal-vector ranking against the
    projected-query ranking; eligible topics' ideal vectors train in lockstep.

    Returns a list of rows {topic_id, status, n_relevant, ndcg_ideal,
    ndcg_query}; status is one of ok, skipped_single_relevant,
    skipped_no_relevant, skipped_empty_query."""
    from .evaluation import ndcg as ndcg_fn

    base_config = config or RankerConfig()
    rows = []
    queries, pairs = [], []  # per eligible topic
    for index, tid in enumerate(sorted(topics)):
        n_rel = len(qrels.relevant(tid))
        labels = _relevance_labels(qrels, tid, entity_ids)
        qids = vocab.encode(tokenize(topics[tid]))
        # relevant ids outside entity_ids do not count towards the two needed
        status = ("skipped_no_relevant" if n_rel == 0
                  else "skipped_single_relevant" if labels.sum() < 2
                  else "skipped_empty_query" if not qids else "ok")
        row = {"topic_id": tid, "status": status, "n_relevant": n_rel,
               "ndcg_ideal": None, "ndcg_query": None}
        rows.append(row)
        if status == "ok":
            cfg = RankerConfig(c=base_config.c, pair_samples=base_config.pair_samples,
                               seed=_spawned_seed(base_config.seed, (11, index)))
            queries.append((row, qids))
            pairs.append(_pair_rows(labels, None, cfg))
    if not queries:
        return rows
    w_e = np.asarray(params.W_e, dtype=np.float64)
    unit, norms = _unit_rows(w_e)
    weights = _pegasos(unit, pairs, [1.0 / base_config.c] * len(pairs))
    for (row, qids), w in zip(queries, weights):
        tid = row["topic_id"]
        ideal_run = rank_by_vector(w_e, w, entity_ids, tid, cutoff, norms)
        query_run = rank_by_vector(w_e, project(params, qids), entity_ids, tid,
                                   cutoff, norms)
        row["ndcg_ideal"] = ndcg_fn(ideal_run, qrels, cutoff)
        row["ndcg_query"] = ndcg_fn(query_run, qrels, cutoff)
    return rows
