"""Pairwise linear ranking: query-independent features (PageRank over
related-product graphs, price, description length, reciprocal sales rank),
RankSVM trained by stochastic gradient descent with balanced pair sampling,
10-fold cross-validated feature fusion, and the per-topic ideal-retrieval-
vector approximation."""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateStatisticError
from .evaluation import evaluate_run, paired_t_test, significance_marker
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
    """RankSVM defaults: C=1.0, 1e5 sampled pairs, step size 1/(C
    regularization * t)."""

    c: float = 1.0
    pair_samples: int = 100000
    seed: int = 0

    def __post_init__(self):
        if self.c <= 0 or self.pair_samples < 1:
            raise DataError("C must be positive and pair_samples at least 1")


@dataclass
class LinearRanker:
    weights: np.ndarray
    config: RankerConfig

    def scores(self, rows):
        return np.asarray(rows, dtype=np.float64) @ self.weights


def train_ranksvm(rows, labels, config=None, groups=None):
    """Pairwise hinge SGD over sampled (relevant, non-relevant) pairs.

    Pairs are formed within a group (groups=None treats all rows as one
    group): a relevant row is drawn uniformly over all groups' relevant rows
    and its partner uniformly with replacement from the same group's
    non-relevant rows, which balances the classes regardless of their raw
    distribution. The objective is (1/(2C))|w|^2 plus mean hinge; step t
    uses learning rate 1/(lambda_reg * t) with lambda_reg = 1/C. Seeded and
    deterministic. Raises on single-class input.
    """
    config = config or RankerConfig()
    rows = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if rows.ndim != 2 or len(rows) != len(labels):
        raise DataError("rows and labels disagree")
    groups = (np.zeros(len(rows), dtype=np.int64) if groups is None
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
    neg_rows = neg_flat[neg_starts[gcode] + neg_local]
    diffs = rows[pos_pool[pick]] - rows[neg_rows]

    lam = 1.0 / config.c
    w = np.zeros(rows.shape[1])
    for t in range(1, t_total + 1):
        d = diffs[t - 1]
        active = float(d @ w) < 1.0
        w *= 1.0 - 1.0 / t
        if active:
            w += (1.0 / (lam * t)) * d
    return LinearRanker(w, config)


@dataclass
class QIData:
    """Optional per-entity attributes and related-product graphs.

    attributes maps entity_id -> {price, sales_rank, description_length}
    with missing values as None; graphs maps a name from GRAPH_NAMES to an
    edge list of (src_entity_id, dst_entity_id).
    """

    attributes: dict = field(default_factory=dict)
    graphs: dict = field(default_factory=dict)


def _valid_attribute(name, value):
    """A missing or null value, a finite real price, or an integer (not bool)
    sales rank or description length."""
    if value is None:
        return True
    if isinstance(value, bool):
        return False
    if name == "price":
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, int)


def load_qi_attributes(path):
    """JSON-lines: {"entity_id": str, "price": real?, "sales_rank": int?,
    "description_length": int?}; a value of another type is a DataError
    naming the file and line."""
    attributes = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                eid = rec["entity_id"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno + 1}: invalid attribute record") from exc
            attrs = {name: rec.get(name)
                     for name in ("price", "sales_rank", "description_length")}
            for name, value in attrs.items():
                if not _valid_attribute(name, value):
                    kind = "a finite number" if name == "price" else "an integer"
                    raise DataError(f"{path}:{lineno + 1}: {name} must be {kind}, "
                                    f"got {value!r}")
            attributes[eid] = attrs
    return attributes


def load_graph(path):
    """Edge-list TSV: src_entity <TAB> dst_entity."""
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno + 1}: expected 2 tab-separated fields")
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
                lse_col = cosine_scores(params.W_e, project(params, qids))
        matrices[tid] = np.column_stack([qi_block, qlm_col, lse_col])
    return FeatureTable(names, list(corpus.entities), sorted(topics), matrices)


def _standardize_fit(matrix):
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
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


def cross_validated_fusion(table, qrels, folds=10, seed=0, cutoff=100, ks=(5, 10),
                           ranker_config=None):
    """Run the four feature combinations under a seeded topic-level fold
    partition; per fold, train on the other folds' topics and score the held
    out ones. Features are z-scored with statistics fit on training folds
    only. Significance compares the full combination against qi+qlm by a
    paired t-test per metric."""
    topics = list(table.topics)
    depth = max((cutoff, *ks))
    if len(topics) < folds:
        raise DataError(f"need at least {folds} topics for {folds}-fold cross-validation")
    base_config = ranker_config or RankerConfig()
    partition = _fold_partition(topics, folds, seed)
    topic_rows = {}
    for tid in topics:
        labels = np.array([1 if qrels.grade(tid, eid) else 0
                           for eid in table.entity_ids], dtype=np.int64)
        topic_rows[tid] = labels

    rows = []
    for combo_index, combo in enumerate(COMBOS):
        cols = table.columns_for(combo)
        runs = {}
        for fold_index, heldout in enumerate(partition):
            train_tids = [t for t in topics if t not in set(heldout)]
            train_parts = []
            label_parts = []
            group_parts = []
            for gi, tid in enumerate(train_tids):
                train_parts.append(table.matrices[tid][:, cols])
                label_parts.append(topic_rows[tid])
                group_parts.append(np.full(len(table.entity_ids), gi, dtype=np.int64))
            train_matrix = np.concatenate(train_parts)
            mean, std = _standardize_fit(train_matrix)
            cfg = RankerConfig(c=base_config.c, pair_samples=base_config.pair_samples,
                               seed=int(np.random.SeedSequence(
                                   entropy=seed, spawn_key=(combo_index, fold_index)
                               ).generate_state(1)[0]))
            ranker = train_ranksvm((train_matrix - mean) / std,
                                   np.concatenate(label_parts), cfg,
                                   groups=np.concatenate(group_parts))
            for tid in heldout:
                scores = ranker.scores((table.matrices[tid][:, cols] - mean) / std)
                runs[tid] = ranked_from_scores(tid, table.entity_ids, scores, depth)
        report = evaluate_run(runs, qrels, cutoff=cutoff, ks=ks)
        rows.append({"features": "+".join(combo),
                     "means": report.means,
                     "per_topic": report.per_topic,
                     "excluded": report.excluded})

    full = rows[COMBOS.index(("qi", "qlm", "lse"))]
    lexical = rows[COMBOS.index(("qi", "qlm"))]
    significance = {}
    shared = [tid for tid in full["per_topic"] if tid in lexical["per_topic"]]
    for metric in full["means"]:
        try:
            t, p = paired_t_test([full["per_topic"][tid][metric] for tid in shared],
                                 [lexical["per_topic"][tid][metric] for tid in shared])
            significance[metric] = {"t": t, "p": p, "marker": significance_marker(p)}
        except (DataError, DegenerateStatisticError):
            significance[metric] = {"degenerate": True}
    return FusionReport(rows, significance, folds, seed)


@dataclass
class IdealVector:
    topic_id: str
    vector: np.ndarray


def ideal_vector(topic_id, qrels, w_e, entity_ids, config=None):
    """Approximate the best retrieval direction for a topic by training a
    pairwise ranker whose features are the L2-normalized entity rows.

    Topics with fewer than two relevant entities are skipped (returns
    None)."""
    rel = qrels.relevant(topic_id)
    labels = np.array([1 if eid in rel else 0 for eid in entity_ids], dtype=np.int64)
    if int(labels.sum()) < 2:
        return None
    w_e = np.asarray(w_e, dtype=np.float64)
    norms = np.linalg.norm(w_e, axis=1, keepdims=True)
    features = np.divide(w_e, norms, out=np.zeros_like(w_e), where=norms > 0)
    ranker = train_ranksvm(features, labels, config)
    return IdealVector(topic_id, ranker.weights.copy())


def ideal_vector_report(params, vocab, topics, qrels, entity_ids, cutoff=100,
                        config=None):
    """Per-topic comparison of the ideal-vector ranking against the
    projected-query ranking.

    Returns a list of rows {topic_id, status, n_relevant, ndcg_ideal,
    ndcg_query}; status is one of ok, skipped_single_relevant,
    skipped_no_relevant, skipped_empty_query."""
    from .evaluation import ndcg as ndcg_fn

    tids = sorted(topics)
    base_config = config or RankerConfig()

    def run_topic(index):
        tid = tids[index]
        rel = qrels.relevant(tid)
        n_rel = len(rel)
        if n_rel == 0:
            return {"topic_id": tid, "status": "skipped_no_relevant",
                    "n_relevant": 0, "ndcg_ideal": None, "ndcg_query": None}
        if n_rel < 2:
            return {"topic_id": tid, "status": "skipped_single_relevant",
                    "n_relevant": n_rel, "ndcg_ideal": None, "ndcg_query": None}
        qids = vocab.encode(tokenize(topics[tid]))
        if not qids:
            return {"topic_id": tid, "status": "skipped_empty_query",
                    "n_relevant": n_rel, "ndcg_ideal": None, "ndcg_query": None}
        cfg = RankerConfig(c=base_config.c, pair_samples=base_config.pair_samples,
                           seed=int(np.random.SeedSequence(
                               entropy=base_config.seed, spawn_key=(11, index)
                           ).generate_state(1)[0]))
        ideal = ideal_vector(tid, qrels, params.W_e, entity_ids, cfg)
        ideal_run = rank_by_vector(params.W_e, ideal.vector, entity_ids, tid, cutoff)
        query_run = rank_by_vector(params.W_e, project(params, qids), entity_ids, tid,
                                   cutoff)
        return {"topic_id": tid, "status": "ok", "n_relevant": n_rel,
                "ndcg_ideal": ndcg_fn(ideal_run, qrels, cutoff),
                "ndcg_query": ndcg_fn(query_run, qrels, cutoff)}

    return [run_topic(i) for i in range(len(tids))]
