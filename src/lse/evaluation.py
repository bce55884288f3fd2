"""Ground truth handling and measurement: NDCG, Precision@k, the paired
t-test, rank correlations, a permutation test, and the per-topic IDF
analysis of lexically matched query terms."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateStatisticError
from .files import atomic_open, read_lines
from .text import tokenize


@dataclass
class TopicSet:
    """topic_id -> query string, tagged with the split it belongs to."""

    topics: dict
    split: str = "test"

    @classmethod
    def load(cls, path):
        """TSV whose first non-blank line is a header naming the split:
        'topic_id<TAB><split>'. An empty file is an empty test set."""
        topics = {}
        split = None
        for number, line in read_lines(path):
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{number}: expected 2 tab-separated fields")
            if split is None:
                if parts[0] != "topic_id":
                    raise DataError(f"{path}:{number}: missing header row")
                split = parts[1]
            elif parts[0] in topics:
                raise DataError(f"{path}:{number}: duplicate topic id {parts[0]!r}")
            else:
                topics[parts[0]] = parts[1]
        return cls(topics, "test" if split is None else split)

    def save(self, path):
        with atomic_open(path) as fh:
            fh.write(f"topic_id\t{self.split}\n")
            for tid, query in self.topics.items():
                fh.write(f"{tid}\t{query}\n")


class Qrels:
    """Binary relevance grades keyed by (topic_id, entity_id)."""

    def __init__(self, grades):
        self.grades = {}
        self._relevant = {}
        for (tid, eid), grade in grades.items():
            grade = int(grade)
            if grade not in (0, 1):
                raise DataError(f"relevance grade must be 0 or 1, got {grade}")
            self.grades[(tid, eid)] = grade
            if grade:
                self._relevant.setdefault(tid, set()).add(eid)

    def grade(self, topic_id, entity_id):
        return self.grades.get((topic_id, entity_id), 0)

    def relevant(self, topic_id):
        return frozenset(self._relevant.get(topic_id, ()))

    def topics(self):
        return sorted({tid for tid, _ in self.grades})

    @classmethod
    def load(cls, path):
        """TREC qrels format: 'topic_id 0 entity_id grade'."""
        grades = {}
        for number, line in read_lines(path):
            parts = line.split()
            if len(parts) != 4:
                raise DataError(f"{path}:{number}: expected 4 fields")
            tid, _iter, eid, grade = parts
            if grade not in ("0", "1"):
                raise DataError(f"{path}:{number}: relevance grade must be "
                                f"0 or 1, got {grade!r}")
            grades[(tid, eid)] = int(grade)
        return cls(grades)

    def save(self, path):
        with atomic_open(path) as fh:
            for (tid, eid), grade in sorted(self.grades.items()):
                fh.write(f"{tid} 0 {eid} {grade}\n")


def ndcg(ranked, qrels, cutoff=100):
    """Binary-gain DCG at the cutoff over the ideal DCG.

    The discount at rank r (1-based) is 1/log2(r + 1); the ideal DCG counts
    the topic's full relevant set even when some of it is missing from the
    ranking. Raises DataError for a topic with no relevant entities.
    """
    rel = qrels.relevant(ranked.topic_id)
    if not rel:
        raise DataError(f"topic {ranked.topic_id!r} has no relevant entities")
    dcg = 0.0
    for r, (eid, _score) in enumerate(ranked.entries[:cutoff], start=1):
        if eid in rel:
            dcg += 1.0 / math.log2(r + 1)
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(rel), cutoff) + 1))
    return dcg / ideal


def precision_at_k(ranked, qrels, k):
    """Relevant fraction of the top k; the denominator is k even when the
    ranking is shorter."""
    if k < 1:
        raise DataError("k must be at least 1")
    rel = qrels.relevant(ranked.topic_id)
    hits = sum(1 for eid, _ in ranked.entries[:k] if eid in rel)
    return hits / k


@dataclass
class EvalReport:
    per_topic: dict   # topic_id -> {metric: value}
    means: dict       # metric -> mean over included topics
    excluded: list    # topic ids with no relevant entity
    cutoff: int


def evaluate_run(runs, qrels, cutoff=100, ks=(5, 10)):
    """Per-topic and mean NDCG@cutoff and P@k for every topic in runs."""
    per_topic = {}
    excluded = []
    for tid in sorted(runs):
        if not qrels.relevant(tid):
            excluded.append(tid)
            continue
        row = {f"ndcg@{cutoff}": ndcg(runs[tid], qrels, cutoff)}
        for k in ks:
            row[f"p@{k}"] = precision_at_k(runs[tid], qrels, k)
        per_topic[tid] = row
    metrics = [f"ndcg@{cutoff}"] + [f"p@{k}" for k in ks]
    means = {}
    for metric in metrics:
        vals = [row[metric] for row in per_topic.values()]
        means[metric] = sum(vals) / len(vals) if vals else None
    return EvalReport(per_topic, means, excluded, cutoff)


def _betacf(a, b, x):
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    max_iter = 500
    eps = 1e-15
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise DegenerateStatisticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b), accurate to about 1e-10 over the t-test parameter range."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t, df):
    """Two-sided p for a Student t statistic with df degrees of freedom."""
    if df < 1:
        raise DataError("degrees of freedom must be at least 1")
    x = df / (df + float(t) * float(t))
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def paired_t_test(per_topic_a, per_topic_b):
    """Paired Student t-test on matched per-topic values.

    Returns (t, two-sided p). Raises DegenerateStatisticError when the
    differences have zero variance.
    """
    a = np.asarray(per_topic_a, dtype=np.float64)
    b = np.asarray(per_topic_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("paired samples must be equal-length 1-d sequences")
    n = len(a)
    if n < 2:
        raise DataError("paired t-test needs at least 2 pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateStatisticError("differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    return t, student_t_two_sided_p(t, n - 1)


def significance_marker(p):
    """*** p<0.01, ** p<0.05, * p<0.1, empty otherwise."""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


def compare_runs(report, baseline):
    """Paired t-test of two EvalReports on each metric of report.means, over
    the topics both score: metric -> {"t", "p", "marker"}, or
    {"degenerate": reason} when the test is undefined."""
    shared = [tid for tid in report.per_topic if tid in baseline.per_topic]
    out = {}
    for metric in report.means:
        try:
            t, p = paired_t_test([report.per_topic[tid][metric] for tid in shared],
                                 [baseline.per_topic[tid][metric] for tid in shared])
            out[metric] = {"t": t, "p": p, "marker": significance_marker(p)}
        except (DataError, DegenerateStatisticError) as exc:
            out[metric] = {"degenerate": str(exc)}
    return out


def average_ranks(values):
    """1-based ranks with ties assigned the average of their positions."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    i = 0
    sv = v[order]
    while i < len(v):
        j = i
        while j + 1 < len(v) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _pearson(x, y):
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        raise DegenerateStatisticError("constant sequence has no defined correlation")
    return float(dx @ dy) / denom


def correlations(x, y):
    """(spearman r, pearson r); Spearman is Pearson on average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("correlation inputs must be equal-length 1-d sequences")
    if len(x) < 3:
        raise DataError("correlation needs at least 3 points")
    return _pearson(average_ranks(x), average_ranks(y)), _pearson(x, y)


def permutation_test_correlation(x, y, iterations=10000, seed=0, method="pearson"):
    """Two-sided permutation p-value for the correlation of x and y.

    Shuffles y; p = (1 + #{|r_perm| >= |r_obs|}) / (1 + iterations).
    Spearman permutes the rank transform (ranking commutes with
    permutation).
    """
    if iterations < 1000:
        raise DataError("permutation test needs at least 1000 iterations")
    if method not in ("pearson", "spearman"):
        raise DataError("method must be pearson or spearman")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("correlation inputs must be equal-length 1-d sequences")
    if method == "spearman":
        x = average_ranks(x)
        y = average_ranks(y)
    dx = x - x.mean()
    sx = math.sqrt(float(dx @ dx))
    dy = y - y.mean()
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateStatisticError("constant sequence has no defined correlation")
    # same arithmetic as the permuted statistics so exact ties count as hits
    r_obs = abs(float(dy @ dx)) / (sx * sy)
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 2048
    done = 0
    while done < iterations:
        size = min(chunk, iterations - done)
        perms = np.tile(y, (size, 1))
        rng.permuted(perms, axis=1, out=perms)
        # centering and scale are permutation-invariant
        r = np.abs((perms - y.mean()) @ dx) / (sx * sy)
        hits += int(np.count_nonzero(r >= r_obs))
        done += size
    return (1 + hits) / (1 + iterations)


def idf_match_analysis(corpus, vocab, topics, qrels):
    """Per topic, the mean IDF of distinct query terms that occur in at
    least one relevant entity's profile.

    IDF(t) = ln(N / df(t)) with N the number of entity profiles and df the
    number of profiles containing t. Returns (per_topic, unmatched) where
    unmatched lists topics with no lexically matched term.
    """
    n_profiles = corpus.num_entities
    profile_sets = []
    df = {}
    for i in range(n_profiles):
        toks = set(corpus.profile_tokens(i).tolist())
        profile_sets.append(toks)
        for t in toks:
            df[t] = df.get(t, 0) + 1
    per_topic = {}
    unmatched = []
    for tid in sorted(topics):
        qids = []
        seen = set()
        for t in vocab.encode(tokenize(topics[tid])):
            if t not in seen:
                seen.add(t)
                qids.append(t)
        rel_idx = [corpus.entity_index[eid] for eid in qrels.relevant(tid)
                   if eid in corpus.entity_index]
        matched = [t for t in qids
                   if any(t in profile_sets[e] for e in rel_idx)]
        if not matched:
            unmatched.append(tid)
            continue
        per_topic[tid] = sum(math.log(n_profiles / df[t]) for t in matched) / len(matched)
    return per_topic, unmatched
