"""Ground truth handling and measurement: NDCG, Precision@k and the paired
t-test."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateStatisticError
from .files import check_id, check_unique, read_lines


@dataclass
class TopicSet:
    """topic_id -> query string."""

    topics: dict

    @classmethod
    def load(cls, path):
        """TSV whose first non-blank line is the header 'topic_id<TAB><label>'
        (the label is not read); empty is an empty set; ids pass check_id."""
        topics, first_line = {}, {}
        header = False
        for number, line in read_lines(path):
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{number}: expected 2 tab-separated fields")
            if not header:
                if parts[0] != "topic_id":
                    raise DataError(f"{path}:{number}: missing header row")
                header = True
            else:
                check_unique(first_line, parts[0], path, number, "topic id {!r}")
                check_id(parts[0], f"{path}:{number}", "topic id")
                topics[parts[0]] = parts[1]
        return cls(topics)


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

    def relevant(self, topic_id):
        return frozenset(self._relevant.get(topic_id, ()))

    def topics(self):
        return sorted({tid for tid, _ in self.grades})

    @classmethod
    def load(cls, path):
        """TREC qrels format: 'topic_id 0 entity_id grade', each (topic,
        entity) pair on one line only."""
        grades = {}
        first_line = {}
        for number, line in read_lines(path):
            parts = line.split()
            if len(parts) != 4:
                raise DataError(f"{path}:{number}: expected 4 fields")
            tid, _iter, eid, grade = parts
            if grade not in ("0", "1"):
                raise DataError(f"{path}:{number}: relevance grade must be "
                                f"0 or 1, got {grade!r}")
            check_unique(first_line, (tid, eid), path, number,
                         "entity {0[1]!r} for topic {0[0]!r}")
            grades[(tid, eid)] = int(grade)
        return cls(grades)


def ndcg(ranked, qrels, cutoff=100):
    """Binary-gain DCG at the cutoff over the ideal DCG.

    The discount at rank r (1-based) is 1/log2(r + 1); the ideal DCG counts
    the topic's full relevant set even when some of it is missing from the
    ranking. A cutoff below 1, or a topic without a relevant entity, has an
    ideal DCG of 0: a ZeroDivisionError.
    """
    rel = qrels.relevant(ranked.topic_id)
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
    missing: list     # qrels topics with a relevant entity but no run line


def evaluate_run(runs, qrels, cutoff=100, ks=(5, 10)):
    """Per-topic and mean NDCG@cutoff and P@k for every topic in runs, means
    over the scored topics only (trec_eval without -c); the qrels topics with
    a relevant entity that runs leaves out are listed as missing."""
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
    missing = [tid for tid in qrels.topics() if qrels.relevant(tid) and tid not in runs]
    return EvalReport(per_topic, means, excluded, missing)


def _betacf(a, b, x):
    """Continued fraction for the regularized incomplete beta (modified
    Lentz): each iteration updates d, c and h with its even coefficient,
    then with its odd one, and stops once the odd step's factor is 1 to 1e-15."""
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (fpmin if abs(d) < fpmin else d)
    h = d
    for m in range(1, 501):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            c = 1.0 + aa / c
            c = fpmin if abs(c) < fpmin else c
            d = 1.0 / (fpmin if abs(d) < fpmin else d)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
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

