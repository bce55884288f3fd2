"""Release gate: nine end-to-end checks, one test each.

Every test pins its tolerance and its wall-clock budget inline, so a -v run
reads as a pass/fail line per check.
"""

import functools
import itertools
import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from conftest import (build_fusion_benchmark, build_separable_corpus,
                      documents, make_corpus, profile_counts, separable_topics)
from lse.cli import main
from lse.evaluation import (Qrels, evaluate_run, ndcg,
                            paired_t_test, precision_at_k)
from lse.ltr import build_features, cross_validated_fusion, ideal_vector_report
from lse.model import Dims, TrainConfig, batch_loss, init_params, save_model
from lse.qlm import SWEEP_GRID, estimate, score, sweep_lambda
from lse.retrieval import RankedList, rank_entities, write_run
from lse.sampling import InstanceBlock, SamplerConfig, sample_epoch
from lse.text import Vocabulary, encode_topics
from lse.training import _epoch_rng, train, write_epoch_log

SEPARABLE_CONFIG = dict(e_v=32, e_e=16, n=4, z=5, m=64, epochs=15, seed=0)


def random_block(rng, m, n, z, vocab_size, num_entities):
    return InstanceBlock(rng.integers(0, vocab_size, size=(m, n)),
                         rng.integers(0, num_entities, size=m),
                         rng.integers(0, num_entities, size=(m, z)))


def sigma(x):
    return 1.0 / (1.0 + math.exp(-x))


def direct_sigmoid_product_loss(params, block, weight_decay):
    """The training objective evaluated the obvious way: one probability
    per instance as a plain product of sigmoids, logged at the end."""
    m = len(block)
    total = 0.0
    for i in range(m):
        h = params.W_v[:, block.ngrams[i]].mean(axis=1)
        f = np.tanh(params.W @ h + params.b)
        prob = sigma(float(params.W_e[block.positives[i]] @ f))
        for neg in block.negatives[i]:
            prob *= 1.0 - sigma(float(params.W_e[neg] @ f))
        total += math.log(prob)
    reg = (weight_decay / (2.0 * m)) * (float((params.W_v ** 2).sum())
                                        + float((params.W ** 2).sum())
                                        + float((params.W_e ** 2).sum()))
    return -total / m + reg


@functools.lru_cache(maxsize=2)
def separable_training(precision):
    """Train once per precision on the separable benchmark; shared by
    several checks."""
    corpus, vocab = build_separable_corpus()
    result = train(corpus, vocab, TrainConfig(**SEPARABLE_CONFIG, precision=precision))
    return corpus, vocab, result


def rank_topics(params, vocab, corpus, topics):
    return {tid: rank_entities(params, ids, corpus.entities, tid)
            for tid, ids in encode_topics(topics, vocab).items()}


def test_criterion_1_gradient_fidelity(tmp_path):
    """The shipped grad-check: 10 seeds x weight decay {0, 0.01} on small
    random models, central differences with eps 1e-5."""
    start = time.perf_counter()
    main(["grad-check", "--seeds", "10", "--out", str(tmp_path)], standalone_mode=False)
    elapsed = time.perf_counter() - start
    worst = json.loads((tmp_path / "grad_check.json").read_text())["max_rel_err"]
    assert worst is not None and worst < 1e-4, f"max relative gradient error {worst}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_2_loss_formula_oracle():
    start = time.perf_counter()
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        z = int(rng.integers(1, 6))
        params = init_params(Dims(e_v=6, e_e=5, vocab_size=10,
                                  num_entities=8), rng)
        block = random_block(rng, m, n, z, vocab_size=10, num_entities=8)
        weight_decay = 0.01 if case % 2 else 0.0
        got = batch_loss(params, block, weight_decay)
        want = direct_sigmoid_product_loss(params, block, weight_decay)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"max loss deviation {worst:.3e}"
    assert elapsed < 5.0, f"loss oracle took {elapsed:.1f}s"


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_criterion_3_end_to_end_learnability(precision):
    start = time.perf_counter()
    corpus, vocab, result = separable_training(precision)
    losses = [entry.mean_batch_loss for entry in result.log]
    first3 = sum(losses[:3]) / 3.0
    last3 = sum(losses[-3:]) / 3.0
    topics, grades = separable_topics()
    singles = {tid: q for tid, q in topics.items() if tid.startswith("s")}
    runs = rank_topics(result.params, vocab, corpus, singles)
    report = evaluate_run(runs, Qrels(grades), ks=())
    mean = report.means["ndcg@100"]
    elapsed = time.perf_counter() - start
    assert last3 < first3, f"loss did not decrease: {first3:.4f} -> {last3:.4f}"
    assert report.excluded == []
    assert mean >= 0.95, f"mean NDCG {mean:.4f}"
    assert elapsed < 60.0, f"learnability check took {elapsed:.1f}s"


def test_criterion_4_lexical_model_oracle_and_sweep_grid():
    corpus, vocab = build_separable_corpus(num_entities=4, words_per=6,
                                           docs_per=3, doc_len=12, seed=5)
    entity_counts, corpus_counts = profile_counts(corpus)
    corpus_total = sum(corpus_counts.values())
    present = sorted(corpus_counts)
    worst = 0.0
    for lam in (0.05, 0.5, 0.95):
        model = estimate(corpus, lam)
        rng = np.random.default_rng(17)
        for _ in range(30):
            query = [int(t) for t in rng.choice(present, size=5)]
            for entity_index in range(corpus.num_entities):
                got = score(model, entity_index, query)
                prob = 1.0
                counts = entity_counts[entity_index]
                total = sum(counts.values())
                for t in query:
                    p_x = counts[t] / total if total else 0.0
                    prob *= ((1.0 - lam) * p_x
                             + lam * corpus_counts[t] / corpus_total)
                worst = max(worst, abs(got - math.log(prob)))
    assert worst < 1e-12, f"max lexical score deviation {worst:.3e}"

    topics, grades = separable_topics(num_entities=4, multi=0)
    best, grid = sweep_lambda(corpus, encode_topics(topics, vocab), Qrels(grades))
    assert len(grid) == 21
    assert [lam for lam, _ in grid] == list(SWEEP_GRID)
    assert SWEEP_GRID[0] == 0.0 and SWEEP_GRID[-1] == 1.0
    assert best in SWEEP_GRID


def test_criterion_5_metric_fixtures():
    qrels = Qrels({("t", "e1"): 1, ("t", "e2"): 0, ("t", "e3"): 1})
    ranking = RankedList("t", [("e1", 3.0), ("e2", 2.0), ("e3", 1.0)])
    value = ndcg(ranking, qrels, cutoff=10)
    expected = (1.0 + 1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))
    assert abs(value - expected) < 1e-9
    assert abs(value - 0.9197) < 1e-4
    assert precision_at_k(ranking, qrels, 1) == 1.0
    assert precision_at_k(ranking, qrels, 2) == 0.5
    assert precision_at_k(ranking, qrels, 5) == 0.4

    diffs = [1.0, 1.0, 1.0, -1.0]
    t, p = paired_t_test(diffs, [0.0, 0.0, 0.0, 0.0])
    n = len(diffs)
    mean = sum(diffs) / n
    sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (n - 1))
    t_oracle = mean / (sd / math.sqrt(n))
    p_oracle = 2.0 * scipy.stats.t.sf(abs(t_oracle), n - 1)
    assert abs(t - t_oracle) < 1e-8
    assert abs(p - p_oracle) < 1e-4


def test_criterion_6_ideal_vector_gap():
    start = time.perf_counter()
    corpus, vocab, result = separable_training(TrainConfig.precision)
    topics, grades = separable_topics()
    rows = ideal_vector_report(result.params, encode_topics(topics, vocab),
                               Qrels(grades), corpus.entities)
    by_status = {}
    for row in rows:
        by_status.setdefault(row["status"], []).append(row)
    assert sorted(r["topic_id"] for r in by_status["skipped_single_relevant"]) == \
        [f"s{i}" for i in range(8)]
    ok = by_status["ok"]
    assert sorted(r["topic_id"] for r in ok) == [f"m{k}" for k in range(4)]
    mean_ideal = sum(r["ndcg_ideal"] for r in ok) / len(ok)
    mean_query = sum(r["ndcg_query"] for r in ok) / len(ok)
    elapsed = time.perf_counter() - start
    assert mean_ideal >= mean_query - 0.01, \
        f"ideal {mean_ideal:.4f} vs query {mean_query:.4f}"
    assert elapsed < 60.0, f"ideal-vector check took {elapsed:.1f}s"


def test_criterion_7_fusion_dominates_subsets():
    start = time.perf_counter()
    corpus, vocab, params, topics, grades = build_fusion_benchmark()
    qrels = Qrels(grades)
    table = build_features(encode_topics(topics, vocab), corpus, estimate(corpus, 0.5),
                           params)
    report = cross_validated_fusion(table, qrels, folds=10, seed=0, pair_samples=20000)
    means = {row["features"]: row["means"]["ndcg@100"] for row in report.rows}
    elapsed = time.perf_counter() - start
    assert means["qi+qlm+lse"] >= means["qi+qlm"], means
    assert means["qi+qlm+lse"] >= means["qi+lse"], means
    sig = report.significance["ndcg@100"]
    assert {"t", "p", "marker"} <= set(sig), sig
    assert math.isfinite(sig["t"]) and 0.0 < sig["p"] <= 1.0
    assert elapsed < 120.0, f"fusion check took {elapsed:.1f}s"


def produce_artifacts(out):
    """One deterministic pass over every artifact-writing workflow."""
    corpus, vocab = build_separable_corpus()
    topics, grades = separable_topics()
    qrels = Qrels(grades)
    config = TrainConfig(**SEPARABLE_CONFIG)
    result = train(corpus, vocab, config)
    save_model(out / "model.lse", result.params, vocab_sha256=vocab.sha256(),
               entity_ids=corpus.entities, config=config.as_dict())
    write_epoch_log(out / "epochs.csv", result.log)
    lines = (out / "epochs.csv").read_text().splitlines()
    stable = [",".join(line.split(",")[:3]) for line in lines]  # drop timings
    (out / "epochs_stable.csv").write_text("\n".join(stable) + "\n")
    (out / "epochs.csv").unlink()

    runs = rank_topics(result.params, vocab, corpus, topics)
    write_run(out / "run.trec", [runs[tid] for tid in sorted(runs)])
    report = evaluate_run(runs, qrels, cutoff=100)
    (out / "eval.json").write_text(json.dumps(
        {"means": report.means, "per_topic": report.per_topic},
        sort_keys=True, indent=2) + "\n")

    queries = encode_topics(topics, vocab)
    _best, grid = sweep_lambda(corpus, queries, qrels)
    (out / "sweep.csv").write_text(
        "".join(f"{lam!r},{mean!r}\n" for lam, mean in grid))

    rows = ideal_vector_report(result.params, queries, qrels, corpus.entities)
    (out / "ideal.csv").write_text("".join(
        f"{r['topic_id']},{r['status']},{r['n_relevant']},"
        f"{r['ndcg_ideal']!r},{r['ndcg_query']!r}\n" for r in rows))

    fcorpus, fvocab, fparams, ftopics, fgrades = build_fusion_benchmark()
    table = build_features(encode_topics(ftopics, fvocab), fcorpus,
                           estimate(fcorpus, 0.5), fparams)
    freport = cross_validated_fusion(table, Qrels(fgrades), folds=10, seed=0,
                                     pair_samples=20000)
    (out / "fusion.json").write_text(json.dumps(
        {"rows": [{"features": r["features"], "means": r["means"]}
                  for r in freport.rows],
         "significance": freport.significance}, sort_keys=True, indent=2) + "\n")


def test_criterion_8_determinism(tmp_path):
    names = ["model.lse", "model.lse.meta.json", "epochs_stable.csv",
             "run.trec", "eval.json", "sweep.csv", "ideal.csv", "fusion.json"]
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        produce_artifacts(tmp_path / sub)
    for name in names:
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, f"{name} differs between identical reruns"


def build_scaling_corpus(num_entities=1024, num_docs=20000, doc_len=50,
                         vocab_size=2000, seed=7):
    rng = np.random.default_rng(seed)
    owners = np.sort(np.concatenate([
        np.arange(num_entities),
        rng.integers(0, num_entities, size=num_docs - num_entities)]))
    entities = [f"x{i:04d}" for i in range(num_entities)]
    tokens = rng.integers(0, vocab_size, size=(num_docs, doc_len),
                          dtype=np.int32)
    letters = "abcdefghijklmnopqrstuvwxyz"
    names = ["q" + "".join(t) for t in itertools.islice(
        itertools.product(letters, repeat=3), vocab_size)]
    vocab = Vocabulary(names, [1] * vocab_size, [1] * vocab_size)
    return make_corpus([(entities[e], toks) for e, toks in zip(owners, tokens)],
                       entities), vocab


def test_criterion_9_scaling_smoke():
    corpus, vocab = build_scaling_corpus()
    config = TrainConfig(epochs=1)
    positions = sum(max(len(toks) - config.n + 1, 0)
                    for _, toks in documents(corpus))
    budget = -(-positions // corpus.num_entities)
    sampler = SamplerConfig(n=config.n, z=config.z, m=config.m)
    epoch = sample_epoch(corpus, sampler, _epoch_rng(config.seed, 1))
    assert len(epoch) == budget * corpus.num_entities
    counts = sum(np.bincount(batch.positives, minlength=corpus.num_entities)
                 for batch in epoch)
    assert np.all(counts == budget)

    start = time.perf_counter()
    result = train(corpus, vocab, config)
    elapsed = time.perf_counter() - start
    assert np.isfinite(result.log[0].mean_batch_loss)
    assert elapsed < 300.0, f"one epoch took {elapsed:.1f}s"
