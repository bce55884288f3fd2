import os

import numpy as np
import pytest

from bench_paths import TINY

import bench_inputs
import bench_oracles


@pytest.fixture
def retrieve_inputs(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_inputs, "SHAPES", TINY)
    bench_inputs.setup("retrieve", tmp_path, 5)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_container_reader_matches_lse(retrieve_inputs):
    from lse.model import PARAM_FIELDS, load_model

    params, header = load_model("model.lse")
    oracle_header, arrays = bench_oracles.read_container("model.lse")
    assert oracle_header == header
    for name in PARAM_FIELDS:
        np.testing.assert_array_equal(arrays[name], getattr(params, name))


def test_oracle_scores_match_lse_functions(retrieve_inputs):
    from lse.model import load_model
    from lse.qlm import estimate, score
    from lse.retrieval import cosine_scores
    from lse.model import project
    from lse.text import Vocabulary, encode_corpus, load_raw_docs

    vocab = Vocabulary.load("vocab.tsv")
    corpus = encode_corpus(load_raw_docs("corpus.jsonl"), vocab)
    params, _ = load_model("model.lse")
    model = estimate(corpus, 0.3)
    oracle_vocab = bench_oracles.read_vocab("vocab.tsv")
    entity_ids, ents, toks = bench_oracles.read_corpus("corpus.jsonl", oracle_vocab)
    _, arrays = bench_oracles.read_container("model.lse")
    assert entity_ids == corpus.entities
    for query in bench_oracles.read_topics("topics.tsv").values():
        ids = [oracle_vocab[w] for w in query.split()]
        assert ids == vocab.encode(query.split())
        np.testing.assert_allclose(
            bench_oracles.cosine_scores(arrays, ids),
            cosine_scores(params.W_e, project(params, ids)), rtol=1e-12)
        np.testing.assert_allclose(
            bench_oracles.jm_scores(ents, toks, len(entity_ids), ids, 0.3),
            [score(model, i, ids) for i in range(len(entity_ids))], rtol=1e-12)


def test_rank_and_qlm_runs_pass_the_top_k_check(retrieve_inputs):
    from lse.cli import main

    main(["rank", "model.lse", "vocab.tsv", "topics.tsv", "--out", "r"],
         standalone_mode=False)
    main(["qlm", "corpus.jsonl", "vocab.tsv", "topics.tsv", "--out", "q"],
         standalone_mode=False)
    vocab = bench_oracles.read_vocab("vocab.tsv")
    header, arrays = bench_oracles.read_container("model.lse")
    entity_ids, ents, toks = bench_oracles.read_corpus("corpus.jsonl", vocab)
    rank_run = bench_oracles.read_run(os.path.join("r", "run.trec"))
    qlm_run = bench_oracles.read_run(os.path.join("q", "run.trec"))
    for tid, query in bench_oracles.read_topics("topics.tsv").items():
        ids = [vocab[w] for w in query.split()]
        assert bench_oracles.check_top_k(
            rank_run[tid], bench_oracles.cosine_scores(arrays, ids),
            header["entity_ids"]) is None
        assert bench_oracles.check_top_k(
            qlm_run[tid], bench_oracles.jm_scores(ents, toks, len(entity_ids), ids, 0.5),
            entity_ids) is None


def test_top_k_check_rejects_wrong_runs():
    ids = [f"x{i}" for i in range(5)]
    scores = np.array([0.1, 0.5, 0.3, 0.9, 0.2])
    good = [("x3", 0.9), ("x1", 0.5), ("x2", 0.3)]
    assert bench_oracles.check_top_k(good, scores, ids, k=3) is None
    assert "missing" in bench_oracles.check_top_k(
        [("x3", 0.9), ("x1", 0.5), ("x4", 0.2)], scores, ids, k=3)
    assert "oracle" in bench_oracles.check_top_k(
        [("x3", 0.9), ("x1", 0.5), ("x2", 0.31)], scores, ids, k=3)
    assert "ordered" in bench_oracles.check_top_k(
        [("x1", 0.5), ("x3", 0.9), ("x2", 0.3)], scores, ids, k=3)
    assert "expected" in bench_oracles.check_top_k(good[:2], scores, ids, k=3)
