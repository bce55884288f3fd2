import json
import os

import numpy as np
import pytest

from bench_paths import TINY

import bench_inputs


@pytest.fixture
def tiny_shapes(monkeypatch):
    monkeypatch.setattr(bench_inputs, "SHAPES", TINY)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(TINY))
def test_setup_is_byte_deterministic_per_seed(tmp_path, tiny_shapes, workload):
    bench_inputs.setup(workload, tmp_path / "a", 3)
    bench_inputs.setup(workload, tmp_path / "b", 3)
    bench_inputs.setup(workload, tmp_path / "c", 4)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["corpus.jsonl"] != _files(tmp_path / "c")["corpus.jsonl"]
    expected = {"corpus.jsonl", "topics.tsv", "topics_qrels.txt"}
    if workload != "train":
        expected |= {"vocab.tsv", "model.lse", "model.lse.meta.json"}
    if workload == "tune":
        expected |= {"attributes.jsonl", "also_bought.tsv"}
    assert set(first) == expected


@pytest.mark.parametrize("workload", sorted(TINY))
def test_recorded_sizes_match_the_files(tmp_path, tiny_shapes, workload):
    sizes = bench_inputs.setup(workload, tmp_path, 0)
    docs = [json.loads(line) for line in
            (tmp_path / "corpus.jsonl").read_text().splitlines()]
    assert len(docs) == sizes["documents"]
    assert len({d["entity_id"] for d in docs}) == sizes["entities"]
    assert sum(len(d["text"].split()) for d in docs) == sizes["tokens"]
    topics = (tmp_path / "topics.tsv").read_text().splitlines()[1:]
    assert len(topics) == sizes["topics"]
    qrels = (tmp_path / "topics_qrels.txt").read_text().splitlines()
    per_topic = {}
    for line in qrels:
        per_topic.setdefault(line.split()[0], []).append(line.split()[2])
    assert all(2 <= len(v) <= 3 for v in per_topic.values())
    assert len(per_topic) == sizes["topics"]


def test_train_instances_match_lse_sampler(tmp_path, tiny_shapes):
    from lse.sampling import SamplerConfig, sample_epoch
    from lse.text import build_vocabulary, encode_corpus, load_raw_docs

    sizes = bench_inputs.setup("train", tmp_path, 0)
    raw = load_raw_docs(str(tmp_path / "corpus.jsonl"))
    corpus = encode_corpus(raw, build_vocabulary(raw))
    block = sample_epoch(corpus, SamplerConfig(n=bench_inputs.NGRAM, z=2, m=8),
                         np.random.default_rng(0))
    assert len(block) == sizes["instances"]


def test_words_survive_tokenization():
    from lse.text import tokenize

    words = [bench_inputs.word(i) for i in (0, 1, 25, 26, 20000, 26 ** 4 - 1)]
    assert len(set(words)) == len(words)
    assert tokenize(" ".join(words)) == words


@pytest.mark.parametrize("workload", ["retrieve", "tune"])
def test_vocabulary_matches_lse_build_vocab(tmp_path, tiny_shapes, workload):
    from lse.text import Vocabulary, build_vocabulary, load_raw_docs

    bench_inputs.setup(workload, tmp_path, 2)
    built = build_vocabulary(load_raw_docs(str(tmp_path / "corpus.jsonl")))
    assert (tmp_path / "vocab.tsv").read_text() == built.to_tsv()
    assert Vocabulary.load(str(tmp_path / "vocab.tsv")) == built
