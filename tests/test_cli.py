"""Command-line workflows, exercised through click's test runner."""

import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lse.cli
import lse.ltr
import lse.model
import lse.training
from lse.cli import main
from lse.model import MAGIC, Dims, init_params, save_model
from lse.retrieval import RankedList, read_run, write_run
from lse.text import Vocabulary, build_vocabulary, encode_corpus, load_raw_docs
from lse.training import EpochLog, write_epoch_log

CORPUS_LINES = [
    {"doc_id": "d1", "entity_id": "cam", "text": "digital camera zoom lens"},
    {"doc_id": "d2", "entity_id": "cam", "text": "camera photo lens sharp"},
    {"doc_id": "d3", "entity_id": "gui", "text": "acoustic guitar steel strings"},
    {"doc_id": "d4", "entity_id": "gui", "text": "guitar warm wood tone"},
    {"doc_id": "d5", "entity_id": "pia", "text": "grand piano ivory keys"},
    {"doc_id": "d6", "entity_id": "pia", "text": "piano pedal concert sound"},
    {"doc_id": "d7", "entity_id": "vio", "text": "violin bow rosin strings"},
    {"doc_id": "d8", "entity_id": "vio", "text": "violin chin rest wood"},
]

TRAIN_FLAGS = ["--e-v", "8", "--e-e", "4", "--n", "2", "--z", "2",
               "--m", "8", "--epochs", "2", "--seed", "0"]


def write_inputs(root):
    corpus = root / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in CORPUS_LINES))
    topics = root / "topics.tsv"
    topics.write_text("topic_id\ttest\n"
                      "t1\tcamera lens\n"
                      "t2\tguitar\n"
                      "t3\tpiano keys\n"
                      "t5\tstrings wood\n")
    qrels = root / "qrels.txt"
    qrels.write_text("t1 0 cam 1\nt2 0 gui 1\nt3 0 pia 1\n"
                     "t5 0 gui 1\nt5 0 vio 1\n")
    return corpus, topics, qrels


def run_ok(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """One full pipeline pass shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cli")
    corpus, topics, qrels = write_inputs(root)
    runner = CliRunner()
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(root / "vocab")])
    vocab = root / "vocab" / "vocab.tsv"
    run_ok(runner, ["train", str(corpus), str(vocab),
                    "--out", str(root / "model")] + TRAIN_FLAGS)
    model = root / "model" / "model.lse"
    run_ok(runner, ["rank", str(model), str(vocab), str(topics),
                    "--out", str(root / "rank")])
    run_ok(runner, ["qlm", str(corpus), str(vocab), str(topics),
                    "--out", str(root / "qlm"), "--lambda-jm", "0.5"])
    run_ok(runner, ["eval", str(root / "rank" / "run.trec"), str(qrels),
                    "--out", str(root / "eval"), "--cutoff", "10",
                    "--baseline-run", str(root / "qlm" / "run.trec")])
    return root, corpus, topics, qrels, runner


def test_retrieval_commands_never_import_scipy(workflow, tmp_path):
    # Only the training step uses scipy, and imports it itself: a top-level
    # import would add its start-up time and memory to every command.
    root, corpus, topics, qrels, _ = workflow
    vocab = root / "vocab" / "vocab.tsv"
    commands = [["rank", root / "model" / "model.lse", vocab, topics,
                 "--out", tmp_path / "rank"],
                ["qlm", corpus, vocab, topics, "--out", tmp_path / "qlm"],
                ["eval", tmp_path / "rank" / "run.trec", qrels,
                 "--out", tmp_path / "eval"],
                ["sweep-lambda", corpus, vocab, topics, qrels,
                 "--out", tmp_path / "sweep"],
                ["fuse", corpus, vocab, topics, qrels, "--out", tmp_path / "fuse",
                 "--model", root / "model" / "model.lse", "--folds", "2",
                 "--pair-samples", "300"],
                ["ideal-vector", root / "model" / "model.lse", vocab, topics, qrels,
                 "--out", tmp_path / "ideal", "--pair-samples", "300"]]
    code = ("import json, sys, lse.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    lse.cli.main(argv, standalone_mode=False)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(lse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps([list(map(str, c)) for c in commands])],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for output in ("eval/per_topic.csv", "sweep/sweep.csv", "fuse/fusion.json",
                   "ideal/ideal.json"):
        assert (tmp_path / output).exists(), output
    assert result.stdout.splitlines()[-1] == "[]"


def test_build_vocab_outputs(workflow):
    root = workflow[0]
    vocab_text = (root / "vocab" / "vocab.tsv").read_text()
    assert "camera\t" in vocab_text and "guitar\t" in vocab_text
    manifest = json.loads((root / "vocab" / "manifest.json").read_text())
    assert manifest["command"] == "build-vocab"
    assert len(manifest["inputs"]["corpus"]["sha256"]) == 64
    assert {"started", "finished", "version"} <= set(manifest)


def test_train_outputs(workflow):
    root = workflow[0]
    assert (root / "model" / "model.lse").exists()
    lines = (root / "model" / "epochs.csv").read_text().splitlines()
    assert lines[0] == "epoch,mean_batch_loss,validation_ndcg,wall_seconds"
    assert len(lines) == 3
    manifest = json.loads((root / "model" / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["config"]["e_v"] == 8
    assert manifest["config"]["lambda"] == 0.01


def test_rank_covers_every_topic_and_entity(workflow):
    root = workflow[0]
    runs = read_run(root / "rank" / "run.trec")
    assert sorted(runs) == ["t1", "t2", "t3", "t5"]
    for ranked in runs.values():
        assert sorted(e for e, _ in ranked.entries) == ["cam", "gui", "pia", "vio"]
    assert (root / "rank" / "skipped_topics.txt").read_text() == ""


def test_qlm_run_prefers_lexical_match(workflow):
    root = workflow[0]
    runs = read_run(root / "qlm" / "run.trec")
    assert runs["t2"].entries[0][0] == "gui"
    assert runs["t3"].entries[0][0] == "pia"


def test_eval_reports(workflow):
    root = workflow[0]
    lines = (root / "eval" / "per_topic.csv").read_text().splitlines()
    assert lines[0] == "topic_id,ndcg@10,p@5,p@10"
    assert len(lines) == 5
    aggregate = json.loads((root / "eval" / "aggregate.json").read_text())
    assert set(aggregate["means"]) == {"ndcg@10", "p@5", "p@10"}
    assert aggregate["num_topics"] == 4
    sig = aggregate["significance_vs_baseline"]
    for metric in ("ndcg@10", "p@5", "p@10"):
        entry = sig[metric]
        assert "degenerate" in entry or {"t", "p", "marker"} <= set(entry)


def test_sweep_lambda_emits_full_grid(workflow):
    root, corpus, topics, qrels, runner = workflow
    run_ok(runner, ["sweep-lambda", str(corpus),
                    str(root / "vocab" / "vocab.tsv"), str(topics), str(qrels),
                    "--out", str(root / "sweep"), "--cutoff", "10"])
    lines = (root / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda_jm,mean_ndcg"
    assert len(lines) == 22
    best = json.loads((root / "sweep" / "best_lambda.json").read_text())
    grid = [float(line.split(",")[0]) for line in lines[1:]]
    assert best["best_lambda_jm"] in grid
    assert (root / "sweep" / "skipped_topics.txt").read_text() == ""


def test_ideal_vector_skips_single_relevant_topics(workflow):
    root, _, topics, qrels, runner = workflow
    run_ok(runner, ["ideal-vector", str(root / "model" / "model.lse"),
                    str(root / "vocab" / "vocab.tsv"), str(topics), str(qrels),
                    "--out", str(root / "ideal"), "--pair-samples", "500"])
    lines = (root / "ideal" / "ideal.csv").read_text().splitlines()
    assert lines[0] == "topic_id,status,n_relevant,ndcg_ideal,ndcg_query"
    rows = dict(line.split(",")[:2] for line in lines[1:])
    assert rows == {"t1": "skipped_single_relevant",
                    "t2": "skipped_single_relevant",
                    "t3": "skipped_single_relevant",
                    "t5": "ok"}
    aggregate = json.loads((root / "ideal" / "ideal.json").read_text())
    assert aggregate["num_scored"] == 1
    assert sorted(aggregate["skipped"]) == ["t1", "t2", "t3"]
    assert 0.0 <= aggregate["mean_ndcg_ideal"] <= 1.0
    manifest = json.loads((root / "ideal" / "manifest.json").read_text())
    assert manifest["config"] == {"cutoff": 100, "pair_samples": 500,
                                  "batch": 5}
    assert manifest["counts"] == {"skipped_topics": 3}


def test_fuse_reports_all_combinations(workflow):
    root, corpus, topics, qrels, runner = workflow
    attrs = root / "attrs.jsonl"
    attrs.write_text('{"entity_id": "cam", "price": 199.0, "sales_rank": 2, '
                     '"description_length": 40}\n'
                     '{"entity_id": "gui", "price": 450.0}\n')
    graph = root / "also_bought.tsv"
    graph.write_text("cam\tgui\ngui\tvio\n")
    run_ok(runner, ["fuse", str(corpus), str(root / "vocab" / "vocab.tsv"),
                    str(topics), str(qrels), "--out", str(root / "fuse"),
                    "--model", str(root / "model" / "model.lse"),
                    "--qi-attrs", str(attrs),
                    "--graph", f"also_bought={graph}",
                    "--folds", "2", "--pair-samples", "300", "--cutoff", "10"])
    lines = (root / "fuse" / "fusion.csv").read_text().splitlines()
    assert lines[0].startswith("features,ndcg@10,ndcg@10_sig,p@5")
    assert [line.split(",")[0] for line in lines[1:]] == [
        "qi", "qi+qlm", "qi+lse", "qi+qlm+lse"]
    payload = json.loads((root / "fuse" / "fusion.json").read_text())
    assert len(payload["rows"]) == 4
    assert set(payload["significance_full_vs_qi_qlm"]) == {"ndcg@10", "p@5", "p@10"}
    manifest = json.loads((root / "fuse" / "manifest.json").read_text())
    assert "graph_also_bought" in manifest["inputs"]
    assert manifest["config"] == {"lambda_jm": 0.5, "folds": 2, "cutoff": 10,
                                  "pair_samples": 300, "batch": 3}


def test_fuse_without_model_reports_qi_and_qi_qlm_only(workflow, tmp_path):
    root, corpus, topics, qrels, runner = workflow
    run_ok(runner, ["fuse", str(corpus), str(root / "vocab" / "vocab.tsv"),
                    str(topics), str(qrels), "--out", str(tmp_path / "fuse"),
                    "--folds", "2", "--pair-samples", "300", "--cutoff", "10"])
    lines = (tmp_path / "fuse" / "fusion.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["qi", "qi+qlm"]
    payload = json.loads((tmp_path / "fuse" / "fusion.json").read_text())
    assert [row["features"] for row in payload["rows"]] == ["qi", "qi+qlm"]
    significance = payload["significance_full_vs_qi_qlm"]
    assert set(significance) == {"ndcg@10", "p@5", "p@10"}
    for entry in significance.values():
        assert list(entry) == ["degenerate"] and "no model" in entry["degenerate"]


def test_eval_ranks_each_topic_by_score_not_line_order(tmp_path):
    run = tmp_path / "run.trec"
    run.write_text("t1 Q0 gui 1 0.1 x\nt1 Q0 cam 2 0.9 x\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("t1 0 cam 1\n")
    run_ok(CliRunner(), ["eval", str(run), str(qrels), "--out", str(tmp_path / "e")])
    aggregate = json.loads((tmp_path / "e" / "aggregate.json").read_text())
    assert aggregate["means"]["ndcg@100"] == 1.0


def test_eval_lists_judged_topics_the_run_leaves_out(tmp_path):
    _, _, qrels = write_inputs(tmp_path)
    run = tmp_path / "run.trec"
    run.write_text("t1 Q0 cam 1 0.9 x\n")
    result = run_ok(CliRunner(), ["eval", str(run), str(qrels),
                                  "--out", str(tmp_path / "e")])
    aggregate = json.loads((tmp_path / "e" / "aggregate.json").read_text())
    assert aggregate["missing_topics"] == ["t2", "t3", "t5"]
    # means stay over the scored topics
    assert aggregate["num_topics"] == 1
    assert aggregate["means"]["ndcg@100"] == 1.0
    assert "3 judged topics have no line in the run" in result.output
    manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert manifest["counts"] == {"missing_topics": 3}


def test_corpus_commands_record_encoding_counts_in_manifest(workflow, tmp_path):
    root, corpus, topics, qrels, runner = workflow
    # a vocabulary lacking most corpus words, so some tokens are dropped
    vocab = tmp_path / "vocab.tsv"
    build_vocabulary(load_raw_docs(corpus), max_size=12).save(vocab)
    expected = encode_corpus(load_raw_docs(corpus), Vocabulary.load(vocab))
    assert expected.dropped_tokens > 0
    commands = {
        "train": ["train", corpus, vocab] + TRAIN_FLAGS,
        "qlm": ["qlm", corpus, vocab, topics],
        "sweep-lambda": ["sweep-lambda", corpus, vocab, topics, qrels],
        "fuse": ["fuse", corpus, vocab, topics, qrels, "--folds", "2",
                 "--pair-samples", "300"]}
    encoding = {"documents": len(CORPUS_LINES), "tokens": expected.total_tokens,
                "dropped_tokens": expected.dropped_tokens}
    # the commands that write skipped_topics.txt also count its topics, and
    # train counts the entities it has no n-gram to sample from
    skipped = {"train": {"skipped_entities": 0}, "qlm": {"skipped_topics": 0},
               "sweep-lambda": {"skipped_topics": 0}}
    for command, args in commands.items():
        run_ok(runner, list(map(str, args)) + ["--out", str(tmp_path / command)])
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["counts"] == {**encoding, **skipped.get(command, {})}, command
    for command, counts in (("rank", {"skipped_topics": 0}),
                            ("eval", {"missing_topics": 0})):
        manifest = json.loads((root / command / "manifest.json").read_text())
        assert manifest["counts"] == counts, command


def test_grad_check_passes_and_writes_report(tmp_path):
    runner = CliRunner()
    result = run_ok(runner, ["grad-check", "--seeds", "2",
                             "--out", str(tmp_path / "gc")])
    assert "max relative error" in result.output
    report = json.loads((tmp_path / "gc" / "grad_check.json").read_text())
    assert report["max_rel_err"] < 1e-4
    assert report["non_finite"] is False
    assert len(report["results"]) == 4
    manifest = json.loads((tmp_path / "gc" / "manifest.json").read_text())
    assert manifest["command"] == "grad-check"
    assert manifest["config"] == {"seeds": 2, "eps": 1e-5, "tolerance": 1e-4}
    # a failing check exits 1 and still leaves its report and manifest
    failed = runner.invoke(main, ["grad-check", "--seeds", "1", "--tolerance", "0",
                                  "--out", str(tmp_path / "bad")])
    assert failed.exit_code == 1, failed.output
    assert "gradient check failed" in failed.output
    report = json.loads((tmp_path / "bad" / "grad_check.json").read_text())
    assert report["tolerance"] == 0 and len(report["results"]) == 2
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert manifest["config"]["tolerance"] == 0


def test_missing_input_exits_2(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["build-vocab", str(tmp_path / "absent.jsonl"),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "no such file" in result.output


@pytest.mark.parametrize("given", ["--validation-topics", "--validation-qrels"])
def test_one_validation_flag_alone_exits_2_before_writing_anything(tmp_path, given):
    corpus, topics, qrels = write_inputs(tmp_path)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    path = {"--validation-topics": topics, "--validation-qrels": qrels}[given]
    out = tmp_path / "m"
    result = CliRunner().invoke(main, ["train", str(corpus), str(vocab), "--out", str(out),
                                       given, str(path)] + TRAIN_FLAGS)
    assert result.exit_code == 2, result.output
    assert ("--validation-topics and --validation-qrels must be given together"
            in result.output)
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "qlm", "grad-check", "fuse", "ideal-vector"])
def test_count_option_below_one_exits_2_naming_it(workflow, tmp_path, command):
    root, corpus, topics, qrels, runner = workflow
    vocab = root / "vocab" / "vocab.tsv"
    model = root / "model" / "model.lse"
    out = tmp_path / "out"
    args, option = {
        "rank": (["rank", model, vocab, topics], "--top-k"),
        "qlm": (["qlm", corpus, vocab, topics], "--top-k"),
        "grad-check": (["grad-check"], "--seeds"),
        "fuse": (["fuse", corpus, vocab, topics, qrels, "--model", model],
                 "--pair-samples"),
        "ideal-vector": (["ideal-vector", model, vocab, topics, qrels],
                         "--pair-samples")}[command]
    result = runner.invoke(main, list(map(str, args)) + ["--out", str(out), option, "0"])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "train-config", "fuse", "ideal-vector"])
def test_negative_seed_exits_before_writing_anything(workflow, tmp_path, command):
    """A flag exits 2 naming --seed; a config file's seed exits 1 naming the
    file."""
    root, corpus, topics, qrels, runner = workflow
    vocab = root / "vocab" / "vocab.tsv"
    model = root / "model" / "model.lse"
    config = tmp_path / "train.cfg"
    config.write_text("seed = -3\n")
    out = tmp_path / "out"
    args = {"train": ["train", corpus, vocab, "--seed", "-1"],
            "train-config": ["train", corpus, vocab, "--config", config],
            "fuse": ["fuse", corpus, vocab, topics, qrels, "--model", model,
                     "--seed", "-1"],
            "ideal-vector": ["ideal-vector", model, vocab, topics, qrels,
                             "--seed", "-1"]}[command]
    result = runner.invoke(main, list(map(str, args)) + ["--out", str(out)])
    assert isinstance(result.exception, SystemExit), result.output
    assert "Traceback" not in result.output
    if command == "train-config":
        assert result.exit_code == 1
        assert f"Error: {config}: seed must be non-negative, got -3" in result.output
    else:
        assert result.exit_code == 2
        assert "Invalid value for '--seed'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("eps", ["0", "-1e-5"])
def test_grad_check_eps_not_above_zero_exits_2_naming_it(tmp_path, eps):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["grad-check", "--eps", eps, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--eps'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("option", ["--eps", "--tolerance"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_grad_check_non_finite_option_exits_2_naming_it(tmp_path, option, value):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["grad-check", option, value, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}': must be finite" in result.output
    assert not out.exists()


def test_grad_check_fails_on_a_nan_gradient(tmp_path):
    step = lse.model.batch_loss_and_gradients

    def nan_gradient(*args):
        loss, grads = step(*args)
        grads.W_e[:] = np.nan
        return loss, grads

    with mock.patch.object(lse.model, "batch_loss_and_gradients", nan_gradient):
        result = CliRunner().invoke(main, ["grad-check", "--seeds", "1",
                                           "--out", str(tmp_path / "gc")])
    assert result.exit_code == 1, result.output
    assert "gradient check failed: inf >= 0.0001" in result.output

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    # strict JSON: NaN and Infinity are not numbers there
    report = json.loads((tmp_path / "gc" / "grad_check.json").read_text(),
                        parse_constant=reject)
    assert report["max_rel_err"] is None and report["non_finite"] is True
    assert [r["max_rel_err"] for r in report["results"]] == [None, None]


def test_data_dir_resolves_relative_inputs(tmp_path):
    corpus, _, _ = write_inputs(tmp_path)
    runner = CliRunner()
    result = runner.invoke(main, ["build-vocab", "corpus.jsonl",
                                  "--out", str(tmp_path / "v")],
                           env={"LSE_DATA_DIR": str(tmp_path)},
                           catch_exceptions=False)
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
    assert manifest["inputs"]["corpus"]["path"] == str(corpus)


def test_validation_ndcg_is_what_rank_gives_the_saved_model(tmp_path):
    # float32 training saves a float32 model, which `rank` reads as its
    # float64 promotion; validation must have scored that promotion.
    corpus, topics, qrels = write_inputs(tmp_path)
    runner = CliRunner()
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(tmp_path / "v")])
    vocab = str(tmp_path / "v" / "vocab.tsv")
    run_ok(runner, ["train", str(corpus), vocab, "--out", str(tmp_path / "m"),
                    "--precision", "float32", "--validation-topics", str(topics),
                    "--validation-qrels", str(qrels)] + TRAIN_FLAGS + ["--epochs", "4"])
    model = tmp_path / "m" / "model.lse"
    assert json.loads((tmp_path / "m" / "model.lse.meta.json").read_text())["dtype"] == "float32"
    with open(tmp_path / "m" / "epochs.csv", encoding="utf-8") as fh:
        best = max(float(row["validation_ndcg"]) for row in csv.DictReader(fh))
    run_ok(runner, ["rank", str(model), vocab, str(topics), "--out", str(tmp_path / "r")])
    run_ok(runner, ["eval", str(tmp_path / "r" / "run.trec"), str(qrels),
                    "--out", str(tmp_path / "e")])
    aggregate = json.loads((tmp_path / "e" / "aggregate.json").read_text())
    assert aggregate["means"]["ndcg@100"] == best


def test_vocabulary_mismatch_exits_1(tmp_path):
    corpus, topics, _ = write_inputs(tmp_path)
    runner = CliRunner()
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(tmp_path / "v1")])
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(tmp_path / "v2"),
                    "--max-size", "3"])
    run_ok(runner, ["train", str(corpus), str(tmp_path / "v1" / "vocab.tsv"),
                    "--out", str(tmp_path / "m")] + TRAIN_FLAGS)
    result = runner.invoke(main, ["rank", str(tmp_path / "m" / "model.lse"),
                                  str(tmp_path / "v2" / "vocab.tsv"),
                                  str(topics), "--out", str(tmp_path / "r")])
    assert result.exit_code == 1
    model = tmp_path / "m" / "model.lse"
    assert f"Error: {model}: vocabulary does not match" in result.output


@pytest.mark.parametrize("command", ["rank", "fuse", "ideal-vector"])
def test_model_vocabulary_size_mismatch_exits_1_naming_the_model(tmp_path, command):
    # a container saved without a vocabulary hash is checked by size
    corpus, topics, qrels = write_inputs(tmp_path)
    model = tmp_path / "model.lse"
    save_model(model, init_params(Dims(e_v=2, e_e=2, vocab_size=2, num_entities=2), 0),
               entity_ids=["cam", "gui"])
    vocab = tmp_path / "vocab.tsv"
    Vocabulary(["camera", "guitar", "lens"], [2, 2, 2], [1, 1, 1]).save(vocab)
    argv = {"rank": ["rank", model, vocab, topics],
            "fuse": ["fuse", corpus, vocab, topics, qrels, "--model", model],
            "ideal-vector": ["ideal-vector", model, vocab, topics, qrels]}[command]
    result = CliRunner().invoke(main, list(map(str, argv))
                                + ["--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: {model}: model has 2 word embeddings but the "
                      "vocabulary has 3 words"]


GOOD_HEADER = {"format": "lse-model", "dtype": "float64", "entity_ids": ["cam", "gui"],
               "dims": {"e_v": 2, "e_e": 2, "vocab_size": 1, "num_entities": 2}}


def container(header, declared_length=None):
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    length = len(blob) if declared_length is None else declared_length
    return MAGIC + struct.pack("<Q", length) + blob


def model_file(values, dtype="float64", **header):
    """A GOOD_HEADER container holding the 12 array values W_v, W, b, W_e."""
    arrays = np.array(values, dtype={"float32": "<f4", "float64": "<f8"}[dtype])
    return container(dict(GOOD_HEADER, dtype=dtype, **header)) + arrays.tobytes()


# file to corrupt, its bytes, and what the error must say after the path
MALFORMED = {
    "qrels_grade_not_integer":
        ("qrels.txt", b"t1 0 cam 1\nt2 0 gui yes\n", ":2: relevance grade"),
    "vocab_id_not_integer":
        ("vocab.tsv", b"camera\t0\t2\t2\nlens\tone\t2\t2\n", ":2: id and counts"),
    "vocab_duplicate_token":
        ("vocab.tsv", b"camera\t0\t2\t2\nlens\t1\t2\t2\ncamera\t2\t1\t1\n",
         ":3: duplicate token 'camera', first on line 1"),
    "qrels_duplicate_pair":
        ("qrels.txt", b"t1 0 cam 1\nt1 0 cam 0\n",
         ":2: duplicate entity 'cam' for topic 't1', first on line 1"),
    "run_score_nan":
        ("run.trec", b"t1 Q0 cam 1 2.0 x\nt1 Q0 gui 2 nan x\n", ":2: score is NaN"),
    "run_duplicate_entity":
        ("run.trec", b"t1 Q0 cam 1 0.9 x\nt1 Q0 cam 2 0.8 x\n",
         ":2: duplicate entity 'cam' for topic 't1', first on line 1"),
    "model_header_without_dims":
        ("model.lse", container({"format": "lse-model", "entity_ids": []}),
         ": model header lacks valid dims"),
    "model_header_not_json":
        ("model.lse", container(b"{not json"), ": model header is not"),
    "model_cut_in_length_field":
        ("model.lse", MAGIC + b"\x05\x00", ": truncated header length"),
    "model_wrong_format":
        ("model.lse", container(dict(GOOD_HEADER, format="other")),
         ": header format is not lse-model"),
    "model_header_longer_than_file":
        ("model.lse", container(GOOD_HEADER, declared_length=4096),
         ": header length 4096 exceeds the file"),
    "model_entity_ids_disagree":
        ("model.lse", container(dict(GOOD_HEADER, entity_ids=["cam"])),
         ": header needs one entity id"),
    "model_dtype_float16":
        ("model.lse", container(dict(GOOD_HEADER, dtype="float16")),
         ": header dtype must be float32 or float64, got 'float16'"),
    "model_entity_ids_repeated":
        ("model.lse", model_file([0.5] * 12, entity_ids=["cam", "cam"]),
         ": header entity_ids must be distinct strings"),
    "model_entity_ids_not_strings":
        ("model.lse", model_file([0.5] * 12, entity_ids=[1, 2]),
         ": header entity_ids must be distinct strings"),
    "model_value_nan":
        ("model.lse", model_file([0.5] * 10 + [np.nan, 0.5]),
         ": array W_e holds a non-finite value"),
    "model_float32_value_inf":
        ("model.lse", model_file([np.inf] + [0.5] * 11, dtype="float32"),
         ": array W_v holds a non-finite value"),
    "config_seed_negative":
        ("train.cfg", b"seed = -3\n", ": seed must be non-negative, got -3"),
    "config_value_not_integer":
        ("train.cfg", b"seed = 1\nepochs = two\n",
         ":2: config key 'epochs' must be an integer, got 'two'"),
    "qi_price_not_number":
        ("attrs.jsonl", b'{"entity_id": "cam", "price": 3.5}\n'
                        b'{"entity_id": "gui", "price": "cheap"}\n',
         ":2: price must be a finite number, got 'cheap'"),
    "qi_sales_rank_not_integer":
        ("attrs.jsonl", b'{"entity_id": "cam", "sales_rank": "5", "price": null}\n',
         ":1: sales_rank must be an integer, got '5'"),
    "qi_entity_id_list":
        ("attrs.jsonl", b'{"entity_id": ["cam"], "price": 3.5}\n',
         ":1: entity_id must be a string, got ['cam']"),
    # text mode decodes 8 KB at a time: the bad byte must still be placed
    # on its own line, not on the first line of its chunk
    "corpus_not_utf8_past_8kb":
        ("corpus.jsonl", b"".join(b'{"doc_id": "d%d", "entity_id": "cam", '
                                  b'"text": "digital camera"}\n' % i for i in range(200))
         + b'{"doc_id": "bad", "entity_id": "cam", "text": "caf\xe9"}\n',
         ":201: not valid UTF-8"),
    "corpus_text_not_string":
        ("corpus.jsonl", b'{"doc_id": "d1", "entity_id": "cam", "text": 5}\n',
         ":1: text must be a string, got 5"),
    "corpus_entity_id_list":
        ("corpus.jsonl", b'{"doc_id": "d1", "entity_id": ["cam"], "text": "lens"}\n',
         ":1: entity_id must be a string, got ['cam']"),
    "corpus_doc_id_list":
        ("corpus.jsonl", b'{"doc_id": ["d1"], "entity_id": "cam", "text": "lens"}\n',
         ":1: doc_id must be a string, got ['d1']"),
    "corpus_record_not_object":
        ("corpus.jsonl", b'["d1", "cam", "lens"]\n', ":1: expected a JSON object"),
    "corpus_all_stopwords":
        ("corpus.jsonl", b'{"doc_id": "d1", "entity_id": "cam", "text": "the of"}\n',
         ": no tokens survive filtering"),
    "topics_not_utf8":
        ("topics.tsv", b"topic_id\ttest\nt1\tcam\xe9ra\n", ":2: not valid UTF-8"),
    "qrels_not_utf8":
        ("qrels.txt", b"t1 0 cam 1\nt2 0 gu\xffi 1\n", ":2: not valid UTF-8"),
    "vocab_not_utf8":
        ("vocab.tsv", b"camera\t0\t2\t2\nl\xe9ns\t1\t2\t2\n", ":2: not valid UTF-8"),
    "vocab_empty": ("vocab.tsv", b"", ": vocabulary is empty"),
    "run_not_utf8":
        ("run.trec", b"t1 Q0 cam 1 2.0 x\nt1 Q0 g\xfeui 2 1.0 x\n", ":2: not valid UTF-8"),
    "config_not_utf8":
        ("train.cfg", b"seed = 1\n# \xe9\n", ":2: not valid UTF-8"),
    "qi_not_utf8":
        ("attrs.jsonl", b'{"entity_id": "cam"}\n{"entity_id": "g\xe9"}\n',
         ":2: not valid UTF-8"),
    "graph_not_utf8":
        ("graph.tsv", b"cam\tgui\ngui\tp\xe9a\n", ":2: not valid UTF-8"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_naming_the_file(tmp_path, case):
    corpus, topics, qrels = write_inputs(tmp_path)
    run_file = tmp_path / "run.trec"
    run_file.write_text("t1 Q0 cam 1 2.0 x\n")
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    name, content, message = MALFORMED[case]
    bad = tmp_path / name
    bad.write_bytes(content)
    out = ["--out", str(tmp_path / "out")]
    args = {"corpus.jsonl": ["build-vocab", str(corpus)],
            "topics.tsv": ["qlm", str(corpus), str(vocab), str(topics)],
            "qrels.txt": ["eval", str(run_file), str(qrels)],
            "run.trec": ["eval", str(run_file), str(qrels)],
            "vocab.tsv": ["qlm", str(corpus), str(vocab), str(topics)],
            "model.lse": ["rank", str(bad), str(vocab), str(topics)],
            "train.cfg": ["train", str(corpus), str(vocab), "--config", str(bad)],
            "attrs.jsonl": ["fuse", str(corpus), str(vocab), str(topics), str(qrels),
                            "--qi-attrs", str(bad)],
            "graph.tsv": ["fuse", str(corpus), str(vocab), str(topics), str(qrels),
                          "--graph", f"also_bought={bad}"]}[name]
    result = CliRunner().invoke(main, args + out)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {bad}{message}" in result.output


@pytest.mark.parametrize("folds", ["1", "0", "-3"])
def test_fuse_with_fewer_than_two_folds_exits_1(tmp_path, folds):
    corpus, topics, qrels = write_inputs(tmp_path)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    out = tmp_path / "fuse"
    result = CliRunner().invoke(main, ["fuse", str(corpus), str(vocab), str(topics),
                                       str(qrels), "--out", str(out),
                                       "--folds", folds])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Error: cross-validation needs at least 2 folds, got {folds}" in result.output
    assert "Traceback" not in result.output
    assert not (out / "fusion.csv").exists() and not (out / "fusion.json").exists()


def test_fuse_checks_folds_before_reading_any_input(tmp_path, monkeypatch):
    def unreachable(*_args, **_kwargs):
        raise AssertionError("fuse read its inputs before checking --folds")

    monkeypatch.setattr(lse.cli, "load_raw_docs", unreachable)
    monkeypatch.setattr(lse.cli, "build_features", unreachable)
    corpus, topics, qrels = write_inputs(tmp_path)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    result = CliRunner().invoke(main, ["fuse", str(corpus), str(vocab), str(topics),
                                       str(qrels), "--out", str(tmp_path / "fuse"),
                                       "--folds", "1"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error: cross-validation needs at least 2 folds, got 1" in result.output


@pytest.mark.parametrize("cutoff", ["0", "-2"])
@pytest.mark.parametrize("command", ["eval", "fuse", "ideal-vector", "sweep-lambda"])
def test_cutoff_below_one_exits_1_before_any_ranker_trains(workflow, tmp_path,
                                                           monkeypatch, command,
                                                           cutoff):
    def unreachable(*_args, **_kwargs):
        raise AssertionError("a RankSVM trained before the cutoff was checked")

    monkeypatch.setattr(lse.ltr, "_pegasos", unreachable)
    root, corpus, topics, qrels, _ = workflow
    vocab, model = root / "vocab" / "vocab.tsv", root / "model" / "model.lse"
    args = {"eval": ["eval", root / "rank" / "run.trec", qrels],
            "fuse": ["fuse", corpus, vocab, topics, qrels, "--model", model,
                     "--folds", "2"],
            "ideal-vector": ["ideal-vector", model, vocab, topics, qrels],
            "sweep-lambda": ["sweep-lambda", corpus, vocab, topics, qrels]}[command]
    result = CliRunner().invoke(main, [str(a) for a in args]
                                + ["--out", str(tmp_path / "out"), "--cutoff", cutoff])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"Error: cutoff must be at least 1, got {cutoff}" in result.output
    assert "Traceback" not in result.output


class Unprintable(float):
    def __repr__(self):
        raise RuntimeError("cannot format")


def write_output(kind, path, fail):
    """Write one output file of the given kind; with fail, the write raises
    after the first line or field is out."""
    from lse.cli import _write_json

    if kind == "run":
        ranked = RankedList("t1", [("cam", 2.0), ("gui", Unprintable(1.0) if fail else 1.0)])
        write_run(path, [ranked])
    elif kind == "epoch_log":
        write_epoch_log(path, [EpochLog(1, 2.0, None, 0.5),
                               EpochLog(2, Unprintable(1.0) if fail else 1.0, 0.3, 0.5)])
    else:
        _write_json(path.parent, path.name, {"a": 1, "b": object() if fail else 2})


@pytest.mark.parametrize("kind", ["run", "epoch_log", "json"])
def test_failed_output_write_leaves_no_partial_or_temporary_file(tmp_path, kind):
    path = tmp_path / "output"
    with pytest.raises((RuntimeError, TypeError)):
        write_output(kind, path, fail=True)
    assert list(tmp_path.iterdir()) == []
    write_output(kind, path, fail=False)
    before = path.read_bytes()
    with pytest.raises((RuntimeError, TypeError)):
        write_output(kind, path, fail=True)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["output"]


def test_train_with_nan_loss_exits_1_without_model(tmp_path, monkeypatch):
    corpus, _, _ = write_inputs(tmp_path)
    runner = CliRunner()
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(tmp_path / "v")])
    step = lse.training.batch_loss_and_gradients
    monkeypatch.setattr(lse.training, "batch_loss_and_gradients",
                        lambda *args: (float("nan"), step(*args)[1]))
    out = tmp_path / "model"
    result = runner.invoke(main, ["train", str(corpus), str(tmp_path / "v" / "vocab.tsv"),
                                  "--out", str(out)] + TRAIN_FLAGS)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error: training diverged: non-finite loss at epoch 1, batch 1" in result.output
    assert "Traceback" not in result.output
    assert not (out / "model.lse").exists()


def test_all_oov_topic_listed_and_exit_zero(tmp_path):
    corpus, _, _ = write_inputs(tmp_path)
    oov_topics = tmp_path / "oov.tsv"
    oov_topics.write_text("topic_id\ttest\nt1\tcamera\nt9\txylophone\n")
    runner = CliRunner()
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(tmp_path / "v")])
    vocab = tmp_path / "v" / "vocab.tsv"
    run_ok(runner, ["train", str(corpus), str(vocab),
                    "--out", str(tmp_path / "m")] + TRAIN_FLAGS)
    result = run_ok(runner, ["rank", str(tmp_path / "m" / "model.lse"),
                             str(vocab), str(oov_topics),
                             "--out", str(tmp_path / "r")])
    assert (tmp_path / "r" / "skipped_topics.txt").read_text() == "t9\n"
    assert sorted(read_run(tmp_path / "r" / "run.trec")) == ["t1"]
    run_ok(runner, ["qlm", str(corpus), str(vocab), str(oov_topics),
                    "--out", str(tmp_path / "q")])
    assert (tmp_path / "q" / "skipped_topics.txt").read_text() == "t9\n"
    for out in ("r", "q"):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["counts"]["skipped_topics"] == 1, out


def test_sweep_lambda_lists_all_oov_topics(tmp_path):
    corpus, _, qrels = write_inputs(tmp_path)
    topics = tmp_path / "oov.tsv"
    topics.write_text("topic_id\ttest\nt1\tcamera\nt2\tzzzz\n")
    runner = CliRunner()
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(tmp_path / "v")])
    vocab = tmp_path / "v" / "vocab.tsv"
    result = run_ok(runner, ["sweep-lambda", str(corpus), str(vocab), str(topics),
                             str(qrels), "--out", str(tmp_path / "s")])
    assert (tmp_path / "s" / "skipped_topics.txt").read_text() == "t2\n"
    assert "skipped 1 all-out-of-vocabulary topics" in result.output
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["counts"]["skipped_topics"] == 1
    # every grid point's mean is t1's alone
    lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == 21 and all(line.endswith(",1.0") for line in lines)


def test_config_file_with_flag_override(tmp_path):
    corpus, _, _ = write_inputs(tmp_path)
    config = tmp_path / "train.cfg"
    config.write_text("e_v = 8\ne_e = 4\nn = 2\nz = 2\nm = 8\n"
                      "epochs = 3\nlambda = 0.05  # decay\n")
    runner = CliRunner()
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(tmp_path / "v")])
    run_ok(runner, ["train", str(corpus), str(tmp_path / "v" / "vocab.tsv"),
                    "--out", str(tmp_path / "m"), "--config", str(config),
                    "--epochs", "1"])
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 1  # flag wins
    assert manifest["config"]["lambda"] == 0.05
    assert manifest["config"]["e_v"] == 8
    lines = (tmp_path / "m" / "epochs.csv").read_text().splitlines()
    assert len(lines) == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--epochs", "0", "must be positive"),
    ("--lambda", "-0.5", "weight decay must be non-negative"),
    ("--lambda", "nan", "weight decay must be non-negative and finite, got nan"),
    ("--lambda", "inf", "weight decay must be non-negative and finite, got inf")])
def test_bad_train_flag_value_exits_1_before_writing_anything(tmp_path, flag, value,
                                                              message):
    corpus, _, _ = write_inputs(tmp_path)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    out = tmp_path / "m"
    result = CliRunner().invoke(main, ["train", str(corpus), str(vocab),
                                       "--out", str(out), flag, value])
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert not out.exists()


def test_rerun_is_byte_identical_outside_timestamps(tmp_path):
    corpus, _, _ = write_inputs(tmp_path)
    runner = CliRunner()
    for tag in ("a", "b"):
        run_ok(runner, ["build-vocab", str(corpus),
                        "--out", str(tmp_path / f"v{tag}")])
        run_ok(runner, ["train", str(corpus),
                        str(tmp_path / f"v{tag}" / "vocab.tsv"),
                        "--out", str(tmp_path / f"m{tag}")] + TRAIN_FLAGS)
    read = lambda p: p.read_bytes()
    assert read(tmp_path / "va" / "vocab.tsv") == read(tmp_path / "vb" / "vocab.tsv")
    assert read(tmp_path / "ma" / "model.lse") == read(tmp_path / "mb" / "model.lse")
    manifests = []
    for tag in ("a", "b"):
        data = json.loads((tmp_path / f"m{tag}" / "manifest.json").read_text())
        data.pop("started")
        data.pop("finished")
        data["inputs"]["vocab"].pop("path")  # differs by directory name
        manifests.append(data)
    assert manifests[0] == manifests[1]


def test_fuse_rejects_unknown_graph_name(tmp_path):
    corpus, topics, qrels = write_inputs(tmp_path)
    runner = CliRunner()
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(tmp_path / "v")])
    result = runner.invoke(main, ["fuse", str(corpus),
                                  str(tmp_path / "v" / "vocab.tsv"),
                                  str(topics), str(qrels),
                                  "--out", str(tmp_path / "f"),
                                  "--graph", "bogus=whatever.tsv"])
    assert result.exit_code == 2
    assert "unknown graph name" in result.output
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("graph,message", [
    ("also_bought", "--graph expects NAME=PATH"),
    ("also_bought=missing.tsv", "missing.tsv: no such file"),
])
def test_bad_graph_exits_2_before_writing_anything(tmp_path, graph, message):
    corpus, topics, qrels = write_inputs(tmp_path)
    (tmp_path / "graph.tsv").write_text("cam\tgui\n")
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    out = tmp_path / "f"
    result = CliRunner().invoke(main, ["fuse", str(corpus), str(vocab), str(topics),
                                       str(qrels), "--out", str(out), "--graph", graph],
                                env={"LSE_DATA_DIR": str(tmp_path)})
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out.exists()


def test_repeated_graph_name_exits_2_before_writing_anything(tmp_path):
    corpus, topics, qrels = write_inputs(tmp_path)
    for name in ("a.tsv", "b.tsv"):
        (tmp_path / name).write_text("cam\tgui\n")
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    out = tmp_path / "f"
    result = CliRunner().invoke(main, ["fuse", str(corpus), str(vocab), str(topics),
                                       str(qrels), "--out", str(out),
                                       "--graph", f"also_bought={tmp_path / 'a.tsv'}",
                                       "--graph", f"also_bought={tmp_path / 'b.tsv'}"])
    assert result.exit_code == 2, result.output
    assert "graph name 'also_bought' given more than once" in result.output
    assert not out.exists()


@pytest.mark.parametrize("change", ["reversed", "missing_entity"])
def test_fuse_rejects_a_model_trained_on_other_entities(workflow, tmp_path, change):
    """The model's entity rows must be the corpus's entities in corpus order:
    the corpus read in reverse, or without one entity's documents, exits 1
    naming the model and the corpus."""
    root, _, topics, qrels, runner = workflow
    lines = (list(reversed(CORPUS_LINES)) if change == "reversed"
             else [r for r in CORPUS_LINES if r["entity_id"] != "pia"])
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in lines))
    model = root / "model" / "model.lse"
    result = runner.invoke(main, ["fuse", str(corpus), str(root / "vocab" / "vocab.tsv"),
                                  str(topics), str(qrels), "--model", str(model),
                                  "--folds", "2", "--pair-samples", "50",
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: {model}: the model's entities are not those of "
                      f"{corpus} in the same order"]


def test_train_counts_entities_without_an_ngram_once(tmp_path):
    """An entity whose documents are all shorter than n is left out of
    sampling: the manifest counts it and stderr says so once, not per
    epoch."""
    corpus, _, _ = write_inputs(tmp_path)
    with corpus.open("a") as fh:
        fh.write(json.dumps({"doc_id": "d9", "entity_id": "amp", "text": "lens"}) + "\n")
    runner = CliRunner()
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(tmp_path / "v")])
    result = run_ok(runner, ["train", str(corpus), str(tmp_path / "v" / "vocab.tsv"),
                             "--out", str(tmp_path / "m")] + TRAIN_FLAGS)
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert manifest["counts"]["skipped_entities"] == 1
    assert manifest["config"]["epochs"] == 2
    skipped = [line for line in result.output.splitlines() if "skipped" in line]
    assert skipped == ["skipped 1 of 5 entities with no document of n = 2 tokens "
                       "or more"]


def test_window_longer_than_every_document_exits_1_naming_corpus_and_n(tmp_path):
    corpus, _, _ = write_inputs(tmp_path)
    runner = CliRunner()
    run_ok(runner, ["build-vocab", str(corpus), "--out", str(tmp_path / "v")])
    result = runner.invoke(main, ["train", str(corpus), str(tmp_path / "v" / "vocab.tsv"),
                                  "--out", str(tmp_path / "m")] + TRAIN_FLAGS
                           + ["--n", "9"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert (f"Error: {corpus}: window n = 9 is longer than every document"
            in result.output)


# command -> (argv, the exact manifest input names its argv records)
MANIFEST_COMMANDS = {
    "build-vocab": (["build-vocab", "{corpus}"], {"corpus"}),
    "train": (["train", "{corpus}", "{vocab}", "--config", "{config}",
               "--validation-topics", "{topics}", "--validation-qrels", "{qrels}"],
              {"corpus", "vocab", "config", "validation_topics", "validation_qrels"}),
    "rank": (["rank", "{model}", "{vocab}", "{topics}"], {"model", "vocab", "topics"}),
    "qlm": (["qlm", "{corpus}", "{vocab}", "{topics}"], {"corpus", "vocab", "topics"}),
    "eval": (["eval", "{run}", "{qrels}", "--baseline-run", "{run}"],
             {"run", "qrels", "baseline_run"}),
    "sweep-lambda": (["sweep-lambda", "{corpus}", "{vocab}", "{topics}", "{qrels}"],
                     {"corpus", "vocab", "topics", "qrels"}),
    "fuse": (["fuse", "{corpus}", "{vocab}", "{topics}", "{qrels}", "--model", "{model}",
              "--qi-attrs", "{attrs}", "--graph", "also_bought={graph}", "--folds", "2",
              "--pair-samples", "50"],
             {"corpus", "vocab", "topics", "qrels", "model", "qi_attrs",
              "graph_also_bought"}),
    "ideal-vector": (["ideal-vector", "{model}", "{vocab}", "{topics}", "{qrels}",
                      "--pair-samples", "50"], {"model", "vocab", "topics", "qrels"}),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_COMMANDS))
def test_manifest_records_command_and_every_input(workflow, fuzz_inputs, tmp_path,
                                                  command):
    root = workflow[0]
    paths = {name: str(path) for name, path in fuzz_inputs.items()}
    paths.update(vocab=str(root / "vocab" / "vocab.tsv"),
                 model=str(root / "model" / "model.lse"))
    argv, names = MANIFEST_COMMANDS[command]
    run_ok(CliRunner(), [arg.format(**paths) for arg in argv]
           + ["--out", str(tmp_path / "out")])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == command
    assert set(manifest["inputs"]) == names
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64 and os.path.exists(entry["path"])


def test_version_flag():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "lse" in result.output


# ---- fuzzing every text input of build-vocab, qlm, eval, train and fuse ----

FUZZ_FILES = {
    "config": ("train.cfg", b"e_v = 4\ne_e = 3\nn = 2\nz = 2\nm = 8\nepochs = 1\n"
                            b"seed = 0  # root seed\n"),
    "run": ("run.trec", b"t1 Q0 cam 1 2.5 x\nt1 Q0 gui 2 1.0 x\nt2 Q0 gui 1 0.5 x\n"
                        b"t5 Q0 vio 1 0.25 x\n"),
    "attrs": ("attrs.jsonl", b'{"entity_id": "cam", "price": 3.5, "sales_rank": 4}\n'
                             b'{"entity_id": "gui", "description_length": 12}\n'),
    "graph": ("graph.tsv", b"cam\tgui\ngui\tpia\nvio\tcam\n"),
}

# command -> (the inputs fuzzed, its argv with {input} placeholders)
FUZZ_COMMANDS = {
    "build-vocab": (("corpus",), ["build-vocab", "{corpus}"]),
    "qlm": (("corpus", "vocab", "topics"), ["qlm", "{corpus}", "{vocab}", "{topics}"]),
    "eval": (("run", "qrels"), ["eval", "{run}", "{qrels}"]),
    "train": (("config",), ["train", "{corpus}", "{vocab}", "--config", "{config}"]),
    "fuse": (("attrs", "graph"),
             ["fuse", "{corpus}", "{vocab}", "{topics}", "{qrels}", "--qi-attrs",
              "{attrs}", "--graph", "also_bought={graph}", "--folds", "2",
              "--pair-samples", "50"]),
}

# what separates the columns of each non-JSON input
FUZZ_SEPARATORS = {"vocab": b"\t", "topics": b"\t", "graph": b"\t", "qrels": b" ",
                   "run": b" ", "config": b"="}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Valid inputs for every fuzzed command: name -> path."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus, topics, qrels = write_inputs(root)
    run_ok(CliRunner(), ["build-vocab", str(corpus), "--out", str(root)])
    paths = {"corpus": corpus, "topics": topics, "qrels": qrels,
             "vocab": root / "vocab.tsv"}
    for name, (file_name, content) in FUZZ_FILES.items():
        paths[name] = root / file_name
        paths[name].write_bytes(content)
    return paths


@st.composite
def mutations(draw, data, name):
    """data with one mutation: cut short, one byte flipped, one byte
    inserted, or one line's column dropped; in JSON lines, a field is
    dropped or its value swapped for one of another JSON type."""
    lines = data.splitlines(keepends=True)
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "drop", "swap"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind in ("flip", "insert"):
        at = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(1, 255) if kind == "flip" else st.integers(0, 255))
        if kind == "flip":
            return data[:at] + bytes([data[at] ^ byte]) + data[at + 1:]
        return data[:at] + bytes([byte]) + data[at:]
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index].rstrip(b"\n")
    if name in FUZZ_SEPARATORS:
        fields = line.split(FUZZ_SEPARATORS[name])
        del fields[draw(st.integers(0, len(fields) - 1))]
        line = FUZZ_SEPARATORS[name].join(fields)
    else:
        record = json.loads(line)
        key = draw(st.sampled_from(sorted(record)))
        if kind == "drop":
            del record[key]
        else:
            record[key] = draw(st.sampled_from([None, True, 7, -2.5, 1e300, "s", [],
                                                ["x"], {}]))
        line = json.dumps(record).encode()
    return b"".join(lines[:index] + [line + b"\n"] + lines[index + 1:])


@pytest.mark.parametrize("command,name", [(command, name)
                                          for command, (names, _) in FUZZ_COMMANDS.items()
                                          for name in names])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_exits_0_or_1_naming_it(fuzz_inputs, tmp_path, command, name,
                                              data):
    path = tmp_path / fuzz_inputs[name].name
    path.write_bytes(data.draw(mutations(fuzz_inputs[name].read_bytes(), name)))
    paths = {key: str(path if key == name else value)
             for key, value in fuzz_inputs.items()}
    args = [arg.format(**paths) for arg in FUZZ_COMMANDS[command][1]]
    result = CliRunner().invoke(main, args + ["--out", str(tmp_path / "out")])
    if result.exit_code != 0:
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), \
            result.output
        assert "Traceback" not in result.output
        # A window n longer than every document is a valid config that does
        # not suit this corpus (--n 9 fails the same way): the corpus is named.
        assert (f"Error: {path}" in result.output
                or f"Error: {paths['corpus']}: window n = " in result.output), \
            result.output
