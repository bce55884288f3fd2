"""Command-line workflows, run in-process through conftest's run_main, and
failing commands through its fails()."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import lse.cli
import lse.ltr
import lse.model
import lse.retrieval
import lse.training
from conftest import (COMMANDS, CORPUS_LINES, TEXT_INPUTS, cast_params, fails,
                      pack_model, run_main, write_inputs)
from test_bad_input import CASES, check_mutations, field_operators, mutations
from lse.evaluation import TopicSet
from lse.files import write_json
from lse.model import MAGIC, Dims, init_params, load_model, save_model
from lse.retrieval import RankedList, rank_entities, read_run, write_run
from lse.text import (Vocabulary, build_vocabulary, encode_corpus, encode_topics,
                      load_raw_docs)
from lse.training import EpochLog, write_epoch_log

TRAIN_FLAGS = ["--e-v", "8", "--e-e", "4", "--n", "2", "--z", "2",
               "--m", "8", "--epochs", "2", "--seed", "0"]


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """One full pipeline pass shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cli")
    corpus, topics, qrels = write_inputs(root)
    vocab, model = root / "vocab" / "vocab.tsv", root / "model" / "model.lse"
    for args in (["build-vocab", corpus, "--out", root / "vocab"],
                 ["train", corpus, vocab, "--out", root / "model", *TRAIN_FLAGS],
                 ["rank", model, vocab, topics, "--out", root / "rank"],
                 ["qlm", corpus, vocab, topics, "--out", root / "qlm", "--lambda-jm", "0.5"],
                 ["eval", root / "rank" / "run.trec", qrels, "--out", root / "eval",
                  "--cutoff", "10", "--baseline-run", root / "qlm" / "run.trec"]):
        assert run_main(args) == 0
    return root, corpus, topics, qrels


def test_no_command_imports_the_scipy_package(workflow, tmp_path):
    # Only the training step uses scipy, and loads its compiled sparsetools
    # kernels by themselves: importing scipy, or scipy.sparse, would add
    # their start-up time and memory to every command. The commands other
    # than train load nothing of scipy at all.
    root, corpus, topics, qrels = workflow
    vocab = root / "vocab" / "vocab.tsv"
    commands = [["build-vocab", corpus, "--out", tmp_path / "vocab"],
                ["rank", root / "model" / "model.lse", vocab, topics,
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
    train = [["train", corpus, vocab, "--out", tmp_path / "train", *TRAIN_FLAGS]]
    # the scipy modules loaded after the other commands, then after train
    code = ("import json, sys, lse.cli\n"
            "for group in json.loads(sys.argv[1]):\n"
            "    for argv in group:\n"
            "        lse.cli.main(argv, standalone_mode=False)\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(lse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    groups = [[list(map(str, c)) for c in group] for group in (commands, train)]
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(groups)],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for output in ("vocab/vocab.tsv", "eval/per_topic.csv", "sweep/sweep.csv",
                   "fuse/fusion.json", "ideal/ideal.json", "train/model.lse"):
        assert (tmp_path / output).exists(), output
    assert result.stdout.splitlines()[-2:] == ["[]", "['scipy.sparse._sparsetools']"]
    # every text output, the workflow's train and eval outputs too, ends its
    # lines in \n alone
    written = [p for p in [*tmp_path.rglob("*"), *root.rglob("*")]
               if p.is_file() and p.suffix != ".lse"]
    assert {"per_topic.csv", "fusion.csv", "ideal.csv", "epochs.csv"} <= {
        p.name for p in written}
    for path in written:
        assert b"\r" not in path.read_bytes(), path


def test_build_vocab_outputs(workflow):
    root = workflow[0]
    vocab_text = (root / "vocab" / "vocab.tsv").read_text()
    assert "camera\t" in vocab_text and "guitar\t" in vocab_text
    manifest = json.loads((root / "vocab" / "manifest.json").read_text())
    assert manifest["command"] == "build-vocab"
    assert manifest["inputs"]["corpus"]["sha256"] == sha256_of(workflow[1])
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
    assert manifest["peak_rss_mb"] > 0


def test_peak_rss_reads_vmhwm_where_the_status_file_exists(tmp_path):
    status = tmp_path / "status"
    status.write_text("Name:\tpython\nVmPeak:\t  999999 kB\nVmHWM:\t    2560 kB\n")
    assert lse.cli._peak_rss_mb(str(status)) == 2.5


@pytest.mark.parametrize("platform, maxrss", [("linux", 3 << 10), ("darwin", 3 << 20)])
def test_peak_rss_falls_back_to_ru_maxrss_in_its_platform_unit(tmp_path, monkeypatch,
                                                               platform, maxrss):
    monkeypatch.setattr(lse.cli.sys, "platform", platform)
    monkeypatch.setattr(lse.cli.resource, "getrusage",
                        lambda who: mock.Mock(ru_maxrss=maxrss))
    assert lse.cli._peak_rss_mb(str(tmp_path / "absent")) == 3.0


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    """Versions and the BLAS thread variables, None where one is unset."""
    import platform

    corpus, _, _ = write_inputs(tmp_path)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert manifest["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                    "MKL_NUM_THREADS": "3"}}
    assert isinstance(blas["name"], str) and blas["name"]


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
    root, corpus, topics, qrels = workflow
    assert run_main(["sweep-lambda", corpus, root / "vocab" / "vocab.tsv", topics, qrels,
                     "--out", root / "sweep", "--cutoff", "10"]) == 0
    lines = (root / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda_jm,mean_ndcg"
    assert len(lines) == 22
    best = json.loads((root / "sweep" / "best_lambda.json").read_text())
    grid = [float(line.split(",")[0]) for line in lines[1:]]
    assert best["best_lambda_jm"] in grid
    assert (root / "sweep" / "skipped_topics.txt").read_text() == ""


def test_ideal_vector_skips_single_relevant_topics(workflow):
    root, _, topics, qrels = workflow
    assert run_main(["ideal-vector", root / "model" / "model.lse",
                     root / "vocab" / "vocab.tsv", topics, qrels,
                     "--out", root / "ideal", "--pair-samples", "500"]) == 0
    lines = (root / "ideal" / "ideal.csv").read_text().splitlines()
    assert lines[0] == "topic_id,status,n_relevant,ndcg_ideal,ndcg_query"
    rows = dict(line.split(",")[:2] for line in lines[1:])
    assert rows == {"t1": "skipped_single_relevant",
                    "t2": "skipped_single_relevant",
                    "t3": "skipped_single_relevant",
                    "t5": "ok"}
    for row in csv.DictReader(lines):  # a skipped topic has no NDCG to write
        cells = row["ndcg_ideal"], row["ndcg_query"]
        if row["status"] == "ok":
            assert all(0.0 <= float(cell) <= 1.0 for cell in cells)
        else:
            assert cells == ("", "")
    aggregate = json.loads((root / "ideal" / "ideal.json").read_text())
    assert aggregate["num_scored"] == 1
    assert sorted(aggregate["skipped"]) == ["t1", "t2", "t3"]
    assert 0.0 <= aggregate["mean_ndcg_ideal"] <= 1.0
    manifest = json.loads((root / "ideal" / "manifest.json").read_text())
    assert manifest["config"] == {"cutoff": 100, "pair_samples": 500,
                                  "batch": 5}
    assert manifest["counts"] == {"skipped_topics": 3}


def test_ideal_vector_skips_a_topic_that_judges_every_entity_relevant(workflow, tmp_path,
                                                                     capsys):
    """A topic judging all four entities relevant has no non-relevant one to
    pair with; it is labeled, and stderr counts each skip reason."""
    root, _, topics, _ = workflow
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("".join(f"t1 0 {eid} 1\n" for eid in ("cam", "gui", "pia", "vio"))
                     + "t2 0 gui 1\nt5 0 gui 1\nt5 0 vio 1\n")
    assert run_main(["ideal-vector", root / "model" / "model.lse", root / "vocab" / "vocab.tsv",
                     topics, qrels, "--out", tmp_path / "ideal", "--pair-samples", "500"]) == 0
    with open(tmp_path / "ideal" / "ideal.csv", encoding="utf-8") as fh:
        rows = {row["topic_id"]: row["status"] for row in csv.DictReader(fh)}
    assert rows == {"t1": "skipped_all_relevant", "t2": "skipped_single_relevant",
                    "t3": "skipped_no_relevant", "t5": "ok"}
    assert ("skipped 3 topics: 1 skipped_all_relevant, 1 skipped_no_relevant, "
            "1 skipped_single_relevant") in capsys.readouterr().err


def test_fuse_names_the_qrels_when_a_fold_cannot_train(tmp_path, capsys):
    corpus, topics, _ = write_inputs(tmp_path)
    qrels = tmp_path / "nobody.txt"
    qrels.write_text("t1 0 nobody 1\nt2 0 none 1\n")
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    fails(capsys, 1, tmp_path / "f", ["fuse", corpus, tmp_path / "v" / "vocab.tsv", topics,
                                      qrels, "--out", tmp_path / "f", "--folds", "2"],
          f"Error: {qrels}: no training topic of fold 1 has both a relevant and "
          "a non-relevant entity")


def test_fuse_reports_all_combinations(workflow):
    root, corpus, topics, qrels = workflow
    attrs = root / "attrs.jsonl"
    attrs.write_text('{"entity_id": "cam", "price": 199.0, "sales_rank": 2, '
                     '"description_length": 40}\n'
                     '{"entity_id": "gui", "price": 450.0}\n')
    graph = root / "also_bought.tsv"
    graph.write_text("cam\tgui\ngui\tvio\n")
    assert run_main(["fuse", corpus, root / "vocab" / "vocab.tsv", topics, qrels,
                     "--out", root / "fuse", "--model", root / "model" / "model.lse",
                     "--qi-attrs", attrs, "--graph", f"also_bought={graph}",
                     "--folds", "2", "--pair-samples", "300", "--cutoff", "10"]) == 0
    lines = (root / "fuse" / "fusion.csv").read_text().splitlines()
    assert lines[0].startswith("features,ndcg@10,ndcg@10_sig,p@5")
    assert [line.split(",")[0] for line in lines[1:]] == [
        "qi", "qi+qlm", "qi+lse", "qi+qlm+lse"]
    payload = json.loads((root / "fuse" / "fusion.json").read_text())
    assert len(payload["rows"]) == 4
    significance = payload["significance_full_vs_qi_qlm"]
    assert set(significance) == {"ndcg@10", "p@5", "p@10"}
    # only the full combination is tested against qi+qlm
    for row in csv.DictReader(lines):
        full = row["features"] == "qi+qlm+lse"
        for metric, entry in significance.items():
            assert row[f"{metric}_sig"] == (entry.get("marker", "") if full else "")
    manifest = json.loads((root / "fuse" / "manifest.json").read_text())
    assert "graph_also_bought" in manifest["inputs"]
    assert manifest["config"] == {"lambda_jm": 0.5, "folds": 2, "cutoff": 10,
                                  "pair_samples": 300, "batch": 3}


def test_fuse_without_model_reports_qi_and_qi_qlm_only(workflow, tmp_path):
    root, corpus, topics, qrels = workflow
    assert run_main(["fuse", corpus, root / "vocab" / "vocab.tsv", topics, qrels,
                     "--out", tmp_path / "fuse", "--folds", "2", "--pair-samples", "300",
                     "--cutoff", "10"]) == 0
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
    assert run_main(["eval", run, qrels, "--out", tmp_path / "e"]) == 0
    aggregate = json.loads((tmp_path / "e" / "aggregate.json").read_text())
    assert aggregate["means"]["ndcg@100"] == 1.0


def test_eval_lists_judged_topics_the_run_leaves_out(tmp_path, capsys):
    _, _, qrels = write_inputs(tmp_path)
    run = tmp_path / "run.trec"
    run.write_text("t1 Q0 cam 1 0.9 x\n")
    assert run_main(["eval", run, qrels, "--out", tmp_path / "e"]) == 0
    aggregate = json.loads((tmp_path / "e" / "aggregate.json").read_text())
    assert aggregate["missing_topics"] == ["t2", "t3", "t5"]
    # means stay over the scored topics
    assert aggregate["num_topics"] == 1
    assert aggregate["means"]["ndcg@100"] == 1.0
    assert "3 judged topics have no line in the run" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert manifest["counts"] == {"missing_topics": 3}


def test_corpus_commands_record_encoding_counts_in_manifest(workflow, tmp_path):
    root, corpus, topics, qrels = workflow
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
        assert run_main(args + ["--out", tmp_path / command]) == 0
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["counts"] == {**encoding, **skipped.get(command, {})}, command
    for command, counts in (("rank", {"skipped_topics": 0}),
                            ("eval", {"missing_topics": 0})):
        manifest = json.loads((root / command / "manifest.json").read_text())
        assert manifest["counts"] == counts, command


def test_grad_check_passes_and_writes_report(tmp_path, capsys):
    assert run_main(["grad-check", "--seeds", "2", "--out", tmp_path / "gc"]) == 0
    assert "max relative error" in capsys.readouterr().err
    report = json.loads((tmp_path / "gc" / "grad_check.json").read_text())
    assert report["max_rel_err"] < 1e-4
    assert report["non_finite"] is False
    assert len(report["results"]) == 4
    manifest = json.loads((tmp_path / "gc" / "manifest.json").read_text())
    assert manifest["command"] == "grad-check"
    assert manifest["config"] == {"seeds": 2, "eps": 1e-5, "tolerance": 1e-4}
    # a failing check exits 1 and still leaves its report and manifest
    fails(capsys, 1, None, ["grad-check", "--seeds", "1", "--tolerance", "0",
                            "--out", tmp_path / "bad"], "Error: gradient check failed")
    report = json.loads((tmp_path / "bad" / "grad_check.json").read_text())
    assert report["tolerance"] == 0 and len(report["results"]) == 2
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert manifest["config"]["tolerance"] == 0


def test_missing_input_exits_2(tmp_path, capsys):
    fails(capsys, 2, tmp_path / "o", ["build-vocab", tmp_path / "absent.jsonl",
                                      "--out", tmp_path / "o"], "no such file")


@pytest.mark.parametrize("given", ["--validation-topics", "--validation-qrels"])
def test_one_validation_flag_alone_exits_2_before_writing_anything(tmp_path, capsys, given):
    corpus, topics, qrels = write_inputs(tmp_path)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    path = {"--validation-topics": topics, "--validation-qrels": qrels}[given]
    out = tmp_path / "m"
    fails(capsys, 2, out, ["train", corpus, vocab, "--out", out, given, path, *TRAIN_FLAGS],
          "--validation-topics and --validation-qrels must be given together")


@pytest.mark.parametrize("command, option, value", [
    pytest.param("rank", "--top-k", "0", id="rank"),
    pytest.param("qlm", "--top-k", "0", id="qlm"),
    pytest.param("grad-check", "--seeds", "0", id="grad-check"),
    pytest.param("fuse", "--pair-samples", "0", id="fuse"),
    pytest.param("ideal-vector", "--pair-samples", "0", id="ideal-vector"),
    *(pytest.param(command, "--cutoff", value, id=f"{command}-cutoff{value}")
      for command in ("eval", "sweep-lambda", "fuse", "ideal-vector")
      for value in ("0", "-2")),
    *(pytest.param("fuse", "--folds", value, id=f"fuse-folds{value}")
      for value in ("1", "0", "-3")),
    *(pytest.param("build-vocab", "--max-size", value, id=f"build-vocab-max-size{value}")
      for value in ("0", "65537")),
    *(pytest.param(command, "--lambda-jm", value, id=f"{command}-lambda-jm{value}")
      for command in ("qlm", "fuse") for value in ("2", "-1", "nan")),
    *(pytest.param("train", option, "0", id=f"train{option[1:]}0")
      for option in ("--epochs", "--e-v", "--e-e", "--n", "--z", "--m"))])
def test_count_option_below_one_exits_2_naming_it(workflow, tmp_path, monkeypatch, capsys,
                                                  command, option, value):
    """A count below its range (--folds below 2), a --max-size above the
    vocabulary cap or a --lambda-jm outside [0, 1] exits 2 naming the option,
    before any input is read or the output directory is made."""
    root, corpus, topics, qrels = workflow
    vocab = root / "vocab" / "vocab.tsv"
    model = root / "model" / "model.lse"
    out = tmp_path / "out"
    args = {"build-vocab": ["build-vocab", corpus],
            "train": ["train", corpus, vocab],
            "rank": ["rank", model, vocab, topics],
            "qlm": ["qlm", corpus, vocab, topics],
            "grad-check": ["grad-check"],
            "eval": ["eval", root / "rank" / "run.trec", qrels],
            "sweep-lambda": ["sweep-lambda", corpus, vocab, topics, qrels],
            "fuse": ["fuse", corpus, vocab, topics, qrels, "--model", model],
            "ideal-vector": ["ideal-vector", model, vocab, topics, qrels]}[command]

    def unreachable(*_args, **_kwargs):
        raise AssertionError(f"{command} read an input before checking {option}")

    for name in ("load_raw_docs", "load_model", "read_run"):
        monkeypatch.setattr(lse.cli, name, unreachable)
    for loader in (lse.cli.Vocabulary, lse.cli.TopicSet, lse.cli.Qrels):
        monkeypatch.setattr(loader, "load", unreachable)
    fails(capsys, 2, out, args + ["--out", out, option, value], f"Invalid value for '{option}'")


@pytest.mark.parametrize("command", ["train", "train-config", "fuse", "ideal-vector"])
def test_negative_seed_exits_before_writing_anything(workflow, tmp_path, capsys, command):
    """A flag exits 2 naming --seed; a config file's seed exits 1 naming the
    file."""
    root, corpus, topics, qrels = workflow
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
    if command == "train-config":
        fails(capsys, 1, out, args + ["--out", out],
              f"Error: {config}: seed must be non-negative, got -3")
    else:
        fails(capsys, 2, out, args + ["--out", out], "Invalid value for '--seed'")


@pytest.mark.parametrize("eps", ["0", "-1e-5"])
def test_grad_check_eps_not_above_zero_exits_2_naming_it(tmp_path, capsys, eps):
    out = tmp_path / "out"
    fails(capsys, 2, out, ["grad-check", "--eps", eps, "--out", out], "Invalid value for '--eps'")


@pytest.mark.parametrize("option", ["--eps", "--tolerance"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_grad_check_non_finite_option_exits_2_naming_it(tmp_path, capsys, option, value):
    out = tmp_path / "out"
    fails(capsys, 2, out, ["grad-check", option, value, "--out", out],
          f"Invalid value for '{option}': must be finite")


def test_grad_check_fails_on_a_nan_gradient(tmp_path, capsys):
    step = lse.model.batch_loss_and_gradients

    def nan_gradient(*args):
        loss, grads = step(*args)
        grads.W_e[:] = np.nan
        return loss, grads

    with mock.patch.object(lse.model, "batch_loss_and_gradients", nan_gradient):
        fails(capsys, 1, None, ["grad-check", "--seeds", "1", "--out", tmp_path / "gc"],
              "Error: gradient check failed: inf >= 0.0001")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    # strict JSON: NaN and Infinity are not numbers there
    report = json.loads((tmp_path / "gc" / "grad_check.json").read_text(),
                        parse_constant=reject)
    assert report["max_rel_err"] is None and report["non_finite"] is True
    assert [r["max_rel_err"] for r in report["results"]] == [None, None]


def test_data_dir_resolves_relative_inputs(tmp_path, monkeypatch):
    corpus, _, _ = write_inputs(tmp_path)
    monkeypatch.setenv("LSE_DATA_DIR", str(tmp_path))
    assert run_main(["build-vocab", "corpus.jsonl", "--out", tmp_path / "v"]) == 0
    manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
    assert manifest["inputs"]["corpus"]["path"] == str(corpus)


def test_validation_ndcg_is_what_rank_gives_the_saved_model(tmp_path):
    # float32 training saves a float32 model, which `rank` scores in
    # float32; validation must have scored the same float32 parameters.
    corpus, topics, qrels = write_inputs(tmp_path)
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    vocab = tmp_path / "v" / "vocab.tsv"
    assert run_main(["train", corpus, vocab, "--out", tmp_path / "m", "--precision", "float32",
                     "--validation-topics", topics, "--validation-qrels", qrels,
                     *TRAIN_FLAGS, "--epochs", "4"]) == 0
    model = tmp_path / "m" / "model.lse"
    assert json.loads((tmp_path / "m" / "model.lse.meta.json").read_text())["dtype"] == "float32"
    with open(tmp_path / "m" / "epochs.csv", encoding="utf-8") as fh:
        best = max(float(row["validation_ndcg"]) for row in csv.DictReader(fh))
    assert run_main(["rank", model, vocab, topics, "--out", tmp_path / "r"]) == 0
    assert run_main(["eval", tmp_path / "r" / "run.trec", qrels, "--out", tmp_path / "e"]) == 0
    aggregate = json.loads((tmp_path / "e" / "aggregate.json").read_text())
    assert aggregate["means"]["ndcg@100"] == best


def test_vocabulary_mismatch_exits_1(tmp_path, capsys):
    corpus, topics, _ = write_inputs(tmp_path)
    model, vocab = tmp_path / "m" / "model.lse", tmp_path / "v2" / "vocab.tsv"
    for args in (["build-vocab", corpus, "--out", tmp_path / "v1"],
                 ["build-vocab", corpus, "--out", tmp_path / "v2", "--max-size", "3"],
                 ["train", corpus, tmp_path / "v1" / "vocab.tsv", "--out", tmp_path / "m",
                  *TRAIN_FLAGS]):
        assert run_main(args) == 0
    fails(capsys, 1, tmp_path / "r", ["rank", model, vocab, topics, "--out", tmp_path / "r"],
          f"Error: {model}: vocabulary {vocab} does not match the one the model "
          "was trained with")


def test_qlm_rejects_a_lone_surrogate_entity_id_naming_the_line(tmp_path, capsys):
    """A JSON escape can put a lone surrogate in a string. In text the
    tokenizer ignores it; in an entity id, which the run file holds, it is a
    DataError naming the line, not a traceback when the run is written."""
    corpus, topics, _ = write_inputs(tmp_path)
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    args = ["qlm", corpus, tmp_path / "v" / "vocab.tsv", topics]
    lines = corpus.read_text()
    corpus.write_text('{"doc_id": "d0", "entity_id": "cam", "text": "lens\\ud800"}\n' + lines)
    assert run_main(args + ["--out", tmp_path / "ok"]) == 0
    corpus.write_text('{"doc_id": "d0", "entity_id": "cam\\ud800", "text": "lens"}\n' + lines)
    fails(capsys, 1, tmp_path / "q", args + ["--out", tmp_path / "q"],
          f"Error: {corpus}:1: entity_id 'cam\\ud800' is not valid UTF-8")


@pytest.mark.parametrize("command", ["rank", "fuse", "ideal-vector"])
def test_model_vocabulary_size_mismatch_exits_1_naming_the_model(tmp_path, capsys, command):
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
    assert fails(capsys, 1, tmp_path / "out", argv + ["--out", tmp_path / "out"]) == (
        f"Error: {model}: model has 2 word embeddings but vocabulary {vocab} has 3 words")


GOOD_HEADER = {"format": "lse-model", "dtype": "float64", "entity_ids": ["cam", "gui"],
               "dims": {"e_v": 2, "e_e": 2, "vocab_size": 1, "num_entities": 2}}


def model_file(values, dtype="float64", **header):
    """A GOOD_HEADER container holding the 12 array values W_v, W, b, W_e."""
    arrays = np.array(values, dtype={"float32": "<f4", "float64": "<f8"}[dtype])
    return pack_model(dict(GOOD_HEADER, dtype=dtype, **header), arrays.tobytes())


# file to corrupt, its bytes, and what the error must say after the path
MALFORMED = {
    "qrels_grade_not_integer":
        ("qrels.txt", b"t1 0 cam 1\nt2 0 gui yes\n", ":2: relevance grade"),
    "vocab_id_not_integer":
        ("vocab.tsv", b"camera\t0\t2\t2\nlens\tone\t2\t2\n", ":2: id and counts"),
    "vocab_count_negative":
        ("vocab.tsv", b"camera\t0\t2\t2\nlens\t1\t-1\t-5\n",
         ":2: counts must satisfy 0 <= doc_frequency <= frequency"),
    "vocab_doc_frequency_above_frequency":
        ("vocab.tsv", b"camera\t0\t2\t3\n",
         ":1: counts must satisfy 0 <= doc_frequency <= frequency"),
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
        ("model.lse", pack_model({"format": "lse-model", "entity_ids": []}),
         ": model header lacks valid dims"),
    "model_header_not_json":
        ("model.lse", pack_model(b"{not json"), ": model header is not"),
    "model_cut_in_length_field":
        ("model.lse", MAGIC + b"\x05\x00", ": truncated header length"),
    "model_wrong_format":
        ("model.lse", pack_model(dict(GOOD_HEADER, format="other")),
         ": header format is not lse-model"),
    "model_header_longer_than_file":
        ("model.lse", pack_model(GOOD_HEADER, declared_length=4096),
         ": header length 4096 exceeds the file"),
    "model_entity_ids_disagree":
        ("model.lse", pack_model(dict(GOOD_HEADER, entity_ids=["cam"])),
         ": header needs one entity id"),
    "model_dtype_float16":
        ("model.lse", pack_model(dict(GOOD_HEADER, dtype="float16")),
         ": header dtype must be float32 or float64, got 'float16'"),
    "model_entity_ids_repeated":
        ("model.lse", model_file([0.5] * 12, entity_ids=["cam", "cam"]),
         ": header entity_ids must be distinct strings"),
    "model_entity_ids_not_strings":
        ("model.lse", model_file([0.5] * 12, entity_ids=[1, 2]),
         ": header entity_ids must be distinct strings"),
    # ids are fields of whitespace-separated run lines
    "corpus_entity_id_with_space":
        ("corpus.jsonl", b'{"doc_id": "d1", "entity_id": "cam", "text": "lens"}\n'
                         b'{"doc_id": "d2", "entity_id": "cam era", "text": "lens"}\n',
         ":2: entity_id 'cam era' is empty or holds whitespace"),
    "topics_id_with_no_break_space":
        ("topics.tsv", b"topic_id\ttest\nt1\tcamera\nt\xc2\xa02\tlens\n",
         ":3: topic id 't\\xa02' is empty or holds whitespace"),
    "model_entity_id_empty":
        ("model.lse", model_file([0.5] * 12, entity_ids=["cam", ""]),
         ": header entity id '' is empty or holds whitespace"),
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
    # one entry past the ids a 16-bit integer can hold
    "vocab_over_cap":
        ("vocab.tsv", b"".join(b"w%d\t%d\t1\t1\n" % (i, i) for i in range(65537)),
         ":65537: vocabulary exceeds the 16-bit id limit"),
    "run_not_utf8":
        ("run.trec", b"t1 Q0 cam 1 2.0 x\nt1 Q0 g\xfeui 2 1.0 x\n", ":2: not valid UTF-8"),
    "config_not_utf8":
        ("train.cfg", b"seed = 1\n# \xe9\n", ":2: not valid UTF-8"),
    "qi_not_utf8":
        ("attrs.jsonl", b'{"entity_id": "cam"}\n{"entity_id": "g\xe9"}\n',
         ":2: not valid UTF-8"),
    # a second record for an entity would silently replace the first
    "qi_repeated_entity":
        ("attrs.jsonl", b'{"entity_id": "cam", "price": 1.0}\n{"entity_id": "gui"}\n'
                        b'{"entity_id": "cam", "price": 9.0}\n',
         ":3: duplicate entity_id 'cam', first on line 1"),
    "graph_not_utf8":
        ("graph.tsv", b"cam\tgui\ngui\tp\xe9a\n", ":2: not valid UTF-8"),
    # a line of each delimited format with one field too many or too few
    "fields_topics":
        ("topics.tsv", b"topic_id\ttest\nt1\tcamera\tlens\n",
         ":2: expected 2 tab-separated fields"),
    "fields_qrels":
        ("qrels.txt", b"t1 0 cam 1\nt2 0 gui\n", ":2: expected 4 whitespace-separated fields"),
    "fields_vocab":
        ("vocab.tsv", b"camera\t0\t2\t2\nlens\t1\t2\n", ":2: expected 4 tab-separated fields"),
    "fields_graph":
        ("graph.tsv", b"cam\tgui\ngui\tpia\tvio\n", ":2: expected 2 tab-separated fields"),
    "fields_run":
        ("run.trec", b"t1 Q0 cam 1 2.0 x\nt1 Q0 gui 2 1.0\n",
         ":2: expected 6 whitespace-separated fields"),
    "run_second_field_not_q0":
        ("run.trec", b"t1 Q0 cam 1 2.0 x\nt1 0 gui 2 1.0 x\n", ":2: malformed run line"),
    "config_validation_cutoff_zero":
        ("train.cfg", b"validation_cutoff = 0\n", ": validation cutoff must be positive"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_naming_the_file(tmp_path, capsys, case):
    corpus, topics, qrels = write_inputs(tmp_path)
    run_file = tmp_path / "run.trec"
    run_file.write_text("t1 Q0 cam 1 2.0 x\n")
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    name, content, message = MALFORMED[case]
    bad = tmp_path / name
    bad.write_bytes(content)
    args = {"corpus.jsonl": ["build-vocab", corpus],
            "topics.tsv": ["qlm", corpus, vocab, topics],
            "qrels.txt": ["eval", run_file, qrels],
            "run.trec": ["eval", run_file, qrels],
            "vocab.tsv": ["qlm", corpus, vocab, topics],
            "model.lse": ["rank", bad, vocab, topics],
            "train.cfg": ["train", corpus, vocab, "--config", bad],
            "attrs.jsonl": ["fuse", corpus, vocab, topics, qrels, "--qi-attrs", bad],
            "graph.tsv": ["fuse", corpus, vocab, topics, qrels,
                          "--graph", f"also_bought={bad}"]}[name]
    fails(capsys, 1, tmp_path / "out", args + ["--out", tmp_path / "out"],
          f"Error: {bad}{message}")


def test_model_dims_beyond_the_file_exits_1_before_anything_is_allocated(tmp_path, capsys):
    """A header claiming 10**12 words fails on its size, before np.empty is
    asked for the 16 TB its dims imply: that was a MemoryError traceback."""
    _, topics, _ = write_inputs(tmp_path)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    model = tmp_path / "model.lse"
    model.write_bytes(model_file([0.5] * 12, dims=dict(GOOD_HEADER["dims"],
                                                       vocab_size=10 ** 12)))
    fails(capsys, 1, tmp_path / "out", ["rank", model, vocab, topics, "--out", tmp_path / "out"],
          f"Error: {model}: truncated arrays: the header's dims and dtype need "
          f"{(2 * 10 ** 12 + 10) * 8} bytes after it, the file holds 96")


def test_failed_command_keeps_an_out_directory_that_existed(tmp_path, capsys):
    _, _, qrels = write_inputs(tmp_path)
    run_file = tmp_path / "run.trec"
    run_file.write_text("t1 Q0 cam 1 2.0 x\nt1 Q0 gui 2\n")
    out = tmp_path / "existing"
    out.mkdir()
    (out / "aggregate.json").write_text("{}\n")
    fails(capsys, 1, None, ["eval", run_file, qrels, "--out", out],
          f"Error: {run_file}:2: expected 6 whitespace-separated fields")
    assert [p.name for p in out.iterdir()] == ["aggregate.json"]
    assert (out / "aggregate.json").read_text() == "{}\n"


@pytest.mark.parametrize("existing", [False, True])
def test_failed_command_removes_the_parent_directories_it_made(tmp_path, capsys, existing):
    """A failed command run with --out n1/n2/n3 removes the topmost of those
    directories that it made; a parent that existed keeps its contents."""
    _, _, qrels = write_inputs(tmp_path)
    run_file = tmp_path / "run.trec"
    run_file.write_text("t1 Q0 cam 1 2.0 x\nt1 Q0 gui 2\n")
    top = tmp_path / "n1"
    if existing:
        top.mkdir()
        (top / "keep.txt").write_text("kept\n")
    fails(capsys, 1, top / "n2" if existing else top,
          ["eval", run_file, qrels, "--out", top / "n2" / "n3"],
          f"Error: {run_file}:2: expected 6 whitespace-separated fields")
    if existing:
        assert [p.name for p in top.iterdir()] == ["keep.txt"]
        assert (top / "keep.txt").read_text() == "kept\n"


@pytest.mark.parametrize("out, message", [
    pytest.param("corpus.jsonl/x", "Not a directory", id="under-a-file"),
    pytest.param("", "No such file or directory", id="empty")])
def test_out_that_cannot_be_made_exits_1(tmp_path, monkeypatch, capsys, out, message):
    """An --out under a regular file, or an empty one, is an error line and
    exit 1, not an OSError traceback, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path, ["corpus"])
    fails(capsys, 1, None, ["build-vocab", "corpus.jsonl", "--out", out], message)
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]
    assert (tmp_path / "corpus.jsonl").read_text() == TEXT_INPUTS["corpus"][1]


@pytest.mark.parametrize("error, message", [
    pytest.param(MemoryError(), "Error: MemoryError", id="no-message"),
    pytest.param(MemoryError("Unable to allocate 58.2 TiB"),
                 "Error: Unable to allocate 58.2 TiB", id="numpy-message")])
def test_running_out_of_memory_exits_1_without_a_model(inputs, tmp_path, monkeypatch, capsys,
                                                       error, message):
    """A MemoryError, as NumPy raises for train --e-v 1000000000000, is an
    error line and exit 1; one without a message is named by its type."""
    def exhausted(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(lse.training, "init_params", exhausted)
    out = tmp_path / "m"
    fails(capsys, 1, out, [arg.format(**inputs) for arg in COMMANDS["train"]] + ["--out", out],
          message)


@pytest.mark.parametrize("option, message", [
    ("--e-v", "Error: --e-v: an array of 10"), ("--e-e", "Error: --e-e: an array of"),
    ("--z", "Error: --z: an array of"), ("--n", f"window n = {10 ** 30} is longer than")],
    ids=["--e-v", "--e-e", "--z", "--n"])
def test_dimensions_numpy_cannot_size_exit_1_naming_the_option(inputs, tmp_path, monkeypatch,
                                                                capsys, option, message):
    """A dimension of 10**30 is an error line naming the option, exit 1,
    before anything is drawn, not NumPy's "Maximum allowed dimension
    exceeded" ValueError from init_params or the sampler, or an
    OverflowError from the window's start positions."""
    def unreachable(*_args, **_kwargs):
        raise AssertionError("train drew parameters before checking their sizes")

    monkeypatch.setattr(lse.training, "init_params", unreachable)
    out = tmp_path / "m"
    fails(capsys, 1, out, [arg.format(**inputs) for arg in COMMANDS["train"]]
          + ["--out", out, option, str(10 ** 30)], message)


@pytest.mark.parametrize("command", ["fuse", "ideal-vector"])
def test_pair_samples_numpy_cannot_size_exit_1_naming_the_option(inputs, tmp_path, capsys,
                                                                  command):
    """--pair-samples 10**30 makes Pegasos steps of 10**28 pairs: an error
    line naming the option, exit 1, before --out is made, not NumPy's
    "Maximum allowed dimension exceeded" ValueError from the pair draws."""
    out = tmp_path / "p"
    args = [arg.format(**inputs) for arg in COMMANDS[command]]
    args[args.index("--pair-samples") + 1] = str(10 ** 30)
    fails(capsys, 1, out, args + ["--out", out], f"Error: --pair-samples: an array of "
          f"{10 ** 28} values is more than NumPy can allocate")


def test_fuse_checks_folds_before_reading_any_input(tmp_path, monkeypatch, capsys):
    def unreachable(*_args, **_kwargs):
        raise AssertionError("fuse read its inputs before checking --folds")

    monkeypatch.setattr(lse.cli, "load_raw_docs", unreachable)
    monkeypatch.setattr(lse.cli, "build_features", unreachable)
    corpus, topics, qrels = write_inputs(tmp_path)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    out = tmp_path / "fuse"
    fails(capsys, 2, out, ["fuse", corpus, vocab, topics, qrels, "--out", out, "--folds", "1"],
          "Invalid value for '--folds': 1 is not in the range x>=2")


class Unprintable(float):
    def __repr__(self):
        raise RuntimeError("cannot format")


def write_output(kind, path, fail):
    """Write one output file of the given kind; with fail, the write raises
    after the first line or field is out."""
    if kind == "run":
        ranked = RankedList("t1", [("cam", 2.0), ("gui", Unprintable(1.0) if fail else 1.0)])
        write_run(path, [ranked])
    elif kind == "epoch_log":
        write_epoch_log(path, [EpochLog(1, 2.0, None, 0.5),
                               EpochLog(2, Unprintable(1.0) if fail else 1.0, 0.3, 0.5)])
    else:
        write_json(path, {"a": 1, "b": object() if fail else 2})


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


def test_train_with_nan_loss_exits_1_without_model(tmp_path, monkeypatch, capsys):
    corpus, _, _ = write_inputs(tmp_path)
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    step = lse.training.batch_loss_and_gradients
    monkeypatch.setattr(lse.training, "batch_loss_and_gradients",
                        lambda *args: (float("nan"), step(*args)[1]))
    out = tmp_path / "model"
    fails(capsys, 1, out, ["train", corpus, tmp_path / "v" / "vocab.tsv", "--out", out,
                           *TRAIN_FLAGS],
          "Error: training diverged: non-finite loss at epoch 1, batch 1")


def test_all_oov_topic_listed_and_exit_zero(tmp_path):
    corpus, _, _ = write_inputs(tmp_path)
    oov_topics = tmp_path / "oov.tsv"
    oov_topics.write_text("topic_id\ttest\nt1\tcamera\nt9\txylophone\n")
    vocab = tmp_path / "v" / "vocab.tsv"
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    assert run_main(["train", corpus, vocab, "--out", tmp_path / "m", *TRAIN_FLAGS]) == 0
    assert run_main(["rank", tmp_path / "m" / "model.lse", vocab, oov_topics,
                     "--out", tmp_path / "r"]) == 0
    assert (tmp_path / "r" / "skipped_topics.txt").read_text() == "t9\n"
    assert sorted(read_run(tmp_path / "r" / "run.trec")) == ["t1"]
    assert run_main(["qlm", corpus, vocab, oov_topics, "--out", tmp_path / "q"]) == 0
    assert (tmp_path / "q" / "skipped_topics.txt").read_text() == "t9\n"
    for out in ("r", "q"):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["counts"]["skipped_topics"] == 1, out


@pytest.mark.parametrize("command, names", [("rank", {"model", "vocab", "topics"}),
                                            ("qlm", {"corpus", "vocab", "topics"}),
                                            ("eval", {"run", "qrels", "baseline_run"})])
def test_manifest_digests_are_the_sha256_of_each_input(workflow, command, names):
    manifest = json.loads((workflow[0] / command / "manifest.json").read_text())
    assert set(manifest["inputs"]) == names
    for entry in manifest["inputs"].values():
        assert entry["sha256"] == sha256_of(entry["path"])


@pytest.mark.parametrize("command", ["rank", "fuse", "ideal-vector"])
def test_model_digest_comes_from_its_one_read(workflow, tmp_path, monkeypatch, command):
    """The commands that load a model digest it from the bytes load_model
    reads, never reading the file again, and the digest is still the
    SHA-256 of the file."""
    root, corpus, topics, qrels = workflow
    model, vocab = root / "model" / "model.lse", root / "vocab" / "vocab.tsv"
    hashed = []
    sha256_file = lse.cli._sha256_file
    monkeypatch.setattr(lse.cli, "_sha256_file",
                        lambda path: hashed.append(path) or sha256_file(path))
    args = {"rank": ["rank", model, vocab, topics],
            "fuse": ["fuse", corpus, vocab, topics, qrels, "--model", model,
                     "--folds", "2", "--pair-samples", "500"],
            "ideal-vector": ["ideal-vector", model, vocab, topics, qrels,
                             "--pair-samples", "500"]}[command]
    assert run_main(args + ["--out", tmp_path / "out"]) == 0
    inputs = json.loads((tmp_path / "out" / "manifest.json").read_text())["inputs"]
    assert inputs["model"]["sha256"] == sha256_of(model)
    assert str(vocab) in hashed and str(model) not in hashed


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_piped_input_is_read_once_and_records_a_null_digest(workflow, tmp_path):
    """A corpus given as a pipe (as `<(cat corpus.jsonl)` gives it) is read by
    the command alone, and the manifest records no digest for it."""
    root, corpus, topics = workflow[:3]
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, corpus.read_bytes())  # fits in the pipe's buffer
        os.close(write_end)
        assert run_main(["qlm", f"/dev/fd/{read_end}", root / "vocab" / "vocab.tsv", topics,
                         "--out", tmp_path / "q"]) == 0
    finally:
        os.close(read_end)
    assert ((tmp_path / "q" / "run.trec").read_bytes()
            == (root / "qlm" / "run.trec").read_bytes())
    inputs = json.loads((tmp_path / "q" / "manifest.json").read_text())["inputs"]
    assert inputs["corpus"]["sha256"] is None
    assert inputs["vocab"]["sha256"] == sha256_of(root / "vocab" / "vocab.tsv")


@pytest.mark.parametrize("block", [None, 1, 2, 3])
@pytest.mark.parametrize("lines", [["t1\tcamera lens", "t9\txylophone", "t2\tguitar",
                                    "t5\tstrings wood", "t4\tpiano violin"],
                                   ["t3\tpiano keys"]])
def test_rank_ranks_each_topic_as_rank_entities_ranks_it_alone(workflow, tmp_path,
                                                               monkeypatch, lines, block):
    """rank scores a block of topics in one matrix product; the topic, entity
    and rank columns are those of ranking each topic alone, the scores agree
    to rounding, and an all-out-of-vocabulary topic is still skipped, with
    one, two or three topics per block or all in one. One topic is a one-row
    stack. Both run on the workflow's float32 model and a float64 copy."""
    root = workflow[0]
    vocab, model32 = root / "vocab" / "vocab.tsv", root / "model" / "model.lse"
    params32, header = load_model(model32)
    model64 = tmp_path / "model64.lse"
    save_model(model64, cast_params(params32, np.float64), header["vocab_sha256"],
               header["entity_ids"], header["config"])
    if block:
        monkeypatch.setattr(lse.retrieval, "_BLOCK_SCORES", block * len(header["entity_ids"]))
    topics = tmp_path / "topics.tsv"
    topics.write_text("topic_id\ttest\n" + "".join(line + "\n" for line in lines))
    queries = encode_topics(TopicSet.load(topics), Vocabulary.load(vocab))
    skipped = "t9\n" if len(lines) > 1 else ""
    assert [tid for tid, ids in queries.items() if not ids] == skipped.split()
    # float64 sums in another order differ in their last bits; float32 ones
    # by a few float32 roundings (at most 2.2e-7 relative seen)
    for model, tol in ((model64, 1e-12), (model32, 4 * np.finfo(np.float32).eps)):
        params, out = load_model(model)[0], tmp_path / model.stem
        assert run_main(["rank", model, vocab, topics, "--top-k", "3", "--out", out]) == 0
        want = [(tid, eid, rank, score) for tid, ids in queries.items() if ids
                for rank, (eid, score) in enumerate(
                    rank_entities(params, ids, header["entity_ids"], tid, 3).entries, 1)]
        got = [line.split() for line in (out / "run.trec").read_text().splitlines()]
        assert [(t, e, int(r)) for t, _, e, r, _, _ in got] == [w[:3] for w in want]
        assert len({t for t, *_ in got}) == len(lines) - (len(lines) > 1)
        np.testing.assert_allclose([float(g[4]) for g in got], [w[3] for w in want],
                                   rtol=tol, atol=tol)
        assert (out / "skipped_topics.txt").read_text() == skipped


def test_sweep_lambda_lists_all_oov_topics(tmp_path, capsys):
    corpus, _, qrels = write_inputs(tmp_path)
    topics = tmp_path / "oov.tsv"
    topics.write_text("topic_id\ttest\nt1\tcamera\nt2\tzzzz\n")
    vocab = tmp_path / "v" / "vocab.tsv"
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    assert run_main(["sweep-lambda", corpus, vocab, topics, qrels,
                     "--out", tmp_path / "s"]) == 0
    assert (tmp_path / "s" / "skipped_topics.txt").read_text() == "t2\n"
    assert "skipped 1 all-out-of-vocabulary topics" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["counts"]["skipped_topics"] == 1
    # every grid point's mean is t1's alone
    lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == 21 and all(line.endswith(",1.0") for line in lines)


@pytest.mark.parametrize("command, queries, message", [
    ("sweep-lambda", "", ": no validation topics for the sweep"),
    ("sweep-lambda", "t1\tzzzz\n", ": all sweep topics have empty encoded queries"),
    ("fuse", "t1\tcamera\n", ": need at least 2 topics for 2-fold cross-validation")])
def test_too_few_usable_topics_exits_1_naming_the_topics_file(tmp_path, capsys, command,
                                                              queries, message):
    corpus, _, qrels = write_inputs(tmp_path)
    topics = tmp_path / "few.tsv"
    topics.write_text("topic_id\ttest\n" + queries)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    fails(capsys, 1, tmp_path / "out",
          [command, corpus, vocab, topics, qrels, "--out", tmp_path / "out",
           *(["--folds", "2"] if command == "fuse" else [])], f"Error: {topics}{message}")


def test_config_file_with_flag_override(tmp_path):
    corpus, _, _ = write_inputs(tmp_path)
    config = tmp_path / "train.cfg"
    config.write_text("e_v = 8\ne_e = 4\nn = 2\nz = 2\nm = 8\n"
                      "epochs = 3\nlambda = 0.05  # decay\n")
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    assert run_main(["train", corpus, tmp_path / "v" / "vocab.tsv", "--out", tmp_path / "m",
                     "--config", config, "--epochs", "1"]) == 0
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 1  # flag wins
    assert manifest["config"]["lambda"] == 0.05
    assert manifest["config"]["e_v"] == 8
    lines = (tmp_path / "m" / "epochs.csv").read_text().splitlines()
    assert len(lines) == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--lambda", "-0.5", "weight decay must be non-negative"),
    ("--lambda", "nan", "weight decay must be non-negative and finite, got nan"),
    ("--lambda", "inf", "weight decay must be non-negative and finite, got inf"),
    # a count in a config file has no range type: TrainConfig names the file
    ("--config", "m = 0\n", "train.cfg: dimensions, window, negatives, batch size "
                             "and epochs must be positive")])
def test_bad_train_flag_value_exits_1_before_writing_anything(tmp_path, capsys, flag, value,
                                                              message):
    corpus, _, _ = write_inputs(tmp_path)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    if flag == "--config":
        (tmp_path / "train.cfg").write_text(value)
        value = str(tmp_path / "train.cfg")
    out = tmp_path / "m"
    fails(capsys, 1, out, ["train", corpus, vocab, "--out", out, flag, value], message)


def test_rerun_is_byte_identical_outside_timestamps(tmp_path):
    corpus, _, _ = write_inputs(tmp_path)
    for tag in ("a", "b"):
        assert run_main(["build-vocab", corpus, "--out", tmp_path / f"v{tag}"]) == 0
        assert run_main(["train", corpus, tmp_path / f"v{tag}" / "vocab.tsv",
                         "--out", tmp_path / f"m{tag}", *TRAIN_FLAGS]) == 0
    read = lambda p: p.read_bytes()
    assert read(tmp_path / "va" / "vocab.tsv") == read(tmp_path / "vb" / "vocab.tsv")
    assert read(tmp_path / "ma" / "model.lse") == read(tmp_path / "mb" / "model.lse")
    manifests = []
    for tag in ("a", "b"):
        data = json.loads((tmp_path / f"m{tag}" / "manifest.json").read_text())
        # the process's peak so far: a second run in one process can read a
        # page or more higher than the first
        peak = data.pop("peak_rss_mb")
        assert isinstance(peak, float) and peak > 0
        data.pop("started")
        data.pop("finished")
        data["inputs"]["vocab"].pop("path")  # differs by directory name
        manifests.append(data)
    assert manifests[0] == manifests[1]


def test_fuse_rejects_unknown_graph_name(tmp_path, capsys):
    corpus, topics, qrels = write_inputs(tmp_path)
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    fails(capsys, 2, tmp_path / "f", ["fuse", corpus, tmp_path / "v" / "vocab.tsv", topics,
                                      qrels, "--out", tmp_path / "f",
                                      "--graph", "bogus=whatever.tsv"], "unknown graph name")


@pytest.mark.parametrize("graph,message", [
    ("also_bought", "--graph expects NAME=PATH"),
    ("also_bought=missing.tsv", "missing.tsv: no such file"),
])
def test_bad_graph_exits_2_before_writing_anything(tmp_path, monkeypatch, capsys, graph,
                                                   message):
    corpus, topics, qrels = write_inputs(tmp_path)
    (tmp_path / "graph.tsv").write_text("cam\tgui\n")
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    out = tmp_path / "f"
    monkeypatch.setenv("LSE_DATA_DIR", str(tmp_path))
    fails(capsys, 2, out, ["fuse", corpus, vocab, topics, qrels, "--out", out, "--graph", graph],
          message)


def test_repeated_graph_name_exits_2_before_writing_anything(tmp_path, capsys):
    corpus, topics, qrels = write_inputs(tmp_path)
    for name in ("a.tsv", "b.tsv"):
        (tmp_path / name).write_text("cam\tgui\n")
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("camera\t0\t2\t2\n")
    out = tmp_path / "f"
    fails(capsys, 2, out, ["fuse", corpus, vocab, topics, qrels, "--out", out,
                           "--graph", f"also_bought={tmp_path / 'a.tsv'}",
                           "--graph", f"also_bought={tmp_path / 'b.tsv'}"],
          "graph name 'also_bought' given more than once")


@pytest.mark.parametrize("change", ["reversed", "missing_entity"])
def test_fuse_rejects_a_model_trained_on_other_entities(workflow, tmp_path, capsys, change):
    """The model's entity rows must be the corpus's entities in corpus order:
    the corpus read in reverse, or without one entity's documents, exits 1
    naming the model and the corpus."""
    root, _, topics, qrels = workflow
    lines = (list(reversed(CORPUS_LINES)) if change == "reversed"
             else [r for r in CORPUS_LINES if r["entity_id"] != "pia"])
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in lines))
    model = root / "model" / "model.lse"
    assert fails(capsys, 1, tmp_path / "out",
                 ["fuse", corpus, root / "vocab" / "vocab.tsv", topics, qrels, "--model", model,
                  "--folds", "2", "--pair-samples", "50", "--out", tmp_path / "out"]) == (
        f"Error: {model}: the model's entities are not those of {corpus} in the same order")


def test_train_counts_entities_without_an_ngram_once(tmp_path, capsys):
    """An entity whose documents are all shorter than n is left out of
    sampling: the manifest counts it and stderr says so once, not per
    epoch."""
    corpus, _, _ = write_inputs(tmp_path)
    with corpus.open("a") as fh:
        fh.write(json.dumps({"doc_id": "d9", "entity_id": "amp", "text": "lens"}) + "\n")
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    capsys.readouterr()
    assert run_main(["train", corpus, tmp_path / "v" / "vocab.tsv", "--out", tmp_path / "m",
                     *TRAIN_FLAGS]) == 0
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert manifest["counts"]["skipped_entities"] == 1
    assert manifest["config"]["epochs"] == 2
    output = capsys.readouterr()
    skipped = [line for line in (output.out + output.err).splitlines() if "skipped" in line]
    assert skipped == ["skipped 1 of 5 entities with no document of n = 2 tokens "
                       "or more"]


def test_window_longer_than_every_document_exits_1_naming_corpus_and_n(tmp_path, capsys):
    corpus, _, _ = write_inputs(tmp_path)
    assert run_main(["build-vocab", corpus, "--out", tmp_path / "v"]) == 0
    fails(capsys, 1, tmp_path / "m", ["train", corpus, tmp_path / "v" / "vocab.tsv",
                                      "--out", tmp_path / "m", *TRAIN_FLAGS, "--n", "9"],
          f"Error: {corpus}: window n = 9 is longer than every document")


# command -> the exact manifest input names its COMMANDS argv records
MANIFEST_COMMANDS = {
    "build-vocab": {"corpus"},
    "train": {"corpus", "vocab", "config", "validation_topics", "validation_qrels"},
    "rank": {"model", "vocab", "topics"},
    "qlm": {"corpus", "vocab", "topics"},
    "eval": {"run", "qrels", "baseline_run"},
    "sweep-lambda": {"corpus", "vocab", "topics", "qrels"},
    "fuse": {"corpus", "vocab", "topics", "qrels", "model", "qi_attrs", "graph_also_bought"},
    "ideal-vector": {"model", "vocab", "topics", "qrels"},
}


@pytest.mark.parametrize("command", sorted(MANIFEST_COMMANDS))
def test_manifest_records_command_and_every_input(inputs, tmp_path, command):
    assert run_main([arg.format(**inputs) for arg in COMMANDS[command]]
                    + ["--out", tmp_path / "out"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == command
    assert set(manifest["inputs"]) == MANIFEST_COMMANDS[command]
    for entry in manifest["inputs"].values():
        assert entry["sha256"] == sha256_of(entry["path"])


@pytest.mark.parametrize("command,name", CASES)
def test_mutated_input_exits_0_or_1_naming_it(inputs, tmp_path, capsys, command, name):
    """tests/test_bad_input.py's seeded harness with the field operators: any
    byte inserted, one field of a line dropped, a JSON value swapped for one
    of another type. Every run exits 0, or exits 1 naming the mutated file."""
    check_mutations(inputs, tmp_path, capsys, command, name,
                    mutations(name, inputs[name].read_bytes(), field_operators(name)))


def test_version_flag(capsys):
    assert run_main(["--version"]) == 0
    assert "lse" in capsys.readouterr().out
