"""Command-line surface: vocabulary building, training, ranking, the
lexical baseline, evaluation, the smoothing sweep, feature fusion, the
ideal-vector analysis, and a gradient self-check."""

import contextlib
import dataclasses
import datetime
import hashlib
import math
import os
import platform
import resource
import shutil
import sys
import time
from collections import Counter

import click
import numpy as np

from . import __version__
from .errors import DataError, LSEError, SizeError
from .evaluation import Qrels, TopicSet, compare_runs, evaluate_run
from .files import atomic_open, write_csv, write_json
from .ltr import (build_features, cross_validated_fusion, ideal_vector_report,
                  load_graph, load_qi_attributes, pegasos_batch, GRAPH_NAMES,
                  PAIR_SAMPLES)
from .model import (Dims, TrainConfig, init_params, load_model,
                    max_relative_fd_error, save_model)
from .qlm import estimate as qlm_estimate
from .qlm import rank as qlm_rank
from .qlm import sweep_lambda
from .retrieval import rank_queries, read_run, write_run
from .sampling import InstanceBlock, ngrams_per_entity_per_epoch
from .text import Vocabulary, build_vocabulary, encode_corpus, encode_topics, load_raw_docs
from .training import train, write_epoch_log


_INPUTS = "lse.inputs"  # ctx.meta key: manifest name -> resolved path
_DIGESTS = "lse.digests"  # ctx.meta key: path -> SHA-256 of the bytes a load read


def _record_input(ctx, name, value):
    """Join a relative input against LSE_DATA_DIR and record it under name
    for the manifest; a missing file exits 2."""
    path = value
    if not os.path.isabs(path) and not os.path.exists(path):
        root = os.environ.get("LSE_DATA_DIR")
        if root:
            candidate = os.path.join(root, path)
            if os.path.exists(candidate):
                path = candidate
    if not os.path.exists(path):
        raise click.BadParameter(f"{value}: no such file")
    ctx.meta.setdefault(_INPUTS, {})[name] = path
    return path


def _resolve_input(ctx, param, value):
    """Callback of an input file parameter; the manifest names the input
    after the parameter, less a _path suffix."""
    if value is not None:
        return _record_input(ctx, param.name.removesuffix("_path"), value)


def _resolve_graphs(ctx, param, values):
    """--graph NAME=PATH values as {name: path}, each recorded as graph_<name>."""
    graphs = {}
    for value in values:
        name, sep, path = value.partition("=")
        if not sep:
            raise click.BadParameter("--graph expects NAME=PATH")
        if name not in GRAPH_NAMES:
            raise click.BadParameter(f"unknown graph name {name!r}")
        if name in graphs:
            raise click.BadParameter(f"graph name {name!r} given more than once")
        graphs[name] = _record_input(ctx, f"graph_{name}", path)
    return graphs


def _input_argument(name):
    return click.argument(name, type=click.Path(dir_okay=False), callback=_resolve_input)


def _input_option(*decls, help=None):
    return click.option(*decls, default=None, type=click.Path(dir_okay=False),
                        callback=_resolve_input, help=help)


def _out_option():
    return click.option("--out", "out_dir", required=True,
                        type=click.Path(file_okay=False), help="Output directory.")


def _sha256_file(path):
    """The SHA-256 hex digest of the regular file at path, read through one
    reused buffer; None for anything else (a pipe, say), which stays unread."""
    if not os.path.isfile(path):
        return None
    digest, buf = hashlib.sha256(), bytearray(1 << 18)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            digest.update(memoryview(buf)[:size])
    return digest.hexdigest()


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _peak_rss_mb(status="/proc/self/status"):
    """The process's peak resident set size so far, in MiB: VmHWM from
    status where that file exists, else ru_maxrss (KiB on Linux, bytes on
    macOS). VmHWM starts afresh at exec, where Linux carries the exec-ing
    process's high-water mark into ru_maxrss."""
    try:
        with open(status, "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024  # "VmHWM:  1234 kB"
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


# the environment variables that set BLAS and OpenMP thread counts
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment():
    """The Python and NumPy versions, the BLAS NumPy was built against (from
    numpy.__config__.CONFIG, which costs microseconds where
    np.show_config costs a tenth of a second) and the thread variables,
    None when unset."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {name: os.environ.get(name) for name in _THREAD_VARS}}


@contextlib.contextmanager
def _run(out_dir, config, seed=None):
    """Make out_dir, run the command body, then write out_dir/manifest.json:
    the command, its config and seed, the path and SHA-256 of every input the
    command line named (a model's from the bytes load_model read), the
    counts the body put in the dict it is given, and the process's peak RSS
    in MiB at the end of the body (peak_rss_mb) and the _environment it ran in.
    If the body fails, every directory made for out_dir goes, files and all."""
    ctx = click.get_current_context()
    made, parent = None, os.path.abspath(out_dir)  # the topmost directory made
    while not os.path.exists(parent):
        made, parent = parent, os.path.dirname(parent)
    started = _now()
    counts = {}
    try:
        os.makedirs(out_dir, exist_ok=True)
        yield counts
    except BaseException:
        if made:
            shutil.rmtree(made, ignore_errors=True)
        raise
    inputs, digests = ctx.meta.get(_INPUTS, {}), ctx.meta.get(_DIGESTS, {})
    write_json(os.path.join(out_dir, "manifest.json"), {
        "command": ctx.command.name, "config": config, "counts": counts,
        "peak_rss_mb": _peak_rss_mb(), "environment": _environment(),
        "inputs": {name: {"path": str(path), "sha256": digests.get(path) or _sha256_file(path)}
                   for name, path in inputs.items()},
        "seed": seed, "version": __version__, "started": started, "finished": _now()})


def _status(msg):
    click.echo(msg, err=True)


def _finite(ctx, param, value):
    """Option callback: NaN or infinity exits 2 naming the option."""
    if not math.isfinite(value):
        raise click.BadParameter(f"must be finite, got {value}")
    return value


def _flag(name):
    """The option of a command's parameter name."""
    return f"--{name.replace('_', '-')}"


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SizeError as exc:  # its fields name options of the command
            options = " and ".join(map(_flag, exc.fields))
            raise click.ClickException(f"{options}: {exc.what}") from exc
        except (LSEError, OSError, MemoryError) as exc:
            raise click.ClickException(str(exc) or type(exc).__name__) from exc


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="lse")
def main():
    """Train and evaluate a latent entity-retrieval model against a lexical
    baseline, with a learning-to-rank harness on top."""


@main.command("build-vocab")
@_input_argument("corpus")
@_out_option()
@click.option("--max-size", default=Vocabulary.MAX_SIZE, show_default=True,
              type=click.IntRange(1, Vocabulary.MAX_SIZE), help="Vocabulary cap.")
def cmd_build_vocab(corpus, out_dir, max_size):
    """Build the pruned vocabulary from a JSON-lines corpus."""
    with _run(out_dir, {"max_size": max_size}):
        raw = load_raw_docs(corpus)
        _status(f"building vocabulary from {len(raw)} documents")
        vocab = build_vocabulary(raw, max_size, source=corpus)
        vocab.save(os.path.join(out_dir, "vocab.tsv"))
        _status(f"retained {vocab.size} tokens")


def _load_train_config(config_path, overrides):
    """The config file's TrainConfig (or the defaults) with every flag given
    on the command line in place of its value."""
    config = TrainConfig.from_file(config_path) if config_path else TrainConfig()
    return dataclasses.replace(config, **{k: v for k, v in overrides.items()
                                          if v is not None})


@main.command("train")
@_input_argument("corpus")
@_input_argument("vocab")
@_out_option()
@_input_option("--config", "config_path", help="key = value training config file.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Root seed (overrides config).")
@click.option("--epochs", type=click.IntRange(min=1), default=None)
@click.option("--e-v", "e_v", type=click.IntRange(min=1), default=None)
@click.option("--e-e", "e_e", type=click.IntRange(min=1), default=None)
@click.option("--n", type=click.IntRange(min=1), default=None)
@click.option("--z", type=click.IntRange(min=1), default=None)
@click.option("--m", type=click.IntRange(min=1), default=None)
@click.option("--lambda", "weight_decay", type=float, default=None)
@click.option("--precision", type=click.Choice(["float32", "float64"]), default=None)
@_input_option("--validation-topics")
@_input_option("--validation-qrels")
def cmd_train(corpus, vocab, out_dir, config_path, validation_topics,
              validation_qrels, **overrides):
    """Train the model and write the container, epoch log and manifest."""
    if (validation_topics is None) != (validation_qrels is None):
        raise click.UsageError("--validation-topics and --validation-qrels must be "
                               "given together")
    config = _load_train_config(config_path, overrides)
    with _run(out_dir, config.as_dict(), config.seed) as counts:
        vocabulary = Vocabulary.load(vocab)
        corpus_data = _corpus(corpus, vocabulary, counts)
        if ngrams_per_entity_per_epoch(corpus_data, config.n) == 0:
            raise DataError(f"{corpus}: window n = {config.n} is longer than "
                            "every document")
        queries = _queries(validation_topics, vocabulary) if validation_topics else None
        qrels = Qrels.load(validation_qrels) if validation_qrels else None

        def progress(entry):
            vn = "-" if entry.validation_ndcg is None else f"{entry.validation_ndcg:.4f}"
            _status(f"epoch {entry.epoch}: loss {entry.mean_batch_loss:.6f} "
                    f"validation_ndcg {vn} ({entry.wall_seconds:.1f}s)")

        try:
            result = train(corpus_data, vocabulary, config, queries, qrels, progress)
        except SizeError as exc:  # each size set off its default, by its flag
            # or else its config key; m is at most an epoch
            named = [_flag(name) if overrides[name] is not None else f"{config_path}: {name}"
                     for name in exc.fields if name in overrides and name != "m"
                     and getattr(config, name) != getattr(TrainConfig(), name)]
            raise DataError(f"{' and '.join(named)}: {exc.what}") from exc
        counts["skipped_entities"] = len(result.skipped_entities)
        if result.skipped_entities:
            _status(f"skipped {len(result.skipped_entities)} of {corpus_data.num_entities} "
                    f"entities with no document of n = {config.n} tokens or more")
        _status(f"kept epoch {result.best_epoch}")
        save_model(os.path.join(out_dir, "model.lse"), result.params,
                   vocab_sha256=vocabulary.sha256(), entity_ids=corpus_data.entities,
                   config=config.as_dict())
        write_epoch_log(os.path.join(out_dir, "epochs.csv"), result.log)


def _load_model_checked(model_path, vocabulary, vocab_path):
    params, header = load_model(model_path, digest := hashlib.sha256())
    click.get_current_context().meta.setdefault(_DIGESTS, {})[model_path] = digest.hexdigest()
    if header.get("vocab_sha256") and header["vocab_sha256"] != vocabulary.sha256():
        raise DataError(f"{model_path}: vocabulary {vocab_path} does not match the one "
                        "the model was trained with")
    if params.dims.vocab_size != vocabulary.size:
        raise DataError(f"{model_path}: model has {params.dims.vocab_size} word "
                        f"embeddings but vocabulary {vocab_path} has {vocabulary.size} "
                        "words")
    return params, header


def _corpus(path, vocabulary, counts):
    """encode_corpus of the corpus file at path; its document, token and
    dropped-token counts go into counts for the manifest."""
    corpus = encode_corpus(load_raw_docs(path), vocabulary)
    counts.update(documents=len(corpus.doc_ptr) - 1, tokens=corpus.total_tokens,
                  dropped_tokens=corpus.dropped_tokens)
    return corpus


def _queries(path, vocabulary):
    """encode_topics of the topics file at path."""
    return encode_topics(TopicSet.load(path), vocabulary)


def _write_skipped(out_dir, queries, counts):
    """Write skipped_topics.txt with the topics whose query is empty (all out
    of vocabulary), and put their count into counts and on stderr."""
    skipped = [tid for tid, ids in queries.items() if not ids]
    with atomic_open(os.path.join(out_dir, "skipped_topics.txt")) as fh:
        fh.writelines(f"{tid}\n" for tid in skipped)
    counts["skipped_topics"] = len(skipped)
    if skipped:
        _status(f"skipped {len(skipped)} all-out-of-vocabulary topics")


def _rank_topics(out_dir, counts, queries, top_k, tag, rank):
    """Write run.trec, its lines tagged tag, with the ranked lists
    rank(pairs) gives for the (topic id, token ids) pairs of the non-empty
    queries, and skipped_topics.txt."""
    write_run(os.path.join(out_dir, "run.trec"),
              rank([(tid, ids) for tid, ids in queries.items() if ids]),
              tag=tag, top_k=top_k)
    _write_skipped(out_dir, queries, counts)


@main.command("rank")
@_input_argument("model")
@_input_argument("vocab")
@_input_argument("topics")
@_out_option()
@click.option("--top-k", default=100, show_default=True, type=click.IntRange(min=1))
def cmd_rank(model, vocab, topics, out_dir, top_k):
    """Rank all entities for every topic with the trained model."""
    with _run(out_dir, {"top_k": top_k}) as counts:
        vocabulary = Vocabulary.load(vocab)
        params, header = _load_model_checked(model, vocabulary, vocab)
        _rank_topics(out_dir, counts, _queries(topics, vocabulary), top_k, "lse",
                     lambda pairs: rank_queries(params, pairs, header["entity_ids"], top_k))


@main.command("qlm")
@_input_argument("corpus")
@_input_argument("vocab")
@_input_argument("topics")
@_out_option()
@click.option("--lambda-jm", default=0.5, show_default=True,
              type=click.FloatRange(0, 1), callback=_finite,
              help="Jelinek-Mercer interpolation weight.")
@click.option("--top-k", default=100, show_default=True, type=click.IntRange(min=1))
def cmd_qlm(corpus, vocab, topics, out_dir, lambda_jm, top_k):
    """Rank all entities for every topic with the smoothed lexical model."""
    with _run(out_dir, {"lambda_jm": lambda_jm, "top_k": top_k}) as counts:
        vocabulary = Vocabulary.load(vocab)
        corpus_data = _corpus(corpus, vocabulary, counts)
        model = qlm_estimate(corpus_data, lambda_jm)
        _rank_topics(out_dir, counts, _queries(topics, vocabulary), top_k, "qlm",
                     lambda pairs: [qlm_rank(model, corpus_data.entities, ids, tid, top_k)
                                    for tid, ids in pairs])


@main.command("eval")
@_input_argument("run")
@_input_argument("qrels")
@_out_option()
@click.option("--cutoff", default=100, show_default=True, type=click.IntRange(min=1))
@_input_option("--baseline-run", help="Second run for the paired significance test.")
def cmd_eval(run, qrels, out_dir, cutoff, baseline_run):
    """Score a run against qrels; optionally test against a baseline run."""
    with _run(out_dir, {"cutoff": cutoff}) as counts:
        qrels_data = Qrels.load(qrels)
        report = evaluate_run(read_run(run), qrels_data, cutoff=cutoff)
        write_csv(os.path.join(out_dir, "per_topic.csv"), ["topic_id", *report.means],
                  ([tid, *(row[m] for m in report.means)]
                   for tid, row in sorted(report.per_topic.items())))
        aggregate = {"means": report.means, "excluded_topics": report.excluded,
                     "missing_topics": report.missing,
                     "num_topics": len(report.per_topic), "cutoff": cutoff}
        counts["missing_topics"] = len(report.missing)
        if report.missing:
            _status(f"{len(report.missing)} judged topics have no line in the run")
        if baseline_run:
            base = evaluate_run(read_run(baseline_run), qrels_data, cutoff=cutoff)
            aggregate["significance_vs_baseline"] = compare_runs(report, base)
        write_json(os.path.join(out_dir, "aggregate.json"), aggregate)


@main.command("sweep-lambda")
@_input_argument("corpus")
@_input_argument("vocab")
@_input_argument("topics")
@_input_argument("qrels")
@_out_option()
@click.option("--cutoff", default=100, show_default=True, type=click.IntRange(min=1))
def cmd_sweep_lambda(corpus, vocab, topics, qrels, out_dir, cutoff):
    """Sweep the smoothing weight over 0.0..1.0 in steps of 0.05."""
    with _run(out_dir, {"cutoff": cutoff}) as counts:
        vocabulary = Vocabulary.load(vocab)
        corpus_data = _corpus(corpus, vocabulary, counts)
        queries = _queries(topics, vocabulary)
        best, grid = sweep_lambda(corpus_data, queries, Qrels.load(qrels), cutoff=cutoff,
                                  source=qrels, topics_source=topics)
        write_csv(os.path.join(out_dir, "sweep.csv"), ["lambda_jm", "mean_ndcg"], grid)
        write_json(os.path.join(out_dir, "best_lambda.json"), {"best_lambda_jm": best})
        _write_skipped(out_dir, queries, counts)
        _status(f"best lambda_jm = {best!r}")


@main.command("fuse")
@_input_argument("corpus")
@_input_argument("vocab")
@_input_argument("topics")
@_input_argument("qrels")
@_out_option()
@_input_option("--model", "model_path", help="Trained model container.")
@_input_option("--qi-attrs", help="JSON-lines entity attributes.")
@click.option("--graph", "graphs", multiple=True, callback=_resolve_graphs,
              help="NAME=PATH edge list; NAME one of " + ", ".join(GRAPH_NAMES) + ".")
@click.option("--lambda-jm", default=0.5, show_default=True,
              type=click.FloatRange(0, 1), callback=_finite)
@click.option("--folds", default=10, show_default=True, type=click.IntRange(min=2))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--cutoff", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--pair-samples", default=PAIR_SAMPLES, show_default=True,
              type=click.IntRange(min=1))
def cmd_fuse(corpus, vocab, topics, qrels, out_dir, model_path, qi_attrs, graphs,
             lambda_jm, folds, seed, cutoff, pair_samples):
    """Cross-validated fusion of query-independent, lexical and latent
    features."""
    config = {"lambda_jm": lambda_jm, "folds": folds, "cutoff": cutoff,
              "pair_samples": pair_samples, "batch": pegasos_batch(pair_samples)}
    with _run(out_dir, config, seed) as counts:
        attributes = load_qi_attributes(qi_attrs) if qi_attrs else {}
        edges = {name: load_graph(path) for name, path in graphs.items()}
        vocabulary = Vocabulary.load(vocab)
        corpus_data = _corpus(corpus, vocabulary, counts)
        params = None
        if model_path:
            params, header = _load_model_checked(model_path, vocabulary, vocab)
            if header["entity_ids"] != corpus_data.entities:
                raise DataError(f"{model_path}: the model's entities are not those of "
                                f"{corpus} in the same order")
        qlm_model = qlm_estimate(corpus_data, lambda_jm)
        queries = _queries(topics, vocabulary)
        qrels_data = Qrels.load(qrels)
        _status(f"assembling features for {len(queries)} topics")
        table = build_features(queries, corpus_data, qlm_model, params, attributes, edges)
        report = cross_validated_fusion(table, qrels_data, folds=folds, seed=seed, cutoff=cutoff,
                                        pair_samples=pair_samples, source=topics,
                                        qrels_source=qrels)
        metrics = list(report.rows[0]["means"])
        cells = []
        for row in report.rows:
            # only the full combination is tested against qi+qlm
            full = row["features"] == "qi+qlm+lse"
            cells.append([row["features"]])
            for metric in metrics:
                marker = report.significance[metric].get("marker", "") if full else ""
                cells[-1] += [row["means"][metric], marker]
        write_csv(os.path.join(out_dir, "fusion.csv"),
                  ["features", *(col for m in metrics for col in (m, f"{m}_sig"))], cells)
        payload = {"rows": [{"features": r["features"], "means": r["means"]}
                            for r in report.rows],
                   "significance_full_vs_qi_qlm": report.significance,
                   "folds": folds, "seed": seed}
        write_json(os.path.join(out_dir, "fusion.json"), payload)


@main.command("ideal-vector")
@_input_argument("model")
@_input_argument("vocab")
@_input_argument("topics")
@_input_argument("qrels")
@_out_option()
@click.option("--cutoff", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--pair-samples", default=PAIR_SAMPLES, show_default=True,
              type=click.IntRange(min=1))
def cmd_ideal_vector(model, vocab, topics, qrels, out_dir, cutoff, seed,
                     pair_samples):
    """Compare per-topic ideal retrieval vectors against projected queries.

    Topics without a query, a second relevant entity or a non-relevant one
    are skipped and labeled with the reason in the report."""
    config = {"cutoff": cutoff, "pair_samples": pair_samples,
              "batch": pegasos_batch(pair_samples)}
    with _run(out_dir, config, seed) as counts:
        vocabulary = Vocabulary.load(vocab)
        params, header = _load_model_checked(model, vocabulary, vocab)
        rows = ideal_vector_report(params, _queries(topics, vocabulary),
                                   Qrels.load(qrels), header["entity_ids"],
                                   cutoff=cutoff, pair_samples=pair_samples,
                                   seed=seed)
        columns = ["topic_id", "status", "n_relevant", "ndcg_ideal", "ndcg_query"]
        write_csv(os.path.join(out_dir, "ideal.csv"), columns,
                  ([row[c] for c in columns] for row in rows))
        scored = [row for row in rows if row["status"] == "ok"]
        skipped = [row for row in rows if row["status"] != "ok"]
        write_json(os.path.join(out_dir, "ideal.json"), {
            "num_scored": len(scored), "skipped": [row["topic_id"] for row in skipped],
            **{f"mean_{c}": sum(r[c] for r in scored) / len(scored) if scored else None
               for c in ("ndcg_ideal", "ndcg_query")}})
        counts["skipped_topics"] = len(skipped)
        if skipped:
            tally = Counter(row["status"] for row in skipped)
            _status(f"skipped {len(skipped)} topics: "
                    + ", ".join(f"{n} {status}" for status, n in sorted(tally.items())))


def _finite_or_none(value):
    """value, or None (JSON null) when it is NaN or infinite."""
    return value if math.isfinite(value) else None


@main.command("grad-check")
@click.option("--seeds", default=10, show_default=True, type=click.IntRange(min=1),
              help="Random restarts.")
@click.option("--eps", default=1e-5, show_default=True,
              type=click.FloatRange(min=0, min_open=True), callback=_finite)
@click.option("--tolerance", default=1e-4, show_default=True, callback=_finite)
@click.option("--out", "out_dir", default=None, type=click.Path(file_okay=False),
              help="Optional directory for a JSON report and manifest.")
def cmd_grad_check(seeds, eps, tolerance, out_dir):
    """Check analytic gradients against central finite differences on small
    random models; exits 1 unless the worst relative error is below the
    tolerance (a non-finite gradient or difference counts as infinite), after
    writing the report."""
    config = {"seeds": seeds, "eps": eps, "tolerance": tolerance}
    with _run(out_dir, config) if out_dir else contextlib.nullcontext():
        t0 = time.perf_counter()
        worst = 0.0
        results = []
        for seed in range(seeds):
            for weight_decay in (0.0, 0.01):
                rng = np.random.default_rng(seed)
                dims = Dims(e_v=4, e_e=3, vocab_size=6, num_entities=5)
                params = init_params(dims, rng)
                block = InstanceBlock(rng.integers(0, 6, size=(3, 2)),
                                      rng.integers(0, 5, size=3),
                                      rng.integers(0, 5, size=(3, 2)))
                err = max_relative_fd_error(params, block, weight_decay, eps)
                worst = max(worst, err)
                results.append({"seed": seed, "lambda": weight_decay,
                                "max_rel_err": _finite_or_none(err)})
        elapsed = time.perf_counter() - t0
        _status(f"max relative error {worst:.3e} over {seeds} seeds ({elapsed:.2f}s)")
        if out_dir:
            write_json(os.path.join(out_dir, "grad_check.json"),
                       {"results": results, "max_rel_err": _finite_or_none(worst),
                        "non_finite": not math.isfinite(worst),
                        "tolerance": tolerance, "eps": eps})
    if not worst < tolerance:
        raise click.ClickException(f"gradient check failed: {worst:.3e} >= {tolerance}")


if __name__ == "__main__":
    main()
