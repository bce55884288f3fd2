"""Run one workload's command sequence in a fresh process and write its
measurements and output checks as JSON.

    python3 bench_worker.py WORKLOAD INPUT_DIR SECONDS TRACE RESULT_JSON

The commands are `lse.cli.main(argv, standalone_mode=False)`, one at a
time (a closed loop with one client), on the inputs that `run.py` set up in
INPUT_DIR. The sequence repeats the whole number of times that nominally
comes closest to SECONDS (at least once). With TRACE=1, one warm-up
repetition is followed by a third of the time untraced and a third traced,
and the result holds the per-layer metrics instead of the end-to-end ones.
Command failures and failed output checks are counted, not raised.
"""

import csv
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import bench_inputs
import bench_oracles
import bench_spans

VALIDATION = ["--validation-topics", "topics.tsv",
              "--validation-qrels", "topics_qrels.txt"]
JUDGED = ["topics.tsv", "topics_qrels.txt"]


def sequence(workload, out):
    """[(command, argv)] for one repetition writing under out."""
    if workload == "train":
        return [("build-vocab", ["build-vocab", "corpus.jsonl", "--out", f"{out}/vocab"]),
                ("train", ["train", "corpus.jsonl", f"{out}/vocab/vocab.tsv",
                           "--out", f"{out}/model", "--epochs", "1"] + VALIDATION)]
    if workload == "retrieve":
        return [("rank", ["rank", "model.lse", "vocab.tsv", "topics.tsv",
                          "--out", f"{out}/rank"]),
                ("qlm", ["qlm", "corpus.jsonl", "vocab.tsv", "topics.tsv",
                         "--out", f"{out}/qlm"]),
                ("eval", ["eval", f"{out}/rank/run.trec", "topics_qrels.txt",
                          "--out", f"{out}/eval",
                          "--baseline-run", f"{out}/qlm/run.trec"])]
    return [("sweep-lambda", ["sweep-lambda", "corpus.jsonl", "vocab.tsv"] + JUDGED
             + ["--out", f"{out}/sweep"]),
            ("fuse", ["fuse", "corpus.jsonl", "vocab.tsv"] + JUDGED
             + ["--out", f"{out}/fuse", "--model", "model.lse",
                "--qi-attrs", "attributes.jsonl",
                "--graph", "also_bought=also_bought.tsv"]),
            ("ideal-vector", ["ideal-vector", "model.lse", "vocab.tsv"] + JUDGED
             + ["--out", f"{out}/ideal"])]


# Seconds one untraced repetition takes on a 2-vCPU x86-64 machine with
# OpenBLAS on one thread. The repetition count comes from these rather than
# from the clock, so every run of a workload takes the same number of
# samples. The first repetition in a process is the slowest (cold
# allocator); with three or more the median skips it.
NOMINAL_REPETITION_S = {"train": 9.5, "retrieve": 9.5, "tune": 28.0}

# Outputs whose bytes must repeat across repetitions (manifests and the
# epoch log carry timestamps or wall times and are checked by value).
DIGESTED = {
    "train": ["vocab/vocab.tsv", "model/model.lse", "model/model.lse.meta.json"],
    "retrieve": ["rank/run.trec", "rank/skipped_topics.txt", "qlm/run.trec",
                 "eval/per_topic.csv", "eval/aggregate.json"],
    "tune": ["sweep/sweep.csv", "sweep/best_lambda.json", "fuse/fusion.csv",
             "fuse/fusion.json", "ideal/ideal.csv", "ideal/ideal.json"],
}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _unit(value):
    return isinstance(value, float) and 0.0 <= value <= 1.0


def check_values(workload, out, checks):
    """Per-repetition value checks; returns the train workload's final loss."""
    if workload == "train":
        with open(f"{out}/model/epochs.csv", encoding="utf-8") as fh:
            row = list(csv.DictReader(fh))[-1]
        loss = float(row["mean_batch_loss"])
        checks.expect(math.isfinite(loss), f"{out}: non-finite loss {loss!r}")
        checks.expect(_unit(float(row["validation_ndcg"])),
                      f"{out}: validation NDCG {row['validation_ndcg']} outside [0, 1]")
        return loss
    if workload == "retrieve":
        with open(f"{out}/eval/per_topic.csv", encoding="utf-8") as fh:
            values = [float(r["ndcg@100"]) for r in csv.DictReader(fh)]
        with open(f"{out}/eval/aggregate.json", encoding="utf-8") as fh:
            values.append(json.load(fh)["means"]["ndcg@100"])
    else:
        with open(f"{out}/sweep/sweep.csv", encoding="utf-8") as fh:
            values = [float(r["mean_ndcg"]) for r in csv.DictReader(fh)]
        with open(f"{out}/fuse/fusion.json", encoding="utf-8") as fh:
            values += [r["means"]["ndcg@100"] for r in json.load(fh)["rows"]]
        with open(f"{out}/ideal/ideal.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        checks.expect(all(r["status"] == "ok" for r in rows),
                      f"{out}: ideal-vector skipped a topic")
        values += [float(r[k]) for r in rows for k in ("ndcg_ideal", "ndcg_query")
                   if r[k]]
    checks.expect(len(values) > 1 and all(_unit(v) for v in values),
                  f"{out}: NDCG outside [0, 1] or missing")
    return None


def check_oracles(out, checks, every=10):
    """Top-10 of rank and qlm against the NumPy recomputation, for every
    `every`-th topic."""
    vocab = bench_oracles.read_vocab("vocab.tsv")
    header, arrays = bench_oracles.read_container("model.lse")
    entity_ids, ents, toks = bench_oracles.read_corpus("corpus.jsonl", vocab)
    topics = bench_oracles.read_topics("topics.tsv")
    rank_run = bench_oracles.read_run(f"{out}/rank/run.trec")
    qlm_run = bench_oracles.read_run(f"{out}/qlm/run.trec")
    for tid in sorted(topics)[::every]:
        query = [vocab[w] for w in topics[tid].split() if w in vocab]
        msg = bench_oracles.check_top_k(rank_run.get(tid, []),
                                        bench_oracles.cosine_scores(arrays, query),
                                        header["entity_ids"])
        checks.expect(msg is None, f"rank {tid}: {msg}")
        msg = bench_oracles.check_top_k(qlm_run.get(tid, []),
                                        bench_oracles.jm_scores(ents, toks, len(entity_ids),
                                                                query, 0.5),
                                        entity_ids)
        checks.expect(msg is None, f"qlm {tid}: {msg}")


class Runner:
    def __init__(self, workload, checks):
        from lse.cli import main

        self.main = main
        self.workload = workload
        self.checks = checks
        self.count = 0
        self.digests = None
        self.losses = []
        self.last_out = None
        self.first_peak_rss_mb = None

    def repetition(self, call):
        """Run the sequence once; returns its wall and CPU seconds and
        {command: wall seconds}."""
        out = f"out/it{self.count}"
        self.count += 1
        times = {}
        cpu = time.process_time()
        start = time.perf_counter()
        for name, argv in sequence(self.workload, out):
            t0 = time.perf_counter()
            try:
                call(name, argv)
                ok = True
            except Exception as exc:  # counted as a failed command
                print(f"{name} failed: {exc!r}", file=sys.stderr)
                ok = False
            times[name] = time.perf_counter() - t0
            self.checks.expect(ok, f"{out}: {name} failed")
        rep = {"wall": time.perf_counter() - start,
               "cpu": time.process_time() - cpu, "times": times}
        if self.first_peak_rss_mb is None:
            # Later repetitions start from the heap earlier ones left, which
            # a user running the commands in a fresh process never sees.
            self.first_peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        self._check(out)
        return rep

    def _check(self, out):
        try:
            digests = {p: _digest(f"{out}/{p}") for p in DIGESTED[self.workload]}
            loss = check_values(self.workload, out, self.checks)
        except (OSError, KeyError, ValueError) as exc:
            self.checks.expect(False, f"{out}: outputs unreadable ({exc!r})")
            return
        if loss is not None:
            self.losses.append(loss)
        if self.digests is None:
            self.digests = digests
        else:
            changed = [p for p in digests if digests[p] != self.digests[p]]
            self.checks.expect(not changed, f"{out}: outputs differ from the "
                                            f"first repetition: {changed}")
        if self.last_out is not None:
            shutil.rmtree(self.last_out)
        self.last_out = out

    def measure(self, budget, call):
        """The whole number of nominal repetitions nearest to budget
        seconds, at least one."""
        reps = max(1, round(budget / NOMINAL_REPETITION_S[self.workload]))
        return [self.repetition(call) for _ in range(reps)]


def report(workload, results, losses):
    """The workload-specific end-to-end figures (medians over repetitions)."""
    sizes = bench_inputs.sizes(workload)

    def med(name):
        return statistics.median(r["times"][name] for r in results)

    if workload == "train":
        return {"train_instances_per_s": sizes["instances"] / med("train"),
                "train_final_loss": losses[-1] if losses else None}
    if workload == "retrieve":
        return {"rank_topics_per_s": sizes["topics"] / med("rank"),
                "qlm_topics_per_s": sizes["topics"] / med("qlm"),
                "eval_s": med("eval")}
    return {"sweep_s": med("sweep-lambda"), "fuse_s": med("fuse"),
            "ideal_vector_s": med("ideal-vector")}


def main():
    workload, input_dir, seconds, trace, result_path = sys.argv[1:6]
    seconds = float(seconds)
    os.chdir(input_dir)
    checks = Checks()
    runner = Runner(workload, checks)

    def untraced_call(name, argv):
        runner.main(argv, standalone_mode=False)

    if trace == "1":
        # Warm the process first so traced and untraced repetitions are
        # compared warm to warm; each gets a third of the time.
        seconds /= 3
        runner.repetition(untraced_call)
    untraced = runner.measure(seconds, untraced_call)
    walls = [r["wall"] for r in untraced]
    cpus = [r["cpu"] for r in untraced]
    result = {"walls": walls, "cpus": cpus}
    if trace == "1":
        tracer = bench_spans.Tracer()
        tracer.install()

        def traced_call(name, argv):
            tracer.run_id = f"it{runner.count - 1}.{name}"
            tracer.span(f"cli.{name}", runner.main, (argv,),
                        {"standalone_mode": False})

        traced = runner.measure(seconds, traced_call)
        tracer.uninstall()
        tracer.write("spans.jsonl")
        traced_walls = [r["wall"] for r in traced]
        metrics = bench_spans.layer_metrics(tracer.spans, tracer.counters,
                                            traced_walls)
        metrics["trace.overhead_s"] = (statistics.mean(traced_walls)
                                       - statistics.mean(walls))
        result["traced_walls"] = traced_walls
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "peak_rss_mb": runner.first_peak_rss_mb}
        result["report"] = report(workload, untraced, runner.losses)
    if workload == "train":
        checks.expect(len(set(runner.losses)) == 1,
                      f"final loss differs between repetitions: {runner.losses}")
    if workload == "retrieve" and runner.last_out is not None:
        try:
            check_oracles(runner.last_out, checks)
        except (OSError, KeyError, ValueError) as exc:
            checks.expect(False, f"oracle check could not read outputs ({exc!r})")
    result.update({"metrics": metrics, "attempted": checks.attempted,
                   "failures": checks.failures})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
