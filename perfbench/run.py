"""lse benchmark: one seeded workload per run, measured from outside.

    python3 perfbench/run.py --workload {train,retrieve,tune} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; `lse` is imported from ./src and
nothing is installed. Inputs are generated from the seed into
.perfbench_work/ (several times, to time set-up and check that generation
is deterministic), a fresh Python process runs the workload's `lse`
commands, and the work directory is removed at the end; a traced run
leaves its spans in .perfbench_work/spans-<workload>-<seed>.jsonl. Stdout ends with
two JSON lines: a full report (inputs, environment, every figure with its
unit), then the result {"correct", "attempted", "failed", "metrics"} with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import bench_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 100
SETUP_MIN_S = 2.0

WHY = {
    "train": "build-vocab and one training epoch on the 1024-entity scaling "
             "shape: sampling and the gradient step (scatter, GEMM, Adam) "
             "dominate; ranking is light",
    "retrieve": "rank, qlm and eval over 10k entities, a 20k-word Zipf "
                "vocabulary and 100 topics: full-pool sorting and per-entity "
                "lexical scoring dominate; the model only loads and projects",
    "tune": "sweep-lambda, fuse and ideal-vector on 1024 entities: RankSVM SGD "
            "dominates and qlm counts are estimated once and scored at 21 grid "
            "points",
}
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "failed_ratio": "ratio",
         "train_instances_per_s": "1/s", "train_final_loss": "nats",
         "rank_topics_per_s": "1/s", "qlm_topics_per_s": "1/s", "eval_s": "s",
         "sweep_s": "s", "fuse_s": "s", "ideal_vector_s": "s"}


def unit_of(metric):
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_ms_p50") or metric.endswith("_ms_p90"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def import_lse():
    """Import lse from this checkout's src/ only; exits 2 when it is not
    there, so the benchmark never measures some other installed copy."""
    if not os.path.isfile(os.path.join(SRC, "lse", "__init__.py")):
        sys.exit(f"perfbench: {SRC}/lse not found; run from a source checkout")
    sys.path.insert(0, SRC)
    import lse.model
    import lse.text

    if not os.path.abspath(lse.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported lse from {lse.__file__}, not {SRC}")
    return lse


def tree_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(directory, "*"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def set_up(workload, seed, work):
    """Generate the inputs repeatedly; returns (input dir, median seconds,
    repetitions, whether every repetition wrote the same bytes)."""
    times = []
    digests = set()
    inputs = os.path.join(work, "inputs")
    while (len(times) < SETUP_MIN_REPS
           or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS)):
        target = inputs if not times else os.path.join(work, f"setup{len(times)}")
        t0 = time.perf_counter()
        bench_inputs.setup(workload, target, seed)
        times.append(time.perf_counter() - t0)
        digests.add(tree_digest(target))
        if target != inputs:
            shutil.rmtree(target)
    return inputs, statistics.median(times), len(times), len(digests) == 1


def environment(lse):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS),
            "nproc": len(os.sched_getaffinity(0)),
            "lse_version": lse.__version__, "src_lines": src_lines}


def run_worker(workload, inputs, seconds, trace, work):
    result_path = os.path.join(work, "result.json")
    env = {k: v for k, v in os.environ.items() if k != "LSE_DATA_DIR"}
    env.update({"PYTHONPATH": SRC, "PYTHONHASHSEED": "0",
                "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
                "MKL_NUM_THREADS": BLAS_THREADS})
    log_path = os.path.join(work, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench_worker.py"), workload,
             inputs, str(seconds), str(trace), result_path],
            env=env, stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
            check=False)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        sys.exit(f"perfbench: worker exited with status {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    lse = import_lse()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs, setup_s, setup_reps, deterministic = set_up(args.workload, args.seed, work)
        result = run_worker(args.workload, inputs, args.seconds, args.trace, work)
        if args.trace:
            shutil.move(os.path.join(inputs, "spans.jsonl"),
                        os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    failures = list(result["failures"])
    if not deterministic:
        failures.append("input generation is not byte-deterministic")
    attempted = result["attempted"] + 1
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = setup_s

    full = {"workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
            "trace": args.trace, "inputs": bench_inputs.sizes(args.workload),
            "setup_repetitions": setup_reps,
            "repetition_walls_s": result["walls"],
            "repetition_cpu_s": result["cpus"],
            "traced_repetition_walls_s": result.get("traced_walls", []),
            "environment": environment(lse), "failures": failures,
            "figures": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in sorted({
                            **result.get("report", {}), **metrics,
                            "failed_ratio": len(failures) / attempted}.items())}}
    print(json.dumps(full, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in sorted(metrics.items())}}))


if __name__ == "__main__":
    main()
