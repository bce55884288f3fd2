"""Training loop: per-epoch sampling, batched gradient steps with Adam, and
validation-based epoch selection."""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import LSEError
from .evaluation import evaluate_run
from .files import atomic_open
from .model import (PARAM_FIELDS, AdamState, Dims, adam_step,
                    batch_loss_and_gradients, init_params)
from .retrieval import rank_entities
from .sampling import SamplerConfig, make_batches, sample_epoch


@dataclass
class EpochLog:
    epoch: int
    mean_batch_loss: float
    validation_ndcg: float  # None when no validation topics are usable
    wall_seconds: float


@dataclass
class TrainResult:
    params: object
    log: list
    best_epoch: int
    skipped_entities: tuple  # indices of entities with no n-gram to sample


def _epoch_rng(seed, epoch):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(1, epoch)))


def train(corpus, vocab, config, validation_queries=None, validation_qrels=None,
          progress=None):
    """Run the configured number of epochs and keep the best one.

    Each epoch samples a fresh shuffled instance stream, walks it in batches
    of m, and applies one Adam step per batch. When validation queries
    ({topic_id: token ids}) and qrels are given, the epoch with the highest
    mean validation NDCG over the non-empty queries wins (ties go to the
    earlier epoch), scored as `rank` scores the saved model; otherwise the
    final epoch's parameters are returned. vocab gives the vocabulary size.
    mean_batch_loss is the unweighted mean of per-batch losses. A
    non-finite batch loss or gradient stops training with an LSEError
    naming the epoch and the batch. skipped_entities are the entities that
    sample_epoch leaves out, the same in every epoch.
    """
    dtype = np.float32 if config.precision == "float32" else np.float64
    dims = Dims(config.e_v, config.e_e, vocab.size, corpus.num_entities)
    init_rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed,
                                                            spawn_key=(0,)))
    params = init_params(dims, init_rng, dtype=dtype)
    state = AdamState(params)
    sampler = SamplerConfig(n=config.n, z=config.z, m=config.m)

    val_queries = []
    if validation_queries and validation_qrels is not None:
        val_queries = [(tid, ids) for tid, ids in sorted(validation_queries.items())
                       if ids]

    logs = []
    best_ndcg = None
    best_params = None
    best_epoch = None
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        block = sample_epoch(corpus, sampler, _epoch_rng(config.seed, epoch))
        losses = []
        for number, batch in enumerate(make_batches(block, config.m), start=1):
            loss, grads = batch_loss_and_gradients(params, batch, config.weight_decay)
            # A sum is finite only if every element is (or it overflowed,
            # which is divergence too), so one reduction per array suffices.
            bad = [] if math.isfinite(loss) else ["loss"]
            bad += [f"{name} gradient" for name in PARAM_FIELDS
                    if not np.isfinite(getattr(grads, name).sum())]
            if bad:
                raise LSEError(f"training diverged: non-finite {', '.join(bad)} "
                               f"at epoch {epoch}, batch {number}")
            adam_step(params, grads, state)
            losses.append(loss)
        mean_loss = sum(losses) / len(losses)

        vndcg = None
        if val_queries:
            # Rank with the float64 promotion of the parameters, which is
            # what load_model gives `rank` from the saved model.
            scored = params.astype(np.float64)
            norms = np.linalg.norm(scored.W_e, axis=1)
            runs = {tid: rank_entities(scored, ids, corpus.entities, tid,
                                       config.validation_cutoff, norms)
                    for tid, ids in val_queries}
            report = evaluate_run(runs, validation_qrels, config.validation_cutoff, ks=())
            vndcg = report.means[f"ndcg@{report.cutoff}"]
        if vndcg is not None and (best_ndcg is None or vndcg > best_ndcg):
            best_ndcg = vndcg
            best_params = params.copy()
            best_epoch = epoch

        entry = EpochLog(epoch, mean_loss, vndcg, time.perf_counter() - t0)
        logs.append(entry)
        if progress is not None:
            progress(entry)

    if best_params is None:
        best_params = params
        best_epoch = config.epochs
    return TrainResult(best_params, logs, best_epoch, block.skipped_entities)


def write_epoch_log(path, logs):
    """CSV with columns epoch, mean_batch_loss, validation_ndcg, wall_seconds."""
    with atomic_open(path) as fh:
        fh.write("epoch,mean_batch_loss,validation_ndcg,wall_seconds\n")
        for entry in logs:
            vn = "" if entry.validation_ndcg is None else repr(entry.validation_ndcg)
            fh.write(f"{entry.epoch},{entry.mean_batch_loss!r},{vn},"
                     f"{entry.wall_seconds!r}\n")
