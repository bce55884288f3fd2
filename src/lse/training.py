"""Training loop: per-epoch sampling, batched gradient steps with Adam, and
validation-based epoch selection."""

import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import LSEError
from .evaluation import evaluate_run
from .files import write_csv
from .model import (PARAM_FIELDS, AdamState, Dims, adam_step,
                    batch_loss_and_gradients, init_params)
from .retrieval import rank_entities
from .sampling import SamplerConfig, ngrams_per_entity_per_epoch, sample_epoch


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
    earlier epoch), each topic ranked alone by rank_entities in the training
    dtype, the one `rank` scores the saved model in; otherwise the final
    epoch's parameters are returned. The best epoch is kept in one copy of
    the parameters, made at the first improving epoch that is not the last
    and overwritten at each later one; when the last epoch wins, the
    parameters themselves are returned. vocab gives the vocabulary size.
    mean_batch_loss is the unweighted mean of per-batch losses. A
    non-finite batch loss or gradient stops training with an LSEError
    naming the epoch and the batch; a DataError names the fields of an
    array that NumPy cannot allocate before anything is drawn.
    skipped_entities are the entities that sample_epoch leaves out, the
    same in every epoch."""
    dims = Dims(config.e_v, config.e_e, vocab.size, corpus.num_entities)
    # no batch exceeds an epoch, so a larger m makes the same batches
    instances = ngrams_per_entity_per_epoch(corpus, config.n) * corpus.num_entities
    sampler = SamplerConfig(n=config.n, z=config.z, m=min(config.m, instances))
    init_rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed,
                                                            spawn_key=(0,)))
    params = init_params(dims, init_rng, dtype=config.precision)
    # C-contiguous for the step and Adam; init_params' word_rows is a view
    params.word_rows = np.ascontiguousarray(params.word_rows)
    state = AdamState(params)

    val_queries = []
    if validation_queries and validation_qrels is not None:
        val_queries = [(tid, ids) for tid, ids in sorted(validation_queries.items())
                       if ids]

    grads = None  # the gradient buffers, allocated by the first step and reused
    logs = []
    best_ndcg = best_params = best_epoch = None
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        instances = sample_epoch(corpus, sampler, _epoch_rng(config.seed, epoch))
        losses = []
        for number, batch in enumerate(instances, start=1):
            loss, grads = batch_loss_and_gradients(params, batch,
                                                   config.weight_decay, grads)
            # A sum is finite only if every element is (or it overflowed,
            # which is divergence too), so one reduction per array suffices;
            # of W_v's gradient the data rows S W: theta is finite while the
            # loss is, which holds its squared norm, and so is lambda/m theta.
            bad = [] if math.isfinite(loss) else ["loss"]
            bad += [f"{name} gradient" for name, grad in zip(PARAM_FIELDS, grads)
                    if not np.isfinite(grad.sum())]
            if bad:
                raise LSEError(f"training diverged: non-finite {', '.join(bad)} "
                               f"at epoch {epoch}, batch {number}")
            adam_step(params, grads, state)
            losses.append(loss)
        mean_loss = sum(losses) / len(losses)
        skipped, instances = instances.skipped_entities, None  # free for the next draw

        vndcg = None
        if val_queries:
            norms = np.linalg.norm(params.W_e, axis=1)
            runs = {tid: rank_entities(params, ids, corpus.entities, tid,
                                       config.validation_cutoff, norms)
                    for tid, ids in val_queries}
            report = evaluate_run(runs, validation_qrels, config.validation_cutoff, ks=())
            vndcg = report.means[f"ndcg@{config.validation_cutoff}"]
        if vndcg is not None and (best_ndcg is None or vndcg > best_ndcg):
            best_ndcg, best_epoch = vndcg, epoch
            if epoch == config.epochs:             # nothing left to change it
                best_params = params
            elif best_params is None:
                best_params = params.copy()
            else:                                  # into the one copy
                for kept, theta in zip(best_params, params):
                    np.copyto(kept, theta)

        entry = EpochLog(epoch, mean_loss, vndcg, time.perf_counter() - t0)
        logs.append(entry)
        if progress is not None:
            progress(entry)

    if best_params is None:
        best_params = params
        best_epoch = config.epochs
    return TrainResult(best_params, logs, best_epoch, skipped)


def write_epoch_log(path, logs):
    """CSV with one row of EpochLog's fields per entry, under their names."""
    write_csv(path, [field.name for field in fields(EpochLog)], map(astuple, logs))
