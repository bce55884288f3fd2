"""Latent semantic entity retrieval toolkit.

Learns a joint word/entity vector space from entity-associated documents
with noise-contrastive estimation, retrieves entities by cosine similarity
of projected queries, and ships a smoothed lexical baseline plus an
evaluation and learning-to-rank harness around both.
"""

__version__ = "0.1.0"

from . import (errors, evaluation, files, ltr, model, qlm, retrieval, sampling,
               text, training)
from .errors import DataError, DegenerateStatisticError, EmptyQueryError, LSEError
from .evaluation import (Qrels, TopicSet, compare_runs, correlations,
                         evaluate_run, idf_match_analysis, ndcg, paired_t_test,
                         permutation_test_correlation, precision_at_k,
                         significance_marker)
from .ltr import (QIData, RankerConfig, build_features, cross_validated_fusion,
                  ideal_vector_report, pagerank)
from .model import (Dims, ModelParams, TrainConfig, batch_loss,
                    batch_loss_and_gradients, init_params, load_model, project,
                    save_model)
from .qlm import EntityLanguageModel, estimate, sweep_lambda
from .retrieval import RankedList, rank_entities, read_run, write_run
from .sampling import (InstanceBlock, SamplerConfig, make_batches,
                       ngrams_per_entity_per_epoch, sample_epoch)
from .text import (Corpus, Document, Vocabulary, build_vocabulary, encode_corpus,
                   extract_topic_query, tokenize, topics_from_categories)
from .training import TrainResult, train, write_epoch_log

__all__ = [
    "__version__",
    "errors", "evaluation", "files", "ltr", "model", "qlm", "retrieval",
    "sampling", "text", "training",
    "DataError", "DegenerateStatisticError", "EmptyQueryError", "LSEError",
    "Qrels", "TopicSet", "compare_runs", "correlations", "evaluate_run",
    "idf_match_analysis", "ndcg", "paired_t_test", "permutation_test_correlation",
    "precision_at_k", "significance_marker",
    "QIData", "RankerConfig", "build_features", "cross_validated_fusion",
    "ideal_vector_report", "pagerank",
    "Dims", "ModelParams", "TrainConfig", "batch_loss",
    "batch_loss_and_gradients", "init_params", "load_model", "project",
    "save_model",
    "EntityLanguageModel", "estimate", "sweep_lambda",
    "RankedList", "rank_entities", "read_run", "write_run",
    "InstanceBlock", "SamplerConfig", "make_batches",
    "ngrams_per_entity_per_epoch", "sample_epoch",
    "Corpus", "Document", "Vocabulary", "build_vocabulary", "encode_corpus",
    "extract_topic_query", "tokenize", "topics_from_categories",
    "TrainResult", "train", "write_epoch_log",
]
