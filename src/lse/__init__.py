"""Latent semantic entity retrieval toolkit.

Learns a joint word/entity vector space from entity-associated documents
with noise-contrastive estimation, retrieves entities by cosine similarity
of projected queries, and ships a smoothed lexical baseline plus an
evaluation and learning-to-rank harness around both.
"""

__version__ = "0.1.0"
