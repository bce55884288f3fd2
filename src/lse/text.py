"""Text pipeline: tokenization, vocabulary construction, corpus encoding,
and benchmark topics built from category hierarchies."""

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DataError
from .files import atomic_open, read_lines, read_records

NUM_TOKEN = "<num>"

# The literal <num> alternative keeps tokenize idempotent on its own output.
_TOKEN_RE = re.compile(r"<num>|[0-9]+(?:[.,\-][0-9]+)*|[a-z]+")


def _load_stopwords():
    text = (resources.files("lse") / "data" / "stopwords.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


STOPWORDS = _load_stopwords()


def tokenize(text):
    """Lowercase, strip punctuation, replace purely numeric tokens by <num>,
    and drop stopwords.

    Returns a list of token strings; empty input yields an empty list.
    """
    out = []
    for tok in _TOKEN_RE.findall(text.lower()):
        if tok[0].isdigit():
            tok = NUM_TOKEN
        if tok not in STOPWORDS:
            out.append(tok)
    return out


class Vocabulary:
    """Bidirectional token/id map with corpus statistics.

    Ids are assigned in frequency-rank order (most frequent first, ties
    broken lexicographically), so truncation to k tokens is a prefix
    operation. Capped at 65536 entries so every id fits in 16 bits.
    """

    MAX_SIZE = 65536

    def __init__(self, id_to_token, frequency, document_frequency):
        if not (len(id_to_token) == len(frequency) == len(document_frequency)):
            raise DataError("vocabulary field lengths disagree")
        if len(id_to_token) > self.MAX_SIZE:
            raise DataError("vocabulary exceeds the 16-bit id limit")
        self.id_to_token = list(id_to_token)
        self.frequency = list(frequency)
        self.document_frequency = list(document_frequency)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate token in vocabulary")

    @property
    def size(self):
        return len(self.id_to_token)

    def __len__(self):
        return len(self.id_to_token)

    def __eq__(self, other):
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return (self.id_to_token == other.id_to_token
                and self.frequency == other.frequency
                and self.document_frequency == other.document_frequency)

    def __contains__(self, token):
        return token in self.token_to_id

    def encode(self, tokens):
        """Map tokens to ids, silently dropping out-of-vocabulary tokens."""
        t2i = self.token_to_id
        return [t2i[t] for t in tokens if t in t2i]

    def truncate(self, k):
        """Keep the k highest-ranked tokens (a prefix of the id range)."""
        if k < 1:
            raise DataError("truncation size must be at least 1")
        k = min(k, self.size)
        return Vocabulary(self.id_to_token[:k], self.frequency[:k],
                          self.document_frequency[:k])

    def to_tsv(self):
        lines = []
        for i, tok in enumerate(self.id_to_token):
            lines.append(f"{tok}\t{i}\t{self.frequency[i]}\t{self.document_frequency[i]}")
        return "\n".join(lines) + "\n"

    def sha256(self):
        return hashlib.sha256(self.to_tsv().encode("utf-8")).hexdigest()

    def save(self, path):
        with atomic_open(path) as fh:
            fh.write(self.to_tsv())

    @classmethod
    def load(cls, path):
        id_to_token, frequency, document_frequency = [], [], []
        first_line = {}
        for number, line in read_lines(path):
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}:{number}: expected 4 tab-separated fields")
            tok, tok_id, freq, df = parts
            try:
                tok_id, freq, df = int(tok_id), int(freq), int(df)
            except ValueError:
                raise DataError(f"{path}:{number}: id and counts must be "
                                "integers") from None
            if tok_id != len(id_to_token):
                raise DataError(f"{path}:{number}: ids must be dense and ordered")
            if tok in first_line:
                raise DataError(f"{path}:{number}: duplicate token {tok!r}, "
                                f"first on line {first_line[tok]}")
            first_line[tok] = number
            id_to_token.append(tok)
            frequency.append(freq)
            document_frequency.append(df)
        if not id_to_token:
            raise DataError(f"{path}: vocabulary is empty")
        return cls(id_to_token, frequency, document_frequency)


def build_vocabulary(raw_docs, max_size=Vocabulary.MAX_SIZE, source="corpus"):
    """Count tokens over all documents and keep the max_size most frequent.

    Ties at the cutoff are broken lexicographically. Raises DataError naming
    source, the documents' file, when no token survives tokenization.
    """
    if max_size < 1:
        raise DataError("max_size must be at least 1")
    if max_size > Vocabulary.MAX_SIZE:
        raise DataError("max_size exceeds the 16-bit id limit")
    frequency = Counter()
    document_frequency = Counter()
    for _doc_id, _entity_id, text in raw_docs:
        toks = tokenize(text)
        frequency.update(toks)
        document_frequency.update(set(toks))
    if not frequency:
        raise DataError(f"{source}: no tokens survive filtering")
    retained = sorted(frequency, key=lambda t: (-frequency[t], t))[:max_size]
    return Vocabulary(retained,
                      [frequency[t] for t in retained],
                      [document_frequency[t] for t in retained])


@dataclass(frozen=True)
class Document:
    doc_id: str
    entity_id: str
    tokens: np.ndarray  # vocabulary ids, int32


@dataclass
class Corpus:
    """Entities with their encoded documents.

    entities is ordered by first appearance in the input; association maps
    entity index -> indices into documents.
    """

    entities: list
    documents: list
    association: dict
    total_tokens: int
    dropped_tokens: int = 0
    entity_index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.entity_index:
            self.entity_index = {e: i for i, e in enumerate(self.entities)}

    @property
    def num_entities(self):
        return len(self.entities)

    def documents_of(self, entity_index):
        return [self.documents[j] for j in self.association[entity_index]]

    def profile_tokens(self, entity_index):
        """All token ids of the entity's documents, concatenated."""
        docs = self.documents_of(entity_index)
        if not docs:
            return np.empty(0, dtype=np.int32)
        return np.concatenate([d.tokens for d in docs])


def encode_corpus(raw_docs, vocab):
    """Encode raw documents against vocab; entities ordered by first appearance."""
    entities = []
    entity_index = {}
    documents = []
    association = {}
    seen = set()
    total = 0
    dropped = 0
    for doc_id, entity_id, text in raw_docs:
        if doc_id in seen:
            raise DataError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        toks = tokenize(text)
        ids = vocab.encode(toks)
        dropped += len(toks) - len(ids)
        total += len(ids)
        if entity_id not in entity_index:
            entity_index[entity_id] = len(entities)
            entities.append(entity_id)
            association[entity_index[entity_id]] = []
        association[entity_index[entity_id]].append(len(documents))
        documents.append(Document(doc_id, entity_id, np.asarray(ids, dtype=np.int32)))
    if not documents:
        raise DataError("corpus has no documents")
    return Corpus(entities, documents, association, total, dropped, entity_index)


def extract_topic_query(path):
    """Build a topic query from a category path: tokenize the titles from the
    second level onward and de-duplicate words keeping the first
    occurrence."""
    if len(path) < 2:
        raise DataError("category path has fewer than two levels")
    words = [tok for title in path[1:] for tok in tokenize(title)]
    return " ".join(dict.fromkeys(words))


def topics_from_categories(records):
    """Turn (path, entity_ids) records into topics and binary relevance.

    Topic ids are c<index> over the input order; paths with fewer than two
    levels or an empty extracted query are skipped. Returns
    (topics, qrels, skipped_indices) where topics maps topic_id -> query and
    qrels maps (topic_id, entity_id) -> 1.
    """
    topics = {}
    qrels = {}
    skipped = []
    for i, (path, entity_ids) in enumerate(records):
        try:
            query = extract_topic_query(path)
        except DataError:
            skipped.append(i)
            continue
        if not query:
            skipped.append(i)
            continue
        tid = f"c{i:04d}"
        topics[tid] = query
        for eid in entity_ids:
            qrels[(tid, eid)] = 1
    return topics, qrels, skipped


def load_raw_docs(path):
    """Read a JSON-lines corpus: one {"doc_id", "entity_id", "text"} per line,
    all three strings, with distinct doc ids and at least one document."""
    docs = []
    first_line = {}
    for number, rec in read_records(path, {"doc_id": str, "entity_id": str,
                                           "text": str}):
        doc_id = rec["doc_id"]
        if doc_id in first_line:
            raise DataError(f"{path}:{number}: duplicate doc_id {doc_id!r}, "
                            f"first on line {first_line[doc_id]}")
        first_line[doc_id] = number
        docs.append((doc_id, rec["entity_id"], rec["text"]))
    if not docs:
        raise DataError(f"{path}: corpus has no documents")
    return docs


def load_categories(path):
    """Read JSON-lines category records: {"path": [...], "entity_ids": [...]}."""
    return [(rec["path"], rec["entity_ids"])
            for _, rec in read_records(path, {"path": list, "entity_ids": list})]
