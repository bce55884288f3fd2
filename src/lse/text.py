"""Text pipeline: tokenization, vocabulary construction, and corpus and
topic encoding."""

import hashlib
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DataError
from .files import atomic_open, check_id, check_unique, read_lines, read_records

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
    broken lexicographically), so a vocabulary built with a smaller cap is
    a prefix of the id range. Capped at 65536 entries so every id fits in
    16 bits.
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

    def __eq__(self, other):
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return (self.id_to_token == other.id_to_token
                and self.frequency == other.frequency
                and self.document_frequency == other.document_frequency)

    def encode(self, tokens):
        """Map tokens to ids, silently dropping out-of-vocabulary tokens."""
        t2i = self.token_to_id
        return [t2i[t] for t in tokens if t in t2i]

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
            check_unique(first_line, tok, path, number, "token {!r}")
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


@dataclass
class Corpus:
    """Encoded documents laid end to end in one token array.

    The j-th document holds the ids tokens[doc_ptr[j]:doc_ptr[j + 1]] and
    belongs to entity doc_entity[j], an index into entities, which is
    ordered by first appearance in the input.
    """

    tokens: np.ndarray  # int32
    doc_ptr: np.ndarray  # int64, one offset per document plus the end
    doc_entity: np.ndarray  # int32
    entities: list
    dropped_tokens: int
    entity_index: dict  # entity id -> its index in entities

    @property
    def num_entities(self):
        return len(self.entities)

    @property
    def total_tokens(self):
        return len(self.tokens)


def _text_encoder(vocab):
    """A function from text to (ids, dropped): ids is
    vocab.encode(tokenize(text)) and dropped counts the tokens tokenize keeps
    that vocab lacks, found with one findall and one dict lookup per token."""
    # Entries tokenize never emits as themselves (stopwords, digit-leading
    # tokens) never match; a miss then falls through tokenize's rules.
    lookup = {tok: i for tok, i in vocab.token_to_id.items()
              if tok not in STOPWORDS and not tok[:1].isdigit()}
    num_id = lookup.get(NUM_TOKEN)
    findall = _TOKEN_RE.findall

    def encode(text):
        ids = []
        dropped = 0
        for tok in findall(text.lower()):
            i = lookup.get(tok)
            if i is None:
                if tok[0].isdigit():
                    tok, i = NUM_TOKEN, num_id
                if tok in STOPWORDS:
                    continue
                if i is None:
                    dropped += 1
                    continue
            ids.append(i)
        return ids, dropped

    return encode


def encode_corpus(raw_docs, vocab):
    """Encode raw documents (as load_raw_docs returns them) against vocab into
    one Corpus; entities ordered by first appearance."""
    encode = _text_encoder(vocab)
    tokens = array("i")
    doc_ptr = [0]
    doc_entity = []
    entity_index = {}
    dropped = 0
    for _doc_id, entity_id, text in raw_docs:
        ids, missed = encode(text)
        dropped += missed
        tokens.extend(ids)
        doc_ptr.append(len(tokens))
        doc_entity.append(entity_index.setdefault(entity_id, len(entity_index)))
    return Corpus(np.asarray(tokens, dtype=np.int32), np.asarray(doc_ptr, dtype=np.int64),
                  np.asarray(doc_entity, dtype=np.int32), list(entity_index),
                  dropped, entity_index)


def encode_topics(topics, vocab):
    """Encode topic_id -> query text against vocab into {topic_id: token ids},
    in topic-id order; a query with no in-vocabulary token encodes to []."""
    encode = _text_encoder(vocab)
    return {tid: encode(topics[tid])[0] for tid in sorted(topics)}


def load_raw_docs(path):
    """Read a JSON-lines corpus: one {"doc_id", "entity_id", "text"} per line,
    all strings, doc ids distinct, entity ids passing check_id; not empty."""
    docs = []
    first_line = {}
    for number, rec in read_records(path, {"doc_id": str, "entity_id": str,
                                           "text": str}):
        doc_id = rec["doc_id"]
        check_unique(first_line, doc_id, path, number, "doc_id {!r}")
        check_id(rec["entity_id"], f"{path}:{number}", "entity_id")
        docs.append((doc_id, rec["entity_id"], rec["text"]))
    if not docs:
        raise DataError(f"{path}: corpus has no documents")
    return docs

