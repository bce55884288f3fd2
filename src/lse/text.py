"""Text pipeline: tokenization, vocabulary construction, and corpus and
topic encoding."""

import hashlib
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import islice, repeat

import numpy as np

from .errors import DataError
from .files import atomic_open, check_id, check_unique, read_fields, read_records

NUM_TOKEN = "<num>"


def _load_stopwords():
    text = (resources.files("lse") / "data" / "stopwords.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


STOPWORDS = _load_stopwords()


# The tokenization rule. A token is a run of ASCII letters, a number (ASCII
# digits, groups joined by single .,-) or the literal <num>, which keeps
# tokenize idempotent on its own output. Every byte no token can hold,
# non-ASCII ones included, becomes a space. Then each <num> and number
# becomes a lone \x01 byte, what is left of .,-<> a space, and the end of a
# text a lone NUL byte, so split() leaves words of letters, \x01 and NUL.
_LETTERS = bytes(range(ord("a"), ord("z") + 1))
_TO_SPACE = bytes(c if c in _LETTERS + b"0123456789.,-<>" else 32 for c in range(256))
_TO_LETTERS = bytes(c if c in _LETTERS + b"\x00\x01" else 32 for c in range(256))
# Its leading [0-9] lets the regex engine skip ahead to a digit.
_NUMBER_RE = re.compile(rb"[0-9][0-9]*(?:[.,\-][0-9]+)*")
_BLOCK_DOCS = 32  # texts per block; larger blocks raise train's peak RSS


def _split(texts):
    """Yield each block of _BLOCK_DOCS texts as its pieces: per text, its
    words of letters and b"\x01" for each number or <num>, then b"\x00"."""
    texts = iter(texts)
    while block := list(islice(texts, _BLOCK_DOCS)):
        joined = b"".join(t.lower().encode("utf-8", "surrogatepass").translate(_TO_SPACE)
                          + b" \x00 " for t in block).replace(b"<num>", b" \x01 ")
        yield _NUMBER_RE.sub(b" \x01 ", joined).translate(_TO_LETTERS).split()


def tokenize(text):
    """The tokens of text, as a list of strings: _split's pieces of text
    alone, with <num> for each number and stopwords dropped."""
    words = b" ".join(next(_split([text]))).decode().replace("\x01", NUM_TOKEN).split()
    return [tok for tok in words[:-1] if tok not in STOPWORDS]  # [:-1] drops the NUL


class Vocabulary:
    """Bidirectional token/id map with corpus statistics.

    Ids are assigned in frequency-rank order (most frequent first, ties
    broken lexicographically), so a vocabulary built with a smaller cap is
    a prefix of the id range. Capped at 65536 entries so every id fits in
    16 bits. The three lists, of equal length and distinct tokens, are held
    as given: load checks each line of a file.
    """

    MAX_SIZE = 65536

    def __init__(self, id_to_token, frequency, document_frequency):
        if len(id_to_token) > self.MAX_SIZE:
            raise DataError("vocabulary exceeds the 16-bit id limit")
        self.id_to_token = id_to_token
        self.frequency = frequency
        self.document_frequency = document_frequency
        self.token_to_id = {t: i for i, t in enumerate(id_to_token)}

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
        for number, (tok, tok_id, freq, df) in read_fields(path, 4):
            try:
                tok_id, freq, df = int(tok_id), int(freq), int(df)
            except ValueError:
                raise DataError(f"{path}:{number}: id and counts must be "
                                "integers") from None
            if not 0 <= df <= freq:
                raise DataError(f"{path}:{number}: counts must satisfy "
                                "0 <= doc_frequency <= frequency")
            if tok_id != len(id_to_token):
                raise DataError(f"{path}:{number}: ids must be dense and ordered")
            if tok_id == cls.MAX_SIZE:
                raise DataError(f"{path}:{number}: vocabulary exceeds the 16-bit "
                                "id limit")
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

    @property
    def num_entities(self):
        return len(self.entities)

    @property
    def total_tokens(self):
        return len(self.tokens)


_SKIP, _END, _MISS = -1, -2, -3


def _encode_texts(texts, vocab):
    """(tokens, doc_ptr, dropped) of texts laid end to end: text j's ids are
    vocab.encode(tokenize(text j)), and dropped counts the tokens tokenize
    keeps that vocab lacks. Each of _split's pieces takes one dict lookup."""
    lookup = {tok.encode(): i for tok, i in vocab.token_to_id.items()
              if tok.isascii() and tok.isalpha() and tok.islower()}
    lookup.update(dict.fromkeys((w.encode() for w in STOPWORDS), _SKIP))
    lookup[b"\x00"] = _END
    lookup[b"\x01"] = vocab.token_to_id.get(NUM_TOKEN, _MISS)

    tokens, doc_ptr, dropped = array("i"), array("q", [0]), 0
    for pieces in _split(texts):
        codes = np.fromiter(map(lookup.get, pieces, repeat(_MISS)), np.int32, len(pieces))
        found = codes >= 0
        doc_ptr.frombytes((np.cumsum(found, dtype=np.int64)[codes == _END]
                           + len(tokens)).tobytes())
        tokens.frombytes(codes[found].tobytes())
        dropped += int(np.count_nonzero(codes == _MISS))
    return np.asarray(tokens, dtype=np.int32), np.asarray(doc_ptr, dtype=np.int64), dropped


def encode_corpus(raw_docs, vocab):
    """Encode raw documents (as load_raw_docs returns them; any iterable,
    read once) against vocab into one Corpus; entities ordered by first
    appearance."""
    entity_index = {}
    doc_entity = array("i")

    def texts():
        for _doc_id, entity_id, text in raw_docs:
            doc_entity.append(entity_index.setdefault(entity_id, len(entity_index)))
            yield text

    tokens, doc_ptr, dropped = _encode_texts(texts(), vocab)
    return Corpus(tokens, doc_ptr, np.asarray(doc_entity, dtype=np.int32),
                  list(entity_index), dropped)


def encode_topics(topics, vocab):
    """Encode topic_id -> query text against vocab into {topic_id: token ids},
    in topic-id order; a query with no in-vocabulary token encodes to []."""
    ids = sorted(topics)
    tokens, ptr, _ = _encode_texts((topics[tid] for tid in ids), vocab)
    return {tid: tokens[ptr[j]:ptr[j + 1]].tolist() for j, tid in enumerate(ids)}


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

