"""Text pipeline: tokenizer, vocabulary, corpus and topic encoding."""

import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from lse import text
from lse.errors import DataError
from lse.text import (NUM_TOKEN, STOPWORDS, Vocabulary,
                      build_vocabulary, encode_corpus, encode_topics,
                      load_raw_docs, tokenize)


# The tokenization rule as one regular expression, independent of the byte
# tables that lse.text cuts text with: the literal placeholder, a number
# (ASCII digits, groups joined by single .,-) or a run of ASCII letters.
_ORACLE_RE = re.compile(r"<num>|[0-9]+(?:[.,\-][0-9]+)*|[a-z]+")


def oracle_tokenize(text):
    """What tokenize returns: each match of _ORACLE_RE in the lowercased
    text, with <num> for each number, less the stopwords."""
    toks = (NUM_TOKEN if tok[0].isdigit() else tok
            for tok in _ORACLE_RE.findall(text.lower()))
    return [tok for tok in toks if tok not in STOPWORDS]


def test_tokenize_punctuation_number_and_stopword():
    assert tokenize("The Camera, 2-pack!") == ["camera", NUM_TOKEN, "pack"]


def test_tokenize_pure_numbers_collapse_to_placeholder():
    assert tokenize("3.5 2,000 10-20 7") == [NUM_TOKEN] * 4


def test_tokenize_mixed_alphanumeric_splits():
    assert tokenize("2pack mp3") == [NUM_TOKEN, "pack", "mp", NUM_TOKEN]


def test_tokenize_empty_and_symbol_only():
    assert tokenize("") == []
    assert tokenize("!!! --- $$$") == []


def test_tokenize_drops_stopwords():
    assert "the" in STOPWORDS
    assert tokenize("the of and") == []


@settings(max_examples=50)
@given(st.text(max_size=80))
def test_tokenize_idempotent_on_own_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


def test_build_vocabulary_keeps_most_frequent():
    docs = [("d1", "e1", "aa aa aa bb"), ("d2", "e1", "aa aa bb bb cc")]
    vocab = build_vocabulary(docs, max_size=2)
    assert vocab.id_to_token == ["aa", "bb"]
    assert vocab.frequency == [5, 3]
    assert vocab.document_frequency == [2, 2]


def test_build_vocabulary_single_doc_counts():
    vocab = build_vocabulary([("d1", "e1", "xx xx")])
    assert vocab.id_to_token == ["xx"]
    assert vocab.frequency == [2]
    assert vocab.document_frequency == [1]


def test_build_vocabulary_breaks_frequency_ties_lexicographically():
    vocab = build_vocabulary([("d1", "e1", "bb aa cc")])
    assert vocab.id_to_token == ["aa", "bb", "cc"]


def test_build_vocabulary_truncation_consistency():
    docs = [("d1", "e1", "aa bb cc dd aa bb cc aa bb aa")]
    full = build_vocabulary(docs)
    capped = build_vocabulary(docs, max_size=2)
    assert capped == Vocabulary(full.id_to_token[:2], full.frequency[:2],
                                full.document_frequency[:2])
    assert build_vocabulary(docs, max_size=9) == full


def test_build_vocabulary_rejects_empty_and_bad_sizes():
    with pytest.raises(DataError):
        build_vocabulary([("d1", "e1", "the !!!")])
    with pytest.raises(DataError):
        build_vocabulary([("d1", "e1", "aa")], max_size=0)


def test_vocabulary_id_cap():
    names = [f"t{i}" for i in range(65537)]
    with pytest.raises(DataError):
        Vocabulary(names, [1] * len(names), [1] * len(names))


def test_vocabulary_round_trips_through_ids():
    vocab = build_vocabulary([("d1", "e1", "aa bb cc aa")])
    for tok in vocab.id_to_token:
        assert vocab.id_to_token[vocab.token_to_id[tok]] == tok


def test_vocabulary_encode_drops_oov():
    vocab = build_vocabulary([("d1", "e1", "aa bb")])
    assert vocab.encode(["aa", "zz", "bb"]) == [vocab.token_to_id["aa"],
                                               vocab.token_to_id["bb"]]


def test_vocabulary_save_load_round_trip(tmp_path):
    vocab = build_vocabulary([("d1", "e1", "aa bb cc aa bb aa")])
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    assert Vocabulary.load(path) == vocab
    assert Vocabulary.load(path).sha256() == vocab.sha256()


def test_vocabulary_load_rejects_shuffled_ids(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("aa\t1\t2\t1\nbb\t0\t1\t1\n")
    with pytest.raises(DataError):
        Vocabulary.load(path)


def test_truncate_changes_digest():
    docs = [("d1", "e1", "aa bb cc aa bb aa")]
    assert (build_vocabulary(docs, max_size=2).sha256()
            != build_vocabulary(docs).sha256())


def test_encode_corpus_doc_entity_and_order():
    docs = [("d1", "e1", "aa bb"), ("d2", "e1", "bb"), ("d3", "e2", "aa")]
    vocab = build_vocabulary(docs)
    corpus = encode_corpus(docs, vocab)
    assert corpus.entities == ["e1", "e2"]
    assert corpus.doc_entity.tolist() == [0, 0, 1]
    assert corpus.doc_ptr.tolist() == [0, 2, 3, 4]
    assert corpus.tokens.dtype == np.int32
    assert corpus.doc_ptr.dtype == np.int64
    assert corpus.doc_entity.dtype == np.int32


def test_encode_corpus_keeps_empty_documents():
    docs = [("d1", "e1", "aa"), ("d2", "e2", "zz zz")]
    vocab = build_vocabulary([("d1", "e1", "aa")])
    corpus = encode_corpus(docs, vocab)
    assert corpus.doc_ptr.tolist() == [0, 1, 1]
    assert corpus.dropped_tokens == 2


def test_encode_corpus_token_accounting():
    docs = [("d1", "e1", "aa bb zz"), ("d2", "e2", "aa cc")]
    vocab = build_vocabulary([("d", "e", "aa bb")])
    corpus = encode_corpus(docs, vocab)
    raw_total = sum(len(tokenize(text)) for _, _, text in docs)
    assert corpus.total_tokens + corpus.dropped_tokens == raw_total


def test_load_raw_docs_rejects_duplicate_doc_id(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"doc_id": "d1", "entity_id": "e1", "text": "aa"}\n'
                    '{"doc_id": "d1", "entity_id": "e2", "text": "aa"}\n')
    with pytest.raises(DataError, match=r":2: duplicate doc_id 'd1', first on line 1"):
        load_raw_docs(path)


def test_load_raw_docs_rejects_empty_corpus(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text("\n")
    with pytest.raises(DataError, match="corpus has no documents"):
        load_raw_docs(path)


def test_encode_corpus_lays_documents_end_to_end():
    docs = [("d1", "e1", "aa bb"), ("d2", "e1", "cc")]
    vocab = build_vocabulary(docs)
    corpus = encode_corpus(docs, vocab)
    assert corpus.tokens.tolist() == vocab.encode(["aa", "bb", "cc"])
    assert corpus.total_tokens == 3


# Words of every kind the tokenizer treats differently: in and out of the
# vocabulary, stopwords, numbers, the literal placeholder and pieces of it,
# uppercase, non-ASCII letters (the Kelvin sign lowercases to ASCII k, and
# dotted capital I to i and a combining dot), a lone surrogate, punctuation
# inside and around words and numbers, and a long out-of-vocabulary word.
ENCODER_WORDS = ("aa", "bb", "camera", "lens", "zz", "qq", "the", "of", "12", "3.5",
                 "2,000", NUM_TOKEN, "mp3", "a-b", "!!", "", "Camera", "THE", "é",
                 "caméra", "x<num>y", "<12", "12aa", "\u212a", "\u0130", "ß", "\ud800",
                 "<num", "num>", "<NUM>", "1..2", "-5", "5-", "a.b", "the-camera",
                 "abcdefghijklmnopqrstuvwxyzabcd")
# The vocabulary may hold entries tokenize never emits as themselves (a
# stopword, a digit-leading token) and may lack the placeholder.
VOCAB_WORDS = ("aa", "bb", "camera", "lens", "mp", "x", "y", NUM_TOKEN, "the", "12",
               "k", "num")


def _drawn_vocab(data):
    words = data.draw(st.lists(st.sampled_from(VOCAB_WORDS), min_size=1, unique=True),
                      label="vocab")
    return Vocabulary(words, [1] * len(words), [1] * len(words))


def _drawn_text(data):
    words = data.draw(st.lists(st.tuples(st.sampled_from(ENCODER_WORDS),
                                         st.sampled_from([" ", "\t", "\n", ", "])),
                               max_size=8), label="words")
    return "".join(word + sep for word, sep in words)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_encode_corpus_matches_per_document_oracle(data):
    vocab = _drawn_vocab(data)
    owners = data.draw(st.lists(st.sampled_from(["e0", "e1", "e2", "e3"]),
                                min_size=1, max_size=8), label="owners")
    raw = [(f"d{j}", entity, _drawn_text(data)) for j, entity in enumerate(owners)]
    corpus = encode_corpus(raw, vocab)
    entities = list(dict.fromkeys(entity for _, entity, _ in raw))
    assert corpus.entities == entities
    dropped = 0
    for j, (_, entity, text) in enumerate(raw):
        toks = oracle_tokenize(text)
        ids = vocab.encode(toks)
        dropped += len(toks) - len(ids)
        assert corpus.tokens[corpus.doc_ptr[j]:corpus.doc_ptr[j + 1]].tolist() == ids
        assert corpus.doc_entity[j] == entities.index(entity)
    assert corpus.doc_ptr[-1] == corpus.total_tokens == len(corpus.tokens)
    assert corpus.dropped_tokens == dropped


# Every ASCII character inside a word, inside a number and around a word; a
# byte table that keeps or drops a character the regular expression does
# not splits or joins a token here.
ASCII_TEXTS = [t for c in map(chr, range(128)) for t in (f"ab{c}cd", f"12{c}34", f"{c}ab{c}")]


def test_tokenize_matches_the_oracle_on_every_ascii_character():
    for t in ASCII_TEXTS:
        assert tokenize(t) == oracle_tokenize(t), repr(t)


def test_encoder_agrees_with_tokenize_on_every_ascii_character():
    words = sorted({tok for t in ASCII_TEXTS for tok in oracle_tokenize(t)} | {"ab", "cd"})
    vocab = Vocabulary(words, [1] * len(words), [1] * len(words))
    corpus = encode_corpus([(f"d{j}", "e", t) for j, t in enumerate(ASCII_TEXTS)], vocab)
    for j, t in enumerate(ASCII_TEXTS):
        got = corpus.tokens[corpus.doc_ptr[j]:corpus.doc_ptr[j + 1]].tolist()
        assert got == vocab.encode(oracle_tokenize(t)), repr(t)
    assert corpus.dropped_tokens == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tokenize_matches_the_oracle(data):
    t = _drawn_text(data)
    assert tokenize(t) == oracle_tokenize(t)


def test_build_vocabulary_counts_the_oracle_tokens_of_a_punctuated_corpus():
    rng = random.Random(3)
    seps = (" ", ", ", ".", "-", "\n", "(", ")", "'s ")
    docs = [(f"d{j}", "e", "".join(rng.choice(ENCODER_WORDS) + rng.choice(seps)
                                   for _ in range(12))) for j in range(60)]
    frequency, document_frequency = Counter(), Counter()
    for _, _, t in docs:
        toks = oracle_tokenize(t)
        frequency.update(toks)
        document_frequency.update(set(toks))
    vocab = build_vocabulary(docs)
    assert dict(zip(vocab.id_to_token, vocab.frequency)) == frequency
    assert dict(zip(vocab.id_to_token, vocab.document_frequency)) == document_frequency
    assert vocab.id_to_token == sorted(frequency, key=lambda t: (-frequency[t], t))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_encode_corpus_fields_do_not_depend_on_the_block_size(data):
    vocab = _drawn_vocab(data)
    raw = [(f"d{j}", f"e{j % 3}", _drawn_text(data))
           for j in range(data.draw(st.integers(1, 8), label="documents"))]
    want = encode_corpus(raw, vocab)
    for size in (1, 2, 3, len(raw) + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(text, "_BLOCK_DOCS", size)
            got = encode_corpus(iter(raw), vocab)  # any iterable, read once
        for name in ("tokens", "doc_ptr", "doc_entity"):
            field, ref = getattr(got, name), getattr(want, name)
            assert field.dtype == ref.dtype and field.tobytes() == ref.tobytes(), name
        assert (got.entities, got.dropped_tokens) == (want.entities, want.dropped_tokens)


def test_encode_corpus_memory_is_bounded():
    """Encoding a corpus of the benchmark's retrieve shape (20000 documents
    of 40 five-letter words over 20000 words) stays within 6.5 MiB of traced
    memory above its inputs: the 3.2 MB token array plus one small block at a
    time (5.34 measured; 5.09 for one findall per document, 58.4 when the
    whole corpus is one block)."""
    rng = np.random.default_rng(7)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = sorted({"".join(w) for w in rng.choice(letters, size=(30000, 5))})[:20000]
    vocab = Vocabulary(words, [1] * len(words), [1] * len(words))
    raw = [(f"d{j}", f"e{j % 10000}", " ".join(words[i] for i in row))
           for j, row in enumerate(rng.integers(0, len(words), size=(20000, 40)))]
    corpus, peak = traced_peak(lambda: encode_corpus(raw, vocab))
    assert corpus.total_tokens + corpus.dropped_tokens == 20000 * 40
    assert peak < 6.5 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_encode_topics_matches_per_query_oracle(data):
    vocab = _drawn_vocab(data)
    ids = data.draw(st.lists(st.sampled_from(["t1", "t2", "t10", "a"]), unique=True),
                    label="topic ids")
    topics = {tid: _drawn_text(data) for tid in ids}
    expected = {tid: vocab.encode(oracle_tokenize(q))
                for tid, q in sorted(topics.items())}
    assert list(encode_topics(topics, vocab).items()) == list(expected.items())


def test_encode_topics_orders_by_topic_id_and_keeps_empty_queries():
    vocab = Vocabulary(["camera", "lens", NUM_TOKEN], [3, 2, 1], [2, 2, 1])
    queries = encode_topics({"t2": "The LENS, 35 camera!", "t10": "xylophone",
                             "t1": "camera zoom lens"}, vocab)
    assert list(queries.items()) == [("t1", [0, 1]), ("t10", []), ("t2", [1, 2, 0])]


def test_load_raw_docs_round_trip(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"doc_id": "d1", "entity_id": "e1", "text": "aa"}\n\n'
                    '{"doc_id": "d2", "entity_id": "e2", "text": "bb"}\n')
    assert load_raw_docs(path) == [("d1", "e1", "aa"), ("d2", "e2", "bb")]


def test_load_raw_docs_reports_bad_line(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"doc_id": "d1", "entity_id": "e1", "text": "aa"}\nnot json\n')
    with pytest.raises(DataError, match=":2"):
        load_raw_docs(path)


def test_load_raw_docs_reports_missing_field(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"doc_id": "d1"}\n')
    with pytest.raises(DataError, match=":1"):
        load_raw_docs(path)
