"""Every command on inputs mutated by seeded operators. A run may succeed;
otherwise it exits 1 with an error line naming the mutated file, prints no
traceback and leaves no --out directory behind (conftest.error_line).
The mutations depend on SEED alone, so every run of this module tries the
same inputs.

This module runs the byte, text and model-container operators;
tests/test_cli.py runs the field operators (FIELD_OPERATORS: any byte
inserted, one field dropped, a JSON value swapped) through the same
check_mutations, under the test id of the fuzz test they replaced."""

import json
import random
import re
import struct

import numpy as np
import pytest

from conftest import COMMANDS, error_line, pack_model, run_main
from lse.model import MAGIC, PARAM_FIELDS

SEED = 20161024

# ---- byte and text operators: each takes (data, rng) ----

def _truncate(data, rng):
    return data[:rng.randrange(len(data))]


def _flip(data, rng):
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]


def _insert(values):
    def insert(data, rng):
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.choice(values) + data[at:]
    return insert


def _bom(data, rng):
    return b"\xef\xbb\xbf" + data


def _crlf(data, rng):
    return data.replace(b"\n", b"\r\n")


def _delete_line(data, rng):
    lines = data.splitlines(keepends=True)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _duplicate_line(data, rng):
    lines = data.splitlines(keepends=True)
    at = rng.randrange(len(lines))
    return b"".join(lines[:at + 1] + lines[at:])


def _edit_line(edit):
    """An operator that replaces one line, without its line ending, by
    edit(line, rng)."""
    def mutate(data, rng):
        lines = data.splitlines(keepends=True)
        at = rng.randrange(len(lines))
        lines[at] = edit(lines[at].rstrip(b"\n"), rng) + b"\n"
        return b"".join(lines)
    return mutate


def _drop_field(sep):
    """Drop one field of a line split at sep, or one key of a JSON line
    (sep None)."""
    def drop(line, rng):
        if sep is None:
            record = json.loads(line)
            del record[rng.choice(sorted(record))]
            return json.dumps(record).encode()
        fields = line.split(sep)
        del fields[rng.randrange(len(fields))]
        return sep.join(fields)
    return _edit_line(drop)


# JSON values a record's field may be swapped for, one of each type
VALUES = [None, True, 7, -2.5, 1e300, "s", [], ["x"], {}, "x\ud800"]


def _swap_value(line, rng):
    record = json.loads(line)
    record[rng.choice(sorted(record))] = rng.choice(VALUES)
    return json.dumps(record).encode()


# a token: a run of bytes that are neither whitespace nor JSON or config syntax
_TOKEN = re.compile(rb"[^\s\"{}\[\]:,=#]+")

# what a token may become; a lone surrogate is written both as a JSON escape
# and as the three bytes UTF-8 would give it, which valid UTF-8 never holds
TOKENS = [b"nan", b"inf", b"-1", b"1e999", b"\x00", b"\\ud800", b"\xed\xa0\x80", b"{}"]


def _replace_token(value):
    def replace(data, rng):
        token = rng.choice(list(_TOKEN.finditer(data)))
        return data[:token.start()] + value + data[token.end():]
    return replace


BYTE_OPERATORS = {"truncate": _truncate, "flip": _flip,
                  "invalid_utf8": _insert([b"\xff", b"\xc3(", b"\xed\xa0\x80"]),
                  "bom": _bom}
TEXT_OPERATORS = {**BYTE_OPERATORS, "crlf": _crlf, "delete_line": _delete_line,
                  "duplicate_line": _duplicate_line,
                  **{f"token_{value!r}": _replace_token(value) for value in TOKENS}}

# what separates the fields of each delimited input; the others are JSON lines
SEPARATORS = {"vocab": b"\t", "topics": b"\t", "graph": b"\t", "qrels": b" ",
              "run": b" ", "baseline": b" ", "config": b"="}

# draws of each operator on each input; bom and crlf draw nothing
DRAWS = 2


def _container(data):
    """(header, the array bytes) of a model container."""
    (length,) = struct.unpack("<Q", data[len(MAGIC):len(MAGIC) + 8])
    start = len(MAGIC) + 8
    return json.loads(data[start:start + length]), data[start + length:]


def model_mutations(data, rng):
    """name -> container: dims one above and one below the data's, a
    vocabulary far beyond it, the other dtype, and a NaN in each array."""
    header, arrays = _container(data)
    out = {}
    for dim, delta in [(d, s) for d in header["dims"] for s in (1, -1)]:
        changed = json.loads(json.dumps(header))
        changed["dims"][dim] += delta
        if dim == "num_entities":  # still one id per entity: only the sizes disagree
            ids = changed["entity_ids"]
            changed["entity_ids"] = ids + ["extra"] if delta > 0 else ids[:-1]
        out[f"{dim}{delta:+d}"] = pack_model(changed, arrays)
    out["vocab_size_1e12"] = pack_model({**header, "dims": {**header["dims"],
                                                            "vocab_size": 10 ** 12}}, arrays)
    dtype = np.dtype({"float32": "<f4", "float64": "<f8"}[header["dtype"]])
    other = {"float32": "float64", "float64": "float32"}[header["dtype"]]
    out[f"dtype_{other}"] = pack_model({**header, "dtype": other}, arrays)
    d = header["dims"]
    sizes = {"W_v": d["e_v"] * d["vocab_size"], "W": d["e_e"] * d["e_v"], "b": d["e_e"],
             "W_e": d["num_entities"] * d["e_e"]}
    values = np.frombuffer(arrays, dtype=dtype)
    start = 0
    for name in PARAM_FIELDS:
        poisoned = values.copy()
        poisoned[start + rng.randrange(sizes[name])] = np.nan
        out[f"nan_in_{name}"] = pack_model(header, poisoned.tobytes())
        start += sizes[name]
    return out


def operators(name):
    """The byte and text operators that mutate the input called name."""
    return BYTE_OPERATORS if name == "model" else TEXT_OPERATORS


def field_operators(name):
    """Any byte inserted, one field of a line dropped at the input's
    separator (or one key of a JSON line), and a JSON value swapped for one
    of another type, as far as the input called name has them."""
    out = {"insert_byte": _insert([bytes([b]) for b in range(256)])}
    if name == "model":
        return out
    if name in SEPARATORS:
        return {**out, "drop_field": _drop_field(SEPARATORS[name])}
    return {**out, "drop_field": _drop_field(None), "swap_value": _edit_line(_swap_value)}


def mutations(name, data, ops):
    """name of each mutation of the input called name by the operators ops
    -> its bytes, drawn from generators seeded by SEED, the input and the
    operator."""
    out = {}
    for op, mutate in ops.items():
        for draw in range(1 if op in ("bom", "crlf") else DRAWS):
            out[f"{op}#{draw}"] = mutate(data, random.Random(f"{SEED}:{name}:{op}:{draw}"))
    return out


CASES = [(command, name) for command, argv in COMMANDS.items()
         for name in re.findall(r"\{(\w+)\}", " ".join(argv))]


def check_mutations(inputs, tmp_path, capsys, command, name, mutated):
    """Run command with its input name replaced by each of mutated (name of
    the mutation -> bytes) and assert every run exits 0, or exits 1 naming
    the mutated file."""
    bad = tmp_path / inputs[name].name
    paths = {**inputs, name: bad}
    args = [arg.format(**paths) for arg in COMMANDS[command]]
    failures = []
    for i, (mutation, data) in enumerate(mutated.items()):
        bad.write_bytes(data)
        out = tmp_path / f"out{i}"
        status = run_main(args + ["--out", out])
        err = capsys.readouterr().err
        if status == 0:
            continue
        line = error_line(status, err, 1, out) or ""
        # a valid config whose window n is longer than every document names
        # the corpus and n, as the README says
        if not (str(bad) in line or (name == "config" and line.startswith(
                f"Error: {inputs['corpus']}: window n"))):
            failures.append((mutation, status, err))
    assert not failures, failures


@pytest.mark.parametrize("command,name", CASES)
def test_mutated_input_exits_0_or_1_naming_it(inputs, tmp_path, capsys, command, name):
    data = inputs[name].read_bytes()
    mutated = mutations(name, data, operators(name))
    if name == "model":
        mutated.update(model_mutations(data, random.Random(f"{SEED}:{name}:structure")))
    check_mutations(inputs, tmp_path, capsys, command, name, mutated)
