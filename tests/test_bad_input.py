"""Every command on inputs mutated by seeded operators. A run may succeed;
otherwise it exits 1 with an error line naming the mutated file, prints no
traceback and leaves no --out directory behind. The mutations depend on
SEED alone, so every run of this module tries the same inputs."""

import json
import random
import re
import struct

import numpy as np
import pytest

from lse.cli import main
from lse.model import MAGIC, PARAM_FIELDS

SEED = 20161024

CORPUS = [("d1", "cam", "digital camera zoom lens"), ("d2", "cam", "camera photo lens"),
          ("d3", "gui", "acoustic guitar steel strings"), ("d4", "gui", "guitar wood tone"),
          ("d5", "pia", "grand piano ivory keys"), ("d6", "pia", "piano pedal sound"),
          ("d7", "vio", "violin bow rosin strings"), ("d8", "vio", "violin wood rest")]

TEXT_INPUTS = {
    "corpus": ("corpus.jsonl", "".join(json.dumps({"doc_id": d, "entity_id": e, "text": t})
                                       + "\n" for d, e, t in CORPUS)),
    "topics": ("topics.tsv", "topic_id\ttest\nt1\tcamera lens\nt2\tguitar\n"
                             "t3\tpiano keys\nt5\tstrings wood\n"),
    "qrels": ("qrels.txt", "t1 0 cam 1\nt2 0 gui 1\nt3 0 pia 1\nt5 0 gui 1\nt5 0 vio 1\n"),
    "config": ("train.cfg", "e_v = 4\ne_e = 3\nn = 2\nz = 2\nm = 8\nepochs = 1\n"
                            "seed = 0  # root seed\n"),
    "attrs": ("attrs.jsonl", '{"entity_id": "cam", "price": 3.5, "sales_rank": 4}\n'
                             '{"entity_id": "gui", "description_length": 12}\n'),
    "graph": ("graph.tsv", "cam\tgui\ngui\tpia\nvio\tcam\n"),
}

# command -> argv, each {name} an input that is mutated in turn
COMMANDS = {
    "build-vocab": ["build-vocab", "{corpus}"],
    "train": ["train", "{corpus}", "{vocab}", "--config", "{config}",
              "--validation-topics", "{topics}", "--validation-qrels", "{qrels}"],
    "rank": ["rank", "{model}", "{vocab}", "{topics}"],
    "qlm": ["qlm", "{corpus}", "{vocab}", "{topics}"],
    "eval": ["eval", "{run}", "{qrels}", "--baseline-run", "{baseline}"],
    "sweep-lambda": ["sweep-lambda", "{corpus}", "{vocab}", "{topics}", "{qrels}"],
    "fuse": ["fuse", "{corpus}", "{vocab}", "{topics}", "{qrels}", "--model", "{model}",
             "--qi-attrs", "{attrs}", "--graph", "also_bought={graph}", "--folds", "2",
             "--pair-samples", "50"],
    "ideal-vector": ["ideal-vector", "{model}", "{vocab}", "{topics}", "{qrels}",
                     "--pair-samples", "50"],
}


def run(args):
    """Run the command in-process as the lse entry point does; its exit
    status."""
    with pytest.raises(SystemExit) as exited:
        main.main(args, standalone_mode=True)
    return exited.value.code


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs of every command, each its own file: name -> path."""
    root = tmp_path_factory.mktemp("valid")
    paths = {}
    for name, (file_name, text) in TEXT_INPUTS.items():
        paths[name] = root / file_name
        paths[name].write_text(text)
    paths["vocab"] = root / "vocab.tsv"
    paths["model"] = root / "model.lse"
    paths["run"] = root / "run.trec"
    paths["baseline"] = root / "baseline.trec"
    steps = [(["build-vocab", "{corpus}"], "vocab.tsv", "vocab"),
             (["train", "{corpus}", "{vocab}", "--config", "{config}"], "model.lse", "model"),
             (COMMANDS["rank"], "run.trec", "run"),
             (COMMANDS["qlm"], "run.trec", "baseline")]
    for argv, output, name in steps:
        out = root / f"{name}_out"
        assert run([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 0
        (out / output).replace(paths[name])
    return paths


# ---- byte and text operators: each takes (data, rng) ----

def _truncate(data, rng):
    return data[:rng.randrange(len(data))]


def _flip(data, rng):
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]


def _insert_invalid_utf8(data, rng):
    at = rng.randrange(len(data) + 1)
    return data[:at] + rng.choice([b"\xff", b"\xc3(", b"\xed\xa0\x80"]) + data[at:]


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
                  "invalid_utf8": _insert_invalid_utf8, "bom": _bom}
TEXT_OPERATORS = {**BYTE_OPERATORS, "crlf": _crlf, "delete_line": _delete_line,
                  "duplicate_line": _duplicate_line,
                  **{f"token_{value!r}": _replace_token(value) for value in TOKENS}}

# draws of each operator on each input; bom and crlf draw nothing
DRAWS = 2


def _container(data):
    """(header, the array bytes) of a model container."""
    (length,) = struct.unpack("<Q", data[len(MAGIC):len(MAGIC) + 8])
    start = len(MAGIC) + 8
    return json.loads(data[start:start + length]), data[start + length:]


def _pack(header, arrays):
    blob = json.dumps(header).encode()
    return MAGIC + struct.pack("<Q", len(blob)) + blob + arrays


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
        out[f"{dim}{delta:+d}"] = _pack(changed, arrays)
    out["vocab_size_1e12"] = _pack({**header, "dims": {**header["dims"],
                                                       "vocab_size": 10 ** 12}}, arrays)
    dtype = np.dtype({"float32": "<f4", "float64": "<f8"}[header["dtype"]])
    other = {"float32": "float64", "float64": "float32"}[header["dtype"]]
    out[f"dtype_{other}"] = _pack({**header, "dtype": other}, arrays)
    d = header["dims"]
    sizes = {"W_v": d["e_v"] * d["vocab_size"], "W": d["e_e"] * d["e_v"], "b": d["e_e"],
             "W_e": d["num_entities"] * d["e_e"]}
    values = np.frombuffer(arrays, dtype=dtype)
    start = 0
    for name in PARAM_FIELDS:
        poisoned = values.copy()
        poisoned[start + rng.randrange(sizes[name])] = np.nan
        out[f"nan_in_{name}"] = _pack(header, poisoned.tobytes())
        start += sizes[name]
    return out


def mutations(name, data):
    """name of each mutation of the input called name -> its bytes, drawn
    from generators seeded by SEED, the input and the operator."""
    out = {}
    operators = BYTE_OPERATORS if name == "model" else TEXT_OPERATORS
    for op, mutate in operators.items():
        for draw in range(1 if op in ("bom", "crlf") else DRAWS):
            out[f"{op}#{draw}"] = mutate(data, random.Random(f"{SEED}:{name}:{op}:{draw}"))
    if name == "model":
        out.update(model_mutations(data, random.Random(f"{SEED}:{name}:structure")))
    return out


CASES = [(command, name) for command, argv in COMMANDS.items()
         for name in re.findall(r"\{(\w+)\}", " ".join(argv))]


@pytest.mark.parametrize("command,name", CASES)
def test_mutated_input_exits_0_or_1_naming_it(inputs, tmp_path, capsys, command, name):
    bad = tmp_path / inputs[name].name
    paths = {**inputs, name: bad}
    args = [arg.format(**paths) for arg in COMMANDS[command]]
    failures = []
    for i, (mutation, data) in enumerate(mutations(name, inputs[name].read_bytes()).items()):
        bad.write_bytes(data)
        out = tmp_path / f"out{i}"
        status = run(args + ["--out", str(out)])
        err = capsys.readouterr().err
        if status == 0:
            continue
        errors = [line for line in err.splitlines() if line.startswith("Error: ")]
        # a valid config whose window n is longer than every document names
        # the corpus and n, as the README says
        named = len(errors) == 1 and (str(bad) in errors[0] or (
            name == "config" and errors[0].startswith(f"Error: {inputs['corpus']}: window n")))
        if status != 1 or "Traceback" in err or out.exists() or not named:
            failures.append((mutation, status, err))
    assert not failures, failures
