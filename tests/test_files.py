"""The one module that reads and writes text files."""

import ast
import os
from pathlib import Path

import pytest

import lse
import lse.files
from lse.errors import DataError
from lse.files import (atomic_open, read_fields, read_lines, read_records, write_csv,
                       write_json)


def test_read_lines_skips_blank_lines_and_keeps_fields(tmp_path):
    path = tmp_path / "in.tsv"
    path.write_bytes(b"a\t b \r\n\r\n  \n\tc\rd\ncaf\xc3\xa9")
    assert list(read_lines(path)) == [(1, "a\t b "), (4, "\tc"), (5, "d"),
                                      (6, "café")]


def test_read_lines_names_the_line_of_a_bad_byte_past_the_first_chunk(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"0123456789\n" * 2000 + b"ok\nbad \xe9\n")
    lines = read_lines(path)
    assert next(lines) == (1, "0123456789")  # streamed: nothing decoded ahead
    with pytest.raises(DataError, match=r"in\.txt:2002: not valid UTF-8"):
        list(lines)


def test_read_fields_splits_at_tabs_or_at_runs_of_whitespace(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"a b\t c \n\n x\ty  z \r\n")
    assert list(read_fields(path, 2)) == [(1, ["a b", " c "]), (3, [" x", "y  z "])]
    assert list(read_fields(path, 3, sep=None)) == [(1, ["a", "b", "c"]),
                                                     (3, ["x", "y", "z"])]


@pytest.mark.parametrize("sep,kind", [("\t", "tab"), (None, "whitespace")])
def test_read_fields_names_the_line_with_another_field_count(tmp_path, sep, kind):
    path = tmp_path / "in.txt"
    path.write_text("a\tb\n\nc\td\te\n")
    fields = read_fields(path, 2, sep)
    assert next(fields) == (1, ["a", "b"])
    with pytest.raises(DataError, match=f"in\\.txt:3: expected 2 {kind}-separated fields$"):
        next(fields)


@pytest.mark.parametrize("line,message", [
    ('["a"]', ":1: expected a JSON object"),
    ("{'a': 1}", ":1: invalid JSON"),
    ('{"b": 1}', ":1: record has no 'a'"),
    ('{"a": null}', ":1: a must be a string, got None"),
    ('{"a": "x", "n": true}', ":1: n must be an integer, got True"),
    ('{"a": "x", "n": 2.0}', ":1: n must be an integer, got 2.0"),
    ('{"a": "x", "p": "1"}', ":1: p must be a finite number, got '1'"),
    ('{"a": "x", "p": NaN}', ":1: p must be a finite number, got nan"),
    ('{"a": "x", "p": 1e999}', ":1: p must be a finite number, got inf"),
    ('{"a": "x", "p": 1' + "0" * 400 + "}", ":1: p must be a finite number"),
])
def test_read_records_rejects_wrong_json_types(tmp_path, line, message):
    path = tmp_path / "in.jsonl"
    path.write_text(line + "\n")
    fields = {"a": str, "n": (int, None), "p": (float, None)}
    with pytest.raises(DataError, match=f"in\\.jsonl{message}"):
        list(read_records(path, fields))


def test_read_records_allows_missing_and_null_optional_fields(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"a": "x", "n": null}\n\n{"a": "y", "p": 3, "extra": [1]}\n')
    records = list(read_records(path, {"a": str, "n": (int, None),
                                       "p": (float, None)}))
    assert records == [(1, {"a": "x", "n": None}),
                       (3, {"a": "y", "p": 3, "extra": [1]})]


def test_atomic_open_syncs_the_file_before_renaming_it(tmp_path, monkeypatch):
    calls = []
    fsync, replace = os.fsync, os.replace
    monkeypatch.setattr(lse.files.os, "fsync",
                        lambda fd: calls.append("fsync") or fsync(fd))
    monkeypatch.setattr(lse.files.os, "replace",
                        lambda a, b: calls.append("replace") or replace(a, b))
    with atomic_open(tmp_path / "out.txt") as fh:
        fh.write("café\n")
    assert calls == ["fsync", "replace"]
    assert (tmp_path / "out.txt").read_bytes() == b"caf\xc3\xa9\n"


def test_write_csv_writes_floats_as_repr_and_none_as_an_empty_cell(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["id", "x", "y"], [["t1", 0.1 + 0.2, None],
                                       ['a,"b', float("inf"), -float("inf")],
                                       ["t3", 7, 1e-300]])
    assert path.read_bytes() == (b'id,x,y\nt1,0.30000000000000004,\n'
                                 b'"a,""b",inf,-inf\nt3,7,1e-300\n')


def test_write_json_sorts_keys_ends_in_a_newline_and_rejects_nan(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": [1, 0.5], "a": None})
    assert path.read_bytes() == b'{\n  "a": null,\n  "b": [\n    1,\n    0.5\n  ]\n}\n'
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"a": float("nan")})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def _text_mode_opens(source):
    """Line numbers of builtin open calls without a constant binary mode."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and "b" in mode.value):
                lines.append(node.lineno)
    return lines


def test_only_the_files_module_opens_text_files():
    offenders = {}
    for module in sorted(Path(lse.__file__).parent.glob("*.py")):
        if module.name != "files.py":
            found = _text_mode_opens(module.read_text(encoding="utf-8"))
            if found:
                offenders[module.name] = found
    assert offenders == {}
    assert _text_mode_opens('open(p)\nopen(p, "rb")\nopen(p, mode="w")\n'
                            'open(p, m)\n') == [1, 3, 4]


def _text_to_id_calls(source):
    """Line numbers of tokenize calls and of .encode calls given an argument
    that is not a string constant (str.encode("utf-8") is not a query)."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        args = node.args + [k.value for k in node.keywords]
        if name == "tokenize" or (
                name == "encode" and isinstance(func, ast.Attribute)
                and not all(isinstance(a, ast.Constant) and isinstance(a.value, str)
                            for a in args)):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_the_text_module_turns_text_into_token_ids():
    offenders = {}
    for module in sorted(Path(lse.__file__).parent.glob("*.py")):
        if module.name != "text.py":
            found = _text_to_id_calls(module.read_text(encoding="utf-8"))
            if found:
                offenders[module.name] = found
    assert offenders == {}
    assert _text_to_id_calls('tokenize(q)\ns.encode("utf-8")\nv.encode(tokenize(q))\n'
                             'text.tokenize(q)\nv.encode(ids)\ns.encode(encoding=e)\n'
                             's.encode()\n') == [1, 3, 4, 5, 6]
