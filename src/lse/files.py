"""Text files in and out. Every input is read through read_lines (or one of
its layers: read_fields for delimited files, read_records for JSON lines)
and every output is written through atomic_open, so malformed input always
ends in a DataError naming the file and line, and an output file is either
complete or absent. Every CSV report is written by write_csv and every JSON
report by write_json."""

import contextlib
import csv
import json
import os
import sys

from .errors import DataError

# JSON value types a record field may be required to have, by the Python type
# json.loads gives them, with the words an error uses.
_KINDS = {str: "a string", int: "an integer", float: "a finite number"}


def read_lines(path):
    """Yield (line number, line) for every line of the UTF-8 text file at
    path that is not blank (empty or whitespace only). Lines keep everything
    but their line ending, which may be \\n, \\r\\n or \\r. A byte sequence
    that is not UTF-8 is a DataError naming the file and line; the file is
    read one line at a time, never whole."""
    # surrogateescape defers decode errors from the chunk being decoded to
    # the line that holds the bad bytes: they arrive as lone surrogates, which
    # valid UTF-8 never yields and which the encoder then rejects.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise DataError(f"{path}:{number}: not valid UTF-8") from None
            if not line.isspace():
                yield number, line.rstrip("\n")


def check_unique(first_line, key, path, number, what):
    """Record that key first appears on line number of path; a key already
    recorded is a DataError naming what.format(key) and both lines."""
    if key in first_line:
        raise DataError(f"{path}:{number}: duplicate {what.format(key)}, first on "
                        f"line {first_line[key]}")
    first_line[key] = number


def check_id(value, where, what):
    """DataError at where unless value is a non-empty id without whitespace
    that UTF-8 can encode (a JSON escape can give a lone surrogate)."""
    if value.split() != [value]:
        raise DataError(f"{where}: {what} {value!r} is empty or holds whitespace")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"{where}: {what} {value!r} is not valid UTF-8") from None


def _check_field(path, number, record, name, kind):
    """DataError unless record[name] has the type kind, or kind is (type,
    None) and the value is null or missing."""
    value = record.get(name)
    if isinstance(kind, tuple):
        if value is None:
            return
        kind = kind[0]
    elif name not in record:
        raise DataError(f"{path}:{number}: record has no {name!r}")
    if kind is str:
        ok = type(value) is str
    else:  # a bool is not a number, and a number must fit a float
        ok = (type(value) in ((int, float) if kind is float else (int,))
              and abs(value) <= sys.float_info.max)
    if not ok:
        raise DataError(f"{path}:{number}: {name} must be {_KINDS[kind]}, "
                        f"got {value!r}")


def read_fields(path, count, sep="\t"):
    """Yield (line number, fields) for every non-blank line of a delimited
    file, split at each tab (sep "\\t") or at runs of whitespace (sep None).
    A line with other than count fields is a DataError naming the file and
    line."""
    kind = {"\t": "tab", None: "whitespace"}[sep]
    for number, line in read_lines(path):
        fields = line.split(sep)
        if len(fields) != count:
            raise DataError(f"{path}:{number}: expected {count} {kind}-separated fields")
        yield number, fields


def read_records(path, fields):
    """Yield (line number, record) for every non-blank line of a JSON-lines
    file, each record a JSON object. fields maps a field name to the type
    its value must have (str, int, or float for any finite number);
    (type, None) also allows null or a missing field. Anything else is a
    DataError naming the file and line."""
    for number, line in read_lines(path):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{path}:{number}: invalid JSON ({exc})") from None
        if not isinstance(record, dict):
            raise DataError(f"{path}:{number}: expected a JSON object")
        for name, kind in fields.items():
            # strings, the common case, skip the general check
            if not (kind is str and type(record.get(name)) is str):
                _check_field(path, number, record, name, kind)
        yield number, record


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """A handle on a temporary file in path's directory, UTF-8 text with \\n
    line endings for mode "w" or bytes for "wb". On a clean exit the file is
    flushed to disk and renamed over path; on any failure it is removed, so
    path never holds a partial file, not even after a power loss."""
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows):
    """Write header and then rows to path through atomic_open by csv.writer,
    lines ending in \\n: a float is written as its repr, None as an empty cell."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload):
    """Write payload to path through atomic_open as JSON indented by 2, keys
    sorted, with a final newline; NaN or infinity is a ValueError."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with atomic_open(path) as fh:
        fh.write(text)
