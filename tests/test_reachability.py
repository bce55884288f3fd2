"""Every module-level function, class and assigned name in src/lse is
reached from a command, and every function runs when the commands do. A
static name graph over the package source, rooted at the cli's cmd_*
functions, must cover every name, and a profiled run of the commands must
enter every function, so code that no command calls fails here instead of
lingering."""

import ast
import json
import os
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path

import lse
from conftest import COMMANDS


def _names(node):
    """Bare names and attribute names used anywhere under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _implicit(method):
    """Dunder methods and properties run without their name being written."""
    return ((method.name.startswith("__") and method.name.endswith("__"))
            or any(isinstance(d, ast.Name) and d.id == "property"
                   for d in method.decorator_list))


def unreached(package_dir):
    """(module, name) of each module-level function, class and assignment
    target that the cmd_* functions of package_dir/cli.py do not reach.

    A definition reaches every definition whose name it uses, bare or as an
    attribute, wherever that is defined; an import's asname reaches the
    imported name. Module-level assignments are definitions of their
    targets. A reached class reaches its decorators, bases, class-level
    statements, dunder methods and properties; its other methods are reached
    by their names. Imports themselves reach nothing, so an export alone
    does not count."""
    edges = defaultdict(set)
    top_level = []
    roots = set()
    for path in sorted(Path(package_dir).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        edges[alias.asname].add(alias.name.rpartition(".")[2])
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                top_level.append((path.stem, stmt.name))
                edges[stmt.name] |= _names(stmt)
                if path.stem == "cli" and stmt.name.startswith("cmd_"):
                    roots.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                top_level.append((path.stem, stmt.name))
                for part in stmt.decorator_list + stmt.bases + stmt.keywords:
                    edges[stmt.name] |= _names(part)
                for member in stmt.body:
                    if isinstance(member, ast.FunctionDef) and not _implicit(member):
                        edges[member.name] |= _names(member)
                    else:
                        edges[stmt.name] |= _names(member)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for name in sorted(set().union(*map(_names, targets))):
                    top_level.append((path.stem, name))
                    edges[name] |= _names(stmt.value)
    reached = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(edges[name] - reached)
    return [(module, name) for module, name in top_level if name not in reached]


def test_every_definition_in_lse_is_reached_from_a_command():
    assert unreached(Path(lse.__file__).parent) == []


def test_unreached_definitions_are_reported(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .text import encode as text_encode\n"
        "TABLE = {'box': lambda: Box}\n"
        "SPARE_LIMIT = 3\n"
        "\n"
        "def cmd_run():\n"
        "    return text_encode(TABLE['box']())\n"
        "\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return _size()\n"
        "\n"
        "    @property\n"
        "    def area(self):\n"
        "        return _area()\n"
        "\n"
        "    def spare(self):\n"
        "        return _spare()\n"
        "\n"
        "def _size():\n"
        "    return 1\n"
        "\n"
        "def _area():\n"
        "    return 2\n"
        "\n"
        "def _spare():\n"
        "    return 3\n"
        "\n"
        "def orphan():\n"
        "    return _size()\n")
    (tmp_path / "text.py").write_text(
        "def encode(box):\n"
        "    return box\n"
        "\n"
        "class Unused:\n"
        "    pass\n")
    assert unreached(tmp_path) == [("cli", "SPARE_LIMIT"), ("cli", "_spare"),
                                   ("cli", "orphan"), ("text", "Unused")]


# Functions that only the benchmark under perfbench/ calls; when it stops,
# the name leaves this list, which may only shrink.
BENCHMARK_ONLY = ["sampling.Epoch.__len__", "text.Vocabulary.__eq__", "text.Vocabulary.encode"]

# Imports lse.cli and runs each lse command of argv[1] in this process under
# sys.setprofile; prints the exit statuses and [module, first line, name] of
# each function of the lse package entered meanwhile, at import or after.
_PROBE = (
    "import json, os, sys\n"
    "entered, statuses = set(), []\n"
    "def record(frame, event, arg):\n"
    "    if event == 'call':\n"
    "        entered.add(frame.f_code)\n"
    "sys.setprofile(record)\n"
    "import lse.cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    try:\n"
    "        lse.cli.main(argv)\n"
    "    except SystemExit as exc:\n"
    "        statuses.append(exc.code)\n"
    "sys.setprofile(None)\n"
    "package = os.path.dirname(lse.__file__)\n"
    "print(json.dumps([statuses, [\n"
    "    [os.path.basename(c.co_filename)[:-3], c.co_firstlineno, c.co_name]\n"
    "    for c in entered if os.path.dirname(c.co_filename) == package]]))\n")


def _functions(code, prefix):
    """{(first line, name): prefix + qualified name} of each function and
    class compiled into code, at any depth; lambdas and comprehensions are
    searched but not listed."""
    found = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = prefix + const.co_name
            if not const.co_name.startswith("<"):
                found[const.co_firstlineno, const.co_name] = name
            found.update(_functions(const, f"{name}."))
    return found


def never_entered(package_dir, argvs):
    """'module.qualified name' of each function of package_dir, in order of
    definition, that neither runs at import of its cli nor is entered by the
    lse commands argvs, run in one fresh process; and their exit statuses."""
    src = str(Path(package_dir).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    statuses, entered = json.loads(result.stdout.splitlines()[-1])
    entered = {tuple(key) for key in entered}
    missed = []
    for path in sorted(Path(package_dir).resolve().glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed += [name for (line, short), name in _functions(code, f"{path.stem}.").items()
                   if (path.stem, line, short) not in entered]
    return missed, statuses


def test_every_function_in_lse_runs_in_a_command(inputs, tmp_path):
    """Under sys.setprofile, so a dunder or property counts only when it
    runs: every COMMANDS entry; grad-check; ideal-vector at 300 pairs, 3 a
    step, so that the 4 entities are fewer than two steps' pairs and the
    Pegasos steps score rows (_scored_sum); and ideal-vector at 10**30
    pairs, which exits 1 with a SizeError."""
    argvs = [[arg.format(**inputs) for arg in argv] + ["--out", str(tmp_path / name)]
             for name, argv in COMMANDS.items()]
    argvs.append(["grad-check", "--seeds", "1"])
    for pairs in (300, 10 ** 30):
        argv = [arg.format(**inputs) for arg in COMMANDS["ideal-vector"]]
        argv[argv.index("--pair-samples") + 1] = str(pairs)
        argvs.append(argv + ["--out", str(tmp_path / f"ideal{pairs}")])
    missed, statuses = never_entered(Path(lse.__file__).parent, argvs)
    assert statuses == [0] * (len(argvs) - 1) + [1]
    assert missed == BENCHMARK_ONLY


def test_never_entered_lists_functions_no_command_runs(tmp_path):
    package = tmp_path / "lse"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import sys\n"
        "\n"
        "def _option():\n"
        "    return None\n"
        "\n"
        "OPTION = _option()\n"
        "\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 1\n"
        "\n"
        "    def spare(self):\n"
        "        return [lambda: 0 for _ in ()]\n"
        "\n"
        "def main(argv):\n"
        "    def inner():\n"
        "        return len(Box())\n"
        "\n"
        "    def unused():\n"
        "        return 2\n"
        "\n"
        "    sys.exit(inner() if argv == ['run'] else 0)\n")
    assert never_entered(package, [["run"], ["other"]]) == (
        ["cli.Box.spare", "cli.main.unused"], [1, 0])
