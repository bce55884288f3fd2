"""Every module-level function, class and assigned name in src/lse is
reached from a command. A static name graph over the package source, rooted
at the cli's cmd_* functions, must cover them all, so code that no command
calls fails here instead of lingering."""

import ast
from collections import defaultdict
from pathlib import Path

import lse


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
