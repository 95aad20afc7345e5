"""Every exported name resolves, so a deleted helper cannot linger in __all__;
and every public top-level name, exported or not, has a reader in the
program or the benchmark besides its definition, its imports and its
__all__ entry."""

import ast
import importlib
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "lgmirror"
_EXPORTING = ["lgmirror", "lgmirror.ladder", "lgmirror.plucker", "lgmirror.polytope"]


@pytest.mark.parametrize("module", _EXPORTING)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _blanked(text: str, nodes) -> list[str]:
    """The lines of ``text`` with the lines of ``nodes`` (and their
    decorators) emptied, so line numbers still match."""
    lines = text.splitlines()
    for node in nodes:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        lines[first - 1 : node.end_lineno] = [""] * (node.end_lineno - first + 1)
    return lines


def _reading_text(text: str) -> str:
    """The source without its import statements and its __all__ list."""
    tree = ast.parse(text)
    cut = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    cut += [n for n in tree.body if _is_all(n)]
    return "\n".join(_blanked(text, cut))


def _exported(text: str) -> set:
    return {
        name.value
        for node in ast.parse(text).body
        if _is_all(node)
        for name in node.value.elts
    }


def _defined_name(node, exported: set) -> str | None:
    """The public name a top-level statement defines: a function or class,
    or an exported constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        name = node.name
    elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
        node.targets[0], ast.Name
    ):
        name = node.targets[0].id
        if name not in exported:
            return None
    else:
        return None
    return None if name.startswith("_") else name


def _unread_names(src: Path, bench: Path) -> list[str]:
    """Public top-level names of ``src`` that no line of ``src`` or of the
    benchmark under ``bench`` reads, where import statements, __all__ lists
    and the name's own definition do not count as reading it."""
    texts = {path: path.read_text() for path in sorted(src.glob("*.py"))}
    reading = {path: _reading_text(text) for path, text in texts.items()}
    bench_text = "\n".join(_reading_text(p.read_text()) for p in sorted(bench.glob("*.py")))
    exported = set().union(*map(_exported, texts.values()))
    unread = []
    for path, text in texts.items():
        for node in ast.parse(text).body:
            name = _defined_name(node, exported)
            if name is None:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            rest = "\n".join(_blanked(reading[path], [node]))
            others = [t for p, t in reading.items() if p != path] + [rest, bench_text]
            if not any(word.search(t) for t in others):
                unread.append(f"{path.stem}.{name}")
    return unread


def test_every_public_name_has_a_reader_outside_the_tests():
    assert _unread_names(_SRC, _ROOT / "perfbench") == []


def test_a_name_only_a_test_reads_is_flagged(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text(
        "from .a import KINDS, Exported, used\n\n__all__ = ['KINDS', 'Exported', 'used']\n"
    )
    (src / "a.py").write_text(
        "KINDS = ('x',)\nLOCAL = 1\n\n\n"
        "def used():\n    return orphan_like()\n\n\n"
        "@cache\ndef orphan():\n    return orphan\n\n\n"
        "def orphan_like():\n    pass\n\n\n"
        "def benched():\n    pass\n\n\n"
        "class Exported:\n    pass\n\n\n"
        "def _private():\n    pass\n"
    )
    (src / "b.py").write_text("from .a import used\n\nRESULT = used()\n")
    (bench / "run.py").write_text("from a import orphan\n\na.benched()\n")
    assert _unread_names(src, bench) == ["a.KINDS", "a.orphan", "a.Exported"]
