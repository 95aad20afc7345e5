"""Every exported name resolves, so a deleted helper cannot linger in __all__;
and every public top-level name has a reader besides the tests."""

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


def _unread_names(src: Path, bench: Path, exported: set) -> list[str]:
    """Public top-level defs and classes of ``src`` that no other line of
    ``src`` names, that the benchmark under ``bench`` does not name, and that
    are not ``exported``."""
    texts = {path: path.read_text() for path in sorted(src.glob("*.py"))}
    bench_text = "\n".join(path.read_text() for path in sorted(bench.glob("*.py")))
    unread = []
    for path, text in texts.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in exported:
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if word.search(bench_text):
                continue
            # the source with the definition's own lines cut out
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            lines = text.splitlines()
            rest = lines[: first - 1] + lines[node.end_lineno :]
            others = [t for p, t in texts.items() if p != path] + ["\n".join(rest)]
            if not any(word.search(t) for t in others):
                unread.append(f"{path.stem}.{node.name}")
    return unread


def test_every_public_name_has_a_reader_outside_the_tests():
    exported = {name for m in _EXPORTING for name in importlib.import_module(m).__all__}
    assert _unread_names(_SRC, _ROOT / "perfbench", exported) == []


def test_a_name_only_a_test_reads_is_flagged(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .a import used\n")
    (src / "a.py").write_text(
        "def used():\n    return orphan_like()\n\n\n"
        "@cache\ndef orphan():\n    return orphan\n\n\n"
        "def orphan_like():\n    pass\n\n\n"
        "def benched():\n    pass\n\n\n"
        "class Exported:\n    pass\n\n\n"
        "def _private():\n    pass\n"
    )
    (bench / "run.py").write_text("a.benched()\n")
    assert _unread_names(src, bench, {"Exported"}) == ["a.orphan"]
