"""`src/` holds only what the package runs: every top-level function and
class of `src/frac_autocorr` is reached from a root, not only from tests.

Roots are the package's module-level statements (`__all__` among them), the
console entry point of pyproject.toml, and every name or dotted string that
`perfbench/*.py` mentions.  A definition is live when a root or a live
definition other than itself names it; names are matched without their
module, so the scan can only err towards live.
"""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DOTTED = re.compile(r"[\w.:]+")


def _names(node) -> set[str]:
    """Identifiers a node reads: names, attributes, dotted string constants."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and DOTTED.fullmatch(n.value):
            out.update(n.value.replace(":", ".").split("."))
    return out


def _unreached() -> list[str]:
    defs, roots = {}, set()
    for path in sorted((ROOT / "src" / "frac_autocorr").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, DEFS):
                defs[f"{path.stem}.{stmt.name}"] = (stmt.name, _names(stmt) - {stmt.name})
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    for path in (ROOT / "perfbench").glob("*.py"):
        roots |= _names(ast.parse(path.read_text()))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    roots |= {target.rsplit(":", 1)[-1] for target in scripts.values()}
    live, grew = set(), True
    while grew:
        reached = {key for key, (name, _) in defs.items() if name in roots} - live
        live |= reached
        for key in reached:
            roots |= defs[key][1]
        grew = bool(reached)
    return sorted(set(defs) - live)


def test_every_src_definition_has_a_caller_outside_the_tests():
    assert _unreached() == []
