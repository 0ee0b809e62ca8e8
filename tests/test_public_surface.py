"""Every public top-level function and class in the package has a reader.

A public definition (a `def` or `class` at module level whose name does not
start with an underscore) must be referenced somewhere other than its own
definition:

* in a `src/gkpo` module, as a name, an attribute or an imported name;
* in `bench/*.py`, likewise, or as the last part of a "gkpo.module.name"
  string that the tracer patches;
* in a `python -c '...'` snippet of the CI workflow;
* or inside backticks in README.md.

A name only tests call is dead API: delete it, or document it in README.
"""

import ast
import re

from conftest import ROOT

SRC = ROOT / "src" / "gkpo"


def _names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _outside_src() -> set[str]:
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _names(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if re.fullmatch(r"gkpo(\.\w+)+", sub.value):
                    names.add(sub.value.rsplit(".", 1)[-1])
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    for snippet in re.findall(r"python -c '([^']*)'", workflow):
        names |= _names(ast.parse(snippet))
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8")):
        names |= set(re.findall(r"\w+", span))
    return names


def test_every_public_definition_has_a_reader():
    statements = [  # (module, top-level statement, the names it reads)
        (path.stem, stmt, _names(stmt))
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    outside = _outside_src()
    unread = [
        f"{module}.{stmt.name}"
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in outside
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unread == [], f"public names nothing reads: {unread}"
