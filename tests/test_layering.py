"""The library keeps its cross-checks in ``oracle``: no module of the package
but the command-line front end imports it."""

import ast
from pathlib import Path

import polyvar

PACKAGE = Path(polyvar.__file__).resolve().parent


def imported_modules(path: Path) -> set:
    """The ``polyvar`` modules that the source file ``path`` imports, by
    their name within the package."""
    def ours(name):
        return name == "polyvar" or name.startswith("polyvar.")

    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if ours(alias.name)]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not ours(base):
                continue
            base = base.removeprefix("polyvar").lstrip(".")
            # ``from . import oracle`` names the module among the imports
            names = [base] + [f"{base}.{a.name}" if base else a.name for a in node.names]
        else:
            continue
        for name in names:
            name = name.removeprefix("polyvar").lstrip(".")
            if name:
                found.add(name.split(".")[0])
    return found


def test_only_the_cli_imports_the_oracle():
    sources = sorted(PACKAGE.glob("*.py"))
    assert {p.stem for p in sources} >= {"cli", "invariance", "oracle", "relaxation"}
    importers = {p.stem for p in sources if "oracle" in imported_modules(p)}
    assert importers == {"cli"}


def test_the_check_sees_every_import_form(tmp_path):
    forms = [
        "from .oracle import grid_min",
        "from . import oracle",
        "from polyvar.oracle import grid_min",
        "import polyvar.oracle",
        "from polyvar import oracle",
    ]
    for form in forms:
        path = tmp_path / "m.py"
        path.write_text(form + "\n", encoding="utf-8")
        assert "oracle" in imported_modules(path), form
    path.write_text("from .relaxation import oracle_free\nimport numpy\n", encoding="utf-8")
    assert imported_modules(path) == {"relaxation"}
