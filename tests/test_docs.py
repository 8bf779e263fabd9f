"""Code references in README and in the source docstrings name what the package has."""
from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pt4al"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
# `module.name`, `module.Class.attr` or `module.function(args)` for a module of the package.
REFERENCE = re.compile(rf"`({'|'.join(MODULES)})((?:\.\w+)+)[^`]*`")


def texts():
    """(where, text, parameter names of the function it documents) for README and every docstring."""
    yield "README.md", (ROOT / "README.md").read_text(encoding="utf-8"), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                args = getattr(node, "args", None)
                params = {a.arg for a in ast.walk(args) if isinstance(a, ast.arg)} if args else set()
                if doc:
                    yield f"{path.name}:{getattr(node, 'lineno', 1)}", doc, params


def test_code_references_resolve():
    checked, unresolved = 0, []
    for where, text, params in texts():
        for match in REFERENCE.finditer(text):
            module, path = match.group(1), match.group(2)
            # A file name such as `seeds.py`, or a parameter path such as `config.epochs`.
            if path == ".py" or module in params:
                continue
            target = importlib.import_module(f"pt4al.{module}")
            for name in path.split(".")[1:]:
                if not hasattr(target, name):
                    unresolved.append(f"{where}: `{module}{path}`")
                    break
                target = getattr(target, name)
            checked += 1
    assert checked >= 30
    assert not unresolved, unresolved


def test_cited_readme_sections_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    headings = {line.lstrip("#").strip() for line in readme.splitlines() if line.startswith("#")}
    # A section is cited as `see "Name"` in README and as `README, "Name"` in the source.
    sources = [("README.md", readme, r'see "([^"]+)"')]
    sources += [(path.name, path.read_text(encoding="utf-8"), r'README, "([^"]+)"') for path in sorted(SRC.glob("*.py"))]
    cited, missing = 0, []
    for where, text, citation in sources:
        # A name may wrap onto the next line, behind a comment's "#" in the source.
        for name in re.findall(citation, re.sub(r"\s*\n\s*(?:#\s*)?", " ", text)):
            cited += 1
            if name not in headings:
                missing.append(f"{where}: {name!r}")
    assert cited >= 10
    assert not missing, missing


def test_the_package_exports_exactly_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    package = importlib.import_module("pt4al")
    assert sorted(package.__all__) == sorted(imported | {"__version__"})
    assert len(set(package.__all__)) == len(package.__all__)
    assert all(hasattr(package, name) for name in package.__all__)
    assert {"LossArrays", "LossRecord"} <= imported
