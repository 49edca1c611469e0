"""Every program name the docs cite resolves: backticked names in the
package's docstrings (double backticks) and in README.md (single backticks).
A ``module.attr`` on one of the package's modules must exist, and a
``_private`` name must be defined in some module of the package, so a
rename or a deletion cannot leave a stale citation behind."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import centro_spectra

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "centro_spectra").glob("*.py"))
MODULES = {name: importlib.import_module(f"centro_spectra.{name}")
           for name in ("cli", "eigen", "harness", "linalg", "moments", "reduction", "sampling")}


def _cited():
    """(where, dotted name) of every backticked name in the docs."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for text in re.findall(r"``([^`]+)``", ast.get_docstring(node) or ""):
                    yield path.name, text
    for text in re.findall(r"(?<!`)`([^`\n]+)`(?!`)", (ROOT / "README.md").read_text()):
        yield "README.md", text


def _checked_names():
    """The cited names this test checks: module.attr and _private."""
    names = set()
    for where, text in _cited():
        name = re.match(r"[A-Za-z_][\w.]*", text.removeprefix("centro_spectra."))
        if name is None:
            continue
        head, _, rest = name.group(0).rstrip(".").partition(".")
        if (head in MODULES and rest) or head.startswith("_"):
            names.add((where, name.group(0).rstrip(".")))
    return sorted(names)


CHECKED = _checked_names()


def test_the_docs_cite_module_and_private_names():
    assert sum(where == "README.md" for where, _ in CHECKED) >= 5
    assert sum(where != "README.md" for where, _ in CHECKED) >= 10


@pytest.mark.parametrize("where, name", CHECKED, ids=[f"{w}:{n}" for w, n in CHECKED])
def test_every_cited_name_resolves(where, name):
    head, _, rest = name.partition(".")
    if head in MODULES:
        obj = MODULES[head]
        for part in rest.split("."):
            assert hasattr(obj, part), f"{where} cites {name}, which does not exist"
            obj = getattr(obj, part)
    else:
        defined = [m for m in (centro_spectra, *MODULES.values()) if hasattr(m, head)]
        assert defined, f"{where} cites {name}, which no module of the package defines"
