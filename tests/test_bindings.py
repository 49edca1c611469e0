"""The benchmark's tracer (perfbench/worker.py) records layer spans by
replacing program functions at (module, attribute) targets.  A target that
is gone, no longer called from its module or whose signature no longer
fits its tag function would break a traced benchmark run; these tests make
it fail here instead.  worker.py is read as source, not imported."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
TARGET_TABLES = ("ENGINES", "TRIAL_TARGETS", "MOMENT_TARGETS")


def _targets():
    """(module name, attribute, tag lambda or None) of every target, once."""
    targets = {}
    for node in ast.parse(WORKER.read_text()).body:
        if not (isinstance(node, ast.Assign) and node.targets[0].id in TARGET_TABLES):
            continue
        for item in ast.walk(node.value):
            if isinstance(item, ast.Tuple) and isinstance(item.elts[0], ast.Name):
                module, attr, _, *tag = item.elts
                targets[module.id, attr.value] = tag[0] if tag else None
    return [(module, attr, tag) for (module, attr), tag in targets.items()]


TARGETS = _targets()


def test_worker_declares_the_tagged_targets():
    assert len(TARGETS) > 20
    tagged = {attr for _, attr, tag in TARGETS if tag is not None}
    assert tagged == {"_matching_exact", "_sample_batch"}


@pytest.mark.parametrize("module_name, attr, tag", TARGETS,
                         ids=[f"{m}.{a}" for m, a, _ in TARGETS])
def test_every_traced_binding_exists_and_is_called_from_its_module(module_name, attr, tag):
    module = importlib.import_module(f"centro_spectra.{module_name}")
    fn = getattr(module, attr)
    assert callable(fn)
    loads = {node.id for node in ast.walk(ast.parse(inspect.getsource(module)))
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert attr in loads, f"{module_name} binds {attr} but never calls it"
    if tag is not None:  # the tag function gets the call's own arguments
        assert list(inspect.signature(fn).parameters) == [a.arg for a in tag.args.args]
