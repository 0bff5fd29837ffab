"""The traced benchmark wraps qsymlie functions by name; every name must resolve."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    # Read the literal without importing the module.
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TARGETS")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for module, names in targets.items():
        mod = importlib.import_module(f"qsymlie.{module}")
        for qualname in names:
            owner = mod
            for part in qualname.split("."):
                assert hasattr(owner, part), f"qsymlie.{module}.{qualname} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"qsymlie.{module}.{qualname} is not callable"
