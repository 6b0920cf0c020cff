"""The names the traced benchmark wraps must exist in soqal.

perfbench/spans.py wraps each `(module, attribute)` of its TRACED list by
looking it up in the defining module's (or class's) own namespace, so a
renamed or deleted function would break `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_entries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("name,module,attr", traced_entries())
def test_traced_name_resolves(name, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    assert callable(vars(owner).get(attr)), f"{name}: {module}.{attr} is gone"
