"""The names the benchmark wraps must exist in soqal.

perfbench/spans.py wraps each `(module, attribute)` of its TRACED list by
looking it up in the defining module's (or class's) own namespace, so a
renamed or deleted function would break `perfbench/run.py --trace 1`.
Every run, traced or not, also installs its SetupProbe, which wraps
`soqal.cli.run_experiment` and `soqal.engine.train_epoch` the same way.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def traced_entries():
    return load_spans().TRACED


@pytest.mark.parametrize("name,module,attr", traced_entries())
def test_traced_name_resolves(name, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    assert callable(vars(owner).get(attr)), f"{name}: {module}.{attr} is gone"


def test_setup_probe_wraps_and_restores_its_names():
    import soqal.cli
    import soqal.engine

    spans = load_spans()
    originals = soqal.cli.run_experiment, soqal.engine.train_epoch
    patches = spans.Patches()
    try:
        spans.SetupProbe(patches)
        assert soqal.cli.run_experiment is not originals[0]
        assert soqal.engine.train_epoch is not originals[1]
    finally:
        assert patches.restore()
    assert (soqal.cli.run_experiment, soqal.engine.train_epoch) == originals
