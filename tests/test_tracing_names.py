"""Every function the benchmark tracer wraps still exists in `polyadic`.

`perfbench/tracing.py` names its spans and counters as (module,
attribute) pairs, an attribute `Class.method` for a method, and patches
them when installed. A renamed or deleted function would otherwise show
only when the benchmark runs. The file is read here, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [entry[:2] for entry in tracing.SPANS + tracing.COUNTERS]


def test_traced_names_resolve():
    names = traced_names()
    assert any("." in attr for _, attr in names)
    for mod, attr in names:
        owner = importlib.import_module(f"polyadic.{mod}")
        if "." in attr:
            # the tracer reads a method from its class's own namespace
            cls, meth = attr.split(".")
            owner = getattr(owner, cls)
            assert meth in vars(owner), (mod, attr)
            attr = meth
        assert callable(getattr(owner, attr, None)), (mod, attr)
