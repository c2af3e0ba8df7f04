"""The benchmark's traced layers against the library: perfbench/spans.py
looks up each (module, attribute) of its LAYERS with a bare getattr when
a traced run installs its spans, so a library name that leaves crashes
every traced benchmark run.  The file is read, never imported, so no
bytecode is written beside it."""

import importlib
import pathlib
import types

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_resolves():
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans.__dict__)
    assert spans.LAYERS
    for _, module, attribute in spans.LAYERS:
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attribute)
