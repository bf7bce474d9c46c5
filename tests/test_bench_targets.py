"""The benchmark's tracer patches library names by module and attribute.

perfbench/tracing.py is loaded read-only from its file; every name it would
patch must still exist, or a traced benchmark run breaks while the library's
own tests stay green.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    assert tracing._TARGETS
    for mod_name, attr, _ in tracing._TARGETS:
        assert hasattr(importlib.import_module(mod_name), attr), (mod_name, attr)
    from palindromics.streams import PrefixStream

    assert callable(PrefixStream.prefix_text)
