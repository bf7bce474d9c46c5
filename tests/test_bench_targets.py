"""The benchmark reaches library names by module and attribute.

perfbench/tracing.py is loaded read-only from its file, and the imports of
every perfbench/*.py file are read with ast; every name the tracer would
patch or a benchmark file imports must still exist, or a benchmark run
breaks while the library's own tests stay green.
"""

import ast
import importlib
import importlib.util
import pathlib

from palindromics import analysis, generators

from conftest import naive_pal_set

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


def test_package_exports_resolve():
    import palindromics

    missing = [name for name in palindromics.__all__ if not hasattr(palindromics, name)]
    assert not missing


def _perfbench_imports():
    """(module, name) for each palindromics import in perfbench/*.py; name is
    None for a plain ``import palindromics...``. The files are parsed, not run."""
    for path in sorted(TRACING.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "palindromics"
            ):
                for alias in node.names:
                    yield node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "palindromics":
                        yield alias.name, None


def test_perfbench_imports_resolve():
    found = list(_perfbench_imports())
    assert ("palindromics.generators", "resolve_generator") in found
    for module, name in found:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            # ``from package import submodule`` imports the submodule.
            importlib.import_module(f"{module}.{name}")


def test_report_wrapper_counts_the_listed_characters():
    # The tracer's report wrapper reads report.palindromes after each call;
    # its character count must be that of the report's own palindromes.
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    wrapped_pal_set = tracing._report(tracer, "analysis.pal_set", analysis.pal_set)
    wrapped_stabilized = tracing._report(
        tracer, "analysis.stabilized_pal_set", analysis.stabilized_pal_set
    )
    reports = [
        wrapped_pal_set("aaababaabaaa"),
        wrapped_stabilized(generators.resolve_generator("fib-bc")),
    ]
    expected = sum(
        len(p) for report in reports for p in naive_pal_set(report.tree.text)
    )
    assert tracer.counts["analysis.report_chars"] == expected
    total, _ = tracer.totals()
    assert set(total) == {"analysis.pal_set", "analysis.stabilized_pal_set"}
