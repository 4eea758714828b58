"""The benchmark in ropbench/ reaches into ropforge by name: every layer it
patches and every name it imports must exist, or a traced run only reports
the layer as absent."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "ropbench"


def _tracing():
    # tracing.py needs only the standard library; load it without ropbench's sys.path
    spec = importlib.util.spec_from_file_location("ropbench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _ropforge_imports():
    """(file, module, name) for every ropforge import in ropbench/*.py; name is
    None for a plain ``import ropforge.x``."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ropforge":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "ropforge":
                        yield path.name, alias.name, None


def test_patch_points_resolve_to_callables():
    points = _tracing().PATCH_POINTS
    assert points
    for module_name, attr, _, _ in points:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_benchmark_imports_from_ropforge_exist():
    imports = list(_ropforge_imports())
    assert {filename for filename, _, _ in imports} >= {"inputs.py", "reference.py", "run.py"}
    for filename, module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None:
            continue
        found = hasattr(module, name) or importlib.util.find_spec(f"{module_name}.{name}")
        assert found, f"{filename}: from {module_name} import {name}"


def test_names_the_benchmark_reads_through_getattr_exist():
    """run.py reads these with a default, so a missing one turns the
    terminator metrics into zeros instead of failing the import check."""
    from ropforge import gadgets, kernels

    assert callable(getattr(kernels, "scan_free_branches", None))
    assert type(getattr(gadgets, "DEFAULT_WINDOW_BACK", None)) is int
