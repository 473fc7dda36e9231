"""The public names the benchmark's tracer and the README rely on.

``bench/tracer.py`` wraps the functions in its ``LAYERS`` by name and reads
the first argument of some of them by name, so a renamed function or
parameter fails the traced benchmark run at ``Tracer.install``. This test
catches that in the suite. The tracer is loaded from its file and only read.
"""
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import ecc

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_names_the_tracer_and_readme_use_resolve():
    tracer = _tracer()
    for module, names in tracer.LAYERS.items():
        home = importlib.import_module(f"ecc.{module}")
        for name in names:
            assert inspect.isfunction(getattr(home, name, None)), f"ecc.{module}.{name}"
    # _len_of_values and _size_of_path read these first parameters by name
    for module, name, first in [("tail", "select_k_mindist", "values"), ("tail", "select_k_ks", "values"),
                                ("curveio", "parse_curve_file", "path"), ("curveio", "write_curve_file", "path")]:
        fn = getattr(importlib.import_module(f"ecc.{module}"), name)
        assert next(iter(inspect.signature(fn).parameters)) == first, f"ecc.{module}.{name}"
    missing = [name for name in ecc.__all__ if not hasattr(ecc, name)]
    assert not missing
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("Key functions", 1)[1].split("\n\n")[1]
    listed = re.findall(r"`(\w+)`", table)
    assert len(listed) > 20
    assert [name for name in listed if name not in ecc.__all__] == []
