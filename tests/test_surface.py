"""The public names and the library surface that the benchmark harness
reads: a name removed from either fails here, not only in the harness."""

import importlib
from pathlib import Path

import niho_perm
from niho_perm.field import make_field
from niho_perm.unity import MAP_SPECS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_public_name_imports():
    namespace = {}
    exec("from niho_perm import *", namespace)
    assert set(niho_perm.__all__) <= set(namespace)


def test_benchmark_modules_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in ("workloads", "probe"):
        importlib.import_module(module)


def test_probed_kernel_ops():
    kernel = make_field(8).kernel
    for op in ("from_index", "mul", "add", "pow", "bmul", "badd"):
        assert callable(getattr(kernel, op)), op


def test_map_specs_shape():
    for name, spec in MAP_SPECS.items():
        assert "parity" in spec, name
        if spec["kind"] == "power":
            assert "h" in spec, name
