"""The public names and the library surface that the benchmark harness
reads: a name removed from either fails here, not only in the harness."""

import importlib
from pathlib import Path

import niho_perm
from niho_perm.field import make_field
from niho_perm.transforms import PAIR_TABLE
from niho_perm.trinomials import FAMILY_CATALOG
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
        else:
            assert {"pre", "num", "den"} <= set(spec), name


def test_catalog_shapes():
    # the fields that probe.catalog_expressions reads
    for fid, (parity, terms, conjectural) in FAMILY_CATALOG.items():
        assert parity in ("any", "odd", "even") and len(terms) == 3, fid
        assert isinstance(conjectural, bool), fid
    for row in PAIR_TABLE:
        assert row.condition in ("any", "odd", "even"), row.index
        for raw in (row.pair, *row.equivalents):
            assert [type(e) for _, e in raw] == [str, str], row.index


def test_probed_catalog_expressions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    exprs = importlib.import_module("probe").catalog_expressions()
    assert exprs and all(isinstance(e, str) for e, _ in exprs)
