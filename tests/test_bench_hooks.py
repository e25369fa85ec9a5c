"""The benchmark's tracer still finds every hk4 binding it wraps, and puts each one back.

``perfbench/tracing.py`` wraps hk4 functions by name from outside.  Deleting or
renaming one of those names breaks ``perfbench/run.py --trace 1``; this test
makes that a tier-1 failure.
"""

import importlib.util
import sys
from pathlib import Path

import hk4.classifier
import hk4.cli
import hk4.fujiki
import hk4.h4
import hk4.lattices
import hk4.ledger
import hk4.rationals
import hk4.report

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every global of every loaded hk4 module, the certificate table and the patched methods."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if (name == "hk4" or name.startswith("hk4.")) and mod is not None:
            snap.update({(name, attr): value for attr, value in vars(mod).items()})
    snap.update({("CERTIFICATES", k): v for k, v in hk4.cli.CERTIFICATES.items()})
    snap[("RatPoly", "__call__")] = vars(hk4.rationals.RatPoly)["__call__"]
    snap[("QuadLattice", "from_json")] = vars(hk4.lattices.QuadLattice)["from_json"]
    return snap


def test_install_wraps_every_traced_name_and_uninstall_restores_all():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings()
        for short, names in tracing.SPANS.items():
            for fname in names:
                key = (f"hk4.{short}", fname)
                assert key in before, f"perfbench traces hk4.{short}.{fname}, which is gone"
                assert during[key] is not before[key], key
        for cert_id in hk4.cli.CERTIFICATES:
            assert during[("CERTIFICATES", cert_id)] is not before[("CERTIFICATES", cert_id)]
        assert isinstance(during[("QuadLattice", "from_json")], staticmethod)
        assert during[("RatPoly", "__call__")] is not before[("RatPoly", "__call__")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
