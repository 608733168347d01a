"""perfbench's tracer patches library functions at the module attributes
their callers look up (``perfbench/spans.py``).  ``Tracer.install`` reads
``owner.__dict__[attr]``, so a refactor that drops one of those names
would break a traced benchmark run; this test catches it in the suite."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_patch_site_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up while building Site
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = [
        f"{site.owner}.{site.attr}"
        for site in spans.ALL_SITES
        if site.attr not in spans.resolve_owner(site.owner).__dict__
    ]
    assert spans.ALL_SITES
    assert missing == []
