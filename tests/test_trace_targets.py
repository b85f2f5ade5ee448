"""The benchmark's traced run patches catlin names by spelling; each must
exist.  ``perfbench/tracing.py`` imports only the standard library, so it is
loaded here by path, without the harness."""

import importlib
import importlib.util
from pathlib import Path

from catlin.exact import CRat
from catlin.poly import Poly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracing = _tracing()
    classes = {"Poly": Poly, "CRat": CRat}
    missing = []
    for _name, owner, attr in tracing.SPANS + tracing.COUNTS:
        if owner in classes:
            # the tracer wraps the class's own method, not an inherited one
            found = attr in vars(classes[owner])
        else:
            assert owner.startswith("catlin."), owner
            found = callable(getattr(importlib.import_module(owner), attr,
                                     None))
        if not found:
            missing.append(f"{owner}.{attr}")
    assert missing == []
