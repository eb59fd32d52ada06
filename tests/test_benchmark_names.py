"""The package names the benchmark under perfbench/ reaches for.

perfbench/tracer.py wraps every entry point its LAYERS table lists, and
perfbench/child.py reads a few module attributes for its run record. A
change that deletes or renames one of them fails here, in the tier-1
suite, rather than first in a benchmark run. LAYERS is read from the
source with ast.literal_eval, since importing tracer.py needs numpy.
"""

import ast
import importlib
from pathlib import Path

import pytest

import ghw
from ghw import _kernels

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_names_exist(layer):
    module, names = LAYERS[layer]
    mod = importlib.import_module(module)
    missing = [name for name in names if not callable(getattr(mod, name, None))]
    assert not missing, f"{layer}: {module} lacks {missing}"


def test_run_record_names_exist():
    assert isinstance(_kernels.active_backend(), str)
    assert isinstance(_kernels.HAS_NUMBA, bool)
    assert isinstance(ghw.__version__, str)
