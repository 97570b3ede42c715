"""Every function the benchmark's tracer wraps by name still exists.

perfbench/traced_cli.py imports only the standard library at module level,
so it is loaded here by path; a name it lists that the package no longer
defines would otherwise show up only as "absent" in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def _traced():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name,name", [
    (m, name) for m, names in _traced().items() for name in names])
def test_traced_name_is_callable(module_name, name):
    module = importlib.import_module(f"factprimes.{module_name}")
    if name.endswith("*"):
        assert [k for k, v in vars(module).items()
                if k.startswith(name[:-1]) and callable(v)], name
    else:
        assert callable(getattr(module, name, None)), name
