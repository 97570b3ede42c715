"""Every function the benchmark's tracer wraps by name still exists, and
its counters read what the package returns.

perfbench/traced_cli.py imports only the standard library at module level,
so it is loaded here by path; a name it lists that the package no longer
defines would otherwise show up only as "absent" in a traced benchmark run,
and a counter that fails only as a "count_errors" entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from factprimes import build_table

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,name", [
    (m, name) for m, names in _tracer_module().TRACED.items() for name in names])
def test_traced_name_is_callable(module_name, name):
    module = importlib.import_module(f"factprimes.{module_name}")
    if name.endswith("*"):
        assert [k for k, v in vars(module).items()
                if k.startswith(name[:-1]) and callable(v)], name
    else:
        assert callable(getattr(module, name, None)), name


def test_table_counter_reads_both_arrays():
    # the counter reads log_prefix, which a table builds on first use
    tracer_cli = _tracer_module()
    tracer = tracer_cli.Tracer()
    build = tracer.wrap("primes.build_table", build_table,
                        tracer_cli.COUNTERS["primes.build_table"])
    table = build(10_000)
    assert tracer.count_errors == []
    assert tracer.counts["primes.table.bytes"] == (
        table.primes.nbytes + table.log_prefix.nbytes) == 2 * 8 * 1229
