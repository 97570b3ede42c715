"""The pytest configuration shows a failing property test's falsifying
example, rather than ending the run in an INTERNALERROR while reporting it;
the single-point commands import no numpy module lazily, and only a run
that writes rows imports the row writer; the program entry,
and only it, freezes the collector; no file that .gitignore excludes (a
build or test artifact) is tracked; README's CLI examples still parse and
run, and its library example runs to the values its comments state."""

import ast
import gc
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_no_ignored_file_is_tracked():
    root = PYPROJECT.parent
    if shutil.which("git") is None or not (root / ".git").exists():
        pytest.skip("not a git checkout")
    run = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"], cwd=root,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == ""


def test_failing_property_test_shows_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_never(n):\n"
        "    assert n < 10\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def test_single_point_commands_load_no_numpy_ma(tmp_path):
    # numpy imports numpy.ma on first use of some functions (np.unique
    # does), at about 1 MB of peak and 15 ms a run; checked in a fresh
    # process, since this one may have imported it already
    probe = (
        "import sys\n"
        "from factprimes import cli\n"
        "for argv in (['verify', 'T1', '--from', '3', '--to', '100000', '--log-samples', '30'],\n"
        "             ['perfecter', '100000'], ['decompose', '100000', '--format', 'json']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
    run = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_only_writing_rows_loads_the_row_writer(tmp_path):
    # neither the package nor the CLI module imports factprimes.rows, nor
    # does a verify without --out; checked in a fresh process
    probe = (
        "import sys\n"
        "import factprimes, factprimes.cli\n"
        "loaded = ['factprimes.rows' in sys.modules]\n"
        "assert factprimes.cli.main(['verify', 'T2', '--from', '3', '--to', '3000']) == 0\n"
        "loaded.append('factprimes.rows' in sys.modules)\n"
        "assert factprimes.cli.main(['verify', 'T2', '--from', '3', '--to', '3000',\n"
        "                            '--out', 'rows.csv']) == 0\n"
        "loaded.append('factprimes.rows' in sys.modules)\n"
        "print(loaded)\n")
    env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
    run = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[False, False, True]"


@pytest.mark.parametrize("entry", [
    "runpy.run_module('factprimes.cli', run_name='__main__')",  # python -m factprimes.cli
    "from factprimes.cli import main\nsys.exit(main())",  # the factprimes script
], ids=["python_m", "script"])
def test_program_entry_freezes_the_collector(tmp_path, entry):
    # exit then skips a collection over every object numpy and the package
    # made; checked in a fresh process, at exit
    probe = ("import atexit, gc, runpy, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
             "sys.argv = ['factprimes', 'verify', 'T1', '--from', '3', '--to', '1000']\n"
             + entry + "\n")
    env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
    run = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "frozen True"


def test_main_with_arguments_leaves_the_collector_alone(capsys):
    from factprimes import cli
    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["verify", "T1", "--from", "3", "--to", "1000"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every factprimes line of README's sh blocks parses, then runs in
    # tmp_path to exit 0 under the default sieve cap: an example that shows
    # a command or flag the CLI no longer has, or a request it refuses,
    # fails; each --out file holds its header and at least one row
    from factprimes import cli
    readme = (PYPROJECT.parent / "README.md").read_text()
    examples = [shlex.split(line)[1:]
                for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.splitlines() if line.startswith("factprimes ")]
    assert len(examples) >= 5
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.MAX_SIEVE_ENV, raising=False)
    parser = cli.build_parser()
    for argv in examples:
        example = f"factprimes {shlex.join(argv)}"
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {example}")
        assert cli.main(argv) == 0, f"{example}: {capsys.readouterr().err}"
        if "--out" in argv:
            lines = (tmp_path / argv[argv.index("--out") + 1]).read_text().splitlines()
            assert lines[0] in (cli.CSV_HEADER, cli.SCAN_HEADER), example
            assert len(lines) >= 2, example


def test_readme_library_example_runs():
    # the python block under "## Library", one statement at a time, keeping
    # the value of each expression by its source text
    readme = (PYPROJECT.parent / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    scope, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node)] = eval(code, scope)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    assert repr(values["fp.legendre_valuation(10, 2)"]) == "Valuation(p=2, n=10, v=8, m=3)"
    assert repr(values["fp.odd_exponent_primes(table, 5)"]) == "array([2, 3, 5])"
    perfecter = values["fp.perfecter_factorial(table, 5)"]
    assert (perfecter.count, perfecter.exact_value) == (3, 30)
    assert math.isclose(perfecter.log_value, math.log(30))
