"""The pytest configuration shows a failing property test's falsifying
example, rather than ending the run in an INTERNALERROR while reporting it;
the single-point commands import no numpy module lazily; no file that
.gitignore excludes (a build or test artifact) is tracked."""

import os
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
