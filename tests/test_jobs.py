"""verify and scan with --jobs N: a range cut into chunks, all but the first
swept by forked workers, gives the output of the run in one process byte
for byte, and no worker outlives its run, failing or not.

The chunk sizes are patched small here, so that short ranges split."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from factprimes import bounds, cli

SRC = Path(cli.__file__).resolve().parents[1]
IDS = tuple(b.alias or b.id for b in bounds.BOUNDS.values())

pytestmark = pytest.mark.skipif(not cli._CAN_SPLIT, reason="no workers on this platform")


@pytest.fixture
def forks(monkeypatch):
    """Small chunks, and the list of forks made by this process."""
    monkeypatch.setattr(cli, "MIN_CHUNK_POINTS", 256)
    monkeypatch.setattr(cli, "MIN_CHUNK_ROWS", 64)
    made, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    return made


def run(capsys, forks, argv, jobs):
    """(exit code, stdout, stderr, --out bytes, forks made) of one run."""
    del forks[:]
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    code = cli.main(argv + ["--jobs", str(jobs)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out and out.read_bytes(), len(forks)


@pytest.mark.parametrize("rows", [True, False], ids=["out", "no_out"])
@pytest.mark.parametrize("theorem", IDS)
def test_verify_is_the_same_at_every_jobs(capsys, tmp_path, forks, theorem, rows):
    argv = ["verify", theorem, "--from", "2", "--to", "3000"]
    runs = [run(capsys, forks, argv + ["--out", str(tmp_path / f"{jobs}.csv")] * rows, jobs)
            for jobs in (1, 2, 3)]
    assert [r[:4] for r in runs[1:]] == [runs[0][:4]] * 2
    # --jobs 1 never forks; a split run forks one worker per chunk after the first
    assert [r[4] for r in runs] == [0, 1, 2]


@pytest.mark.parametrize("rhs, line", [
    # pi(n) <= n/log n fails from 1491 on here: at --jobs 2 the cut is at
    # 1501, so the first MAX_SHOWN violations come from both chunks
    (lambda n, c: np.where(n < 1491, np.inf, n / np.log(n)),
     "VIOLATIONS at 1510 point(s): " + ", ".join(map(str, range(1491, 1511))) + ", ..."),
    # a slack of 1e30 at every point: the first of the tied minima wins
    (lambda n, c: np.full_like(n, 1e30), "all hold; min slack 1e+30 at n=2"),
], ids=["violations_across_a_cut", "tied_minimum"])
def test_merged_summary(capsys, tmp_path, forks, monkeypatch, rhs, line):
    monkeypatch.setitem(bounds.BOUNDS, "PI_UB", bounds.BOUNDS["PI_UB"]._replace(rhs=rhs))
    argv = ["verify", "PI_UB", "--from", "2", "--to", "3000"]
    runs = [run(capsys, forks, argv + ["--out", str(tmp_path / f"{jobs}.csv")], jobs)
            for jobs in (1, 2, 3)]
    assert runs[0][1].splitlines()[1] == line
    assert [r[:4] for r in runs[1:]] == [runs[0][:4]] * 2
    assert cli._chunks(2, 3000, 1, 2, cli.MIN_CHUNK_ROWS) == [(2, 1500), (1501, 3000)]


@pytest.mark.parametrize("step", [1, 7])
def test_scan_is_the_same_at_every_jobs(capsys, tmp_path, forks, step):
    argv = ["scan", "--from", "2", "--to", "20000", "--step", str(step)]
    runs = [run(capsys, forks, argv + ["--out", str(tmp_path / "scan.csv")], jobs)
            for jobs in (1, 2, 4)]
    # scan names its --out file on stdout; it is the same file in every run
    assert [r[:4] for r in runs[1:]] == [runs[0][:4]] * 2
    assert [r[4] for r in runs] == [0, 1, 3]


def test_chunks_cover_the_points_in_order():
    cuts = cli._chunks(5, 1000, 3, 4, 10)
    assert len(cuts) == 4 and cuts[0][0] == 5
    points = [n for a, b in cuts for n in range(a, b + 1, 3)]
    assert points == list(range(5, 1001, 3))
    # chunks of fewer than size points are not made
    assert cli._chunks(5, 1000, 3, 4, 200) == [(5, 1000)]
    assert cli._chunks(5, 1000, 3, 1, 1) == [(5, 1000)]


def test_rows_split_from_two_chunks_of_2_to_the_15(monkeypatch):
    # a 50k-row --out range costs as much split as not, so it stays whole;
    # a 100k-row one gains from --jobs 2
    monkeypatch.setattr(cli, "_CAN_SPLIT", True)
    assert cli._chunks(3, 50_100, 1, 2, cli.MIN_CHUNK_ROWS) == [(3, 50_100)]
    assert cli._chunks(3, 100_100, 1, 2, cli.MIN_CHUNK_ROWS) == [(3, 50_051), (50_052, 100_100)]


# ------------------------------------------------------ in a process of its own

def probe(tmp_path, script, marker="", timeout=120):
    env = dict(os.environ, PYTHONPATH=str(SRC), FACTPRIMES_PROBE=marker)
    return subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=timeout)


def running(pid) -> bool:
    """Whether the process pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def processes_marked(marker: str) -> list[int]:
    """The running processes whose environment holds FACTPRIMES_PROBE=marker."""
    tag = f"FACTPRIMES_PROBE={marker}".encode()
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/environ", "rb") as fh:
                if tag in fh.read().split(b"\0") and running(pid):
                    found.append(int(pid))
        except OSError:
            pass
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_a_split_run_leaves_no_process(tmp_path):
    marker = f"split-{os.getpid()}"
    argv = ["verify", "T2", "--from", "3", "--to", str(3 * cli.MIN_CHUNK_ROWS),
            "--out", "f.csv", "--jobs", "2"]
    done = probe(tmp_path, f"import runpy, sys\nsys.argv = ['factprimes', *{argv!r}]\n"
                           "runpy.run_module('factprimes.cli', run_name='__main__')\n", marker)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("T2_upper_mean [3..")
    assert processes_marked(marker) == []


# the package with small chunks, and summarize_reports patched: a worker
# exits 1 when ACT is "fail", and else sleeps; this process, once both
# workers sleep, interrupts itself when ACT is "wait" and kills itself when
# it is "kill"
PATCHED = """
import os, signal, sys, time
from factprimes import bounds, cli
cli.MIN_CHUNK_ROWS = cli.MIN_CHUNK_POINTS = 64
parent, reduce = os.getpid(), bounds.summarize_reports

def patched(*args):
    if os.getpid() != parent:
        if ACT == "fail":
            os._exit(1)
        open(f"worker-{os.getpid()}", "w").close()
        time.sleep(60)
    elif ACT != "fail":
        while len([f for f in os.listdir() if f.startswith("worker-")]) < 2:
            time.sleep(0.01)
        os.kill(parent, signal.SIGINT if ACT == "wait" else signal.SIGKILL)
        time.sleep(60)
    return reduce(*args)

bounds.summarize_reports = patched
argv = ["verify", "T2", "--from", "3", "--to", "3000", "--out", "f.csv", "--jobs", "3"]
"""


def test_a_failed_worker_is_a_resource_error(tmp_path):
    done = probe(tmp_path, "ACT = 'fail'\n" + PATCHED + "sys.exit(cli.main(argv))\n")
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("worker failed: n in [") and line.endswith("]: exit status 1")
    # the workers' files were unlinked when made: only --out is left
    assert os.listdir(tmp_path) == ["f.csv"]


def test_an_interrupt_kills_and_reaps_the_workers(tmp_path):
    done = probe(tmp_path, "ACT = 'wait'\n" + PATCHED + """
try:
    cli.main(argv)
except KeyboardInterrupt:
    pids = [int(f.split("-")[1]) for f in os.listdir() if f.startswith("worker-")]
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child is left")
    except ChildProcessError:
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
                alive.append(pid)
            except ProcessLookupError:
                pass
        print("reaped", len(pids), "alive", alive)
""", timeout=50)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "reaped 2 alive []\n"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_workers_die_with_a_killed_parent(tmp_path):
    done = probe(tmp_path, "ACT = 'kill'\n" + PATCHED + "cli.main(argv)\n", timeout=50)
    assert done.returncode == -9, done.stderr
    pids = [int(f.split("-")[1]) for f in os.listdir(tmp_path) if f.startswith("worker-")]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(running, pids))
