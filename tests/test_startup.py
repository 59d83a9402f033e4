"""What a fresh process loads: numpy only once a command computes on
arrays, jsonschema never.  Each test runs its commands in a new
interpreter, since the test process itself has numpy loaded."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from g2rigid.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAYERS = sorted(f"g2rigid.{p.stem}" for p in (SRC / "g2rigid").glob("*.py")
                if p.stem != "__init__")

# run the commands given as JSON in argv[1], then print each report and
# the names of the loaded modules
RUNNER = """
import contextlib, io, json, sys
from g2rigid.cli import main
reports = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    reports.append(json.loads(out.getvalue()))
print(json.dumps({"reports": reports,
                  "modules": sorted(sys.modules)}))
"""


def _python(code, *args):
    """stdout of ``code``, run in a new interpreter on these sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


def _fresh(commands):
    return json.loads(_python(RUNNER, json.dumps(commands)))


def _strip(report):
    report = dict(report, config=dict(report["config"]))
    report.pop("duration_s")
    report["config"].pop("workers", None)
    return report


def test_import_loads_every_layer_and_neither_numpy_nor_jsonschema():
    modules = set(_fresh([])["modules"])
    assert set(LAYERS) <= modules
    assert "numpy" not in modules and "jsonschema" not in modules


WARM = [["triple"], ["certify", "--ell", "7,11"],
        ["hmodule", "--ellprime", "29"],
        ["sl2", "--ell", "17", "--power", "6"],
        ["count", "--q", "3", "--s", "2", "--kmax", "3"]]


def test_warm_commands_leave_numpy_unloaded(capsys, tmp_path):
    argvs = [argv + ["--cache-dir", str(tmp_path)] for argv in WARM]
    cold = []
    for argv in argvs:
        main(argv)
        cold.append(json.loads(capsys.readouterr().out))
    warm = _fresh(argvs)
    assert "numpy" not in warm["modules"]
    assert [_strip(r) for r in warm["reports"]] == [_strip(r) for r in cold]


ZETA = ["zeta", "--q", "3", "--s", "2", "--kmax", "8"]


@pytest.mark.parametrize("first", [ZETA, ["count"] + ZETA[1:]],
                         ids=["warm-zeta", "zeta-after-count"])
def test_zeta_on_cached_terms_leaves_numpy_unloaded(capsys, tmp_path, first):
    """Once its terms are cached, by an earlier zeta or by count, a zeta
    in a fresh process finds its roots without numpy; its report is the
    in-process one."""
    cache = ["--cache-dir", str(tmp_path)]
    main(first + cache)
    capsys.readouterr()
    fresh = _fresh([ZETA + cache])
    main(ZETA + cache)
    report = json.loads(capsys.readouterr().out)
    assert "numpy" not in fresh["modules"]
    assert _strip(fresh["reports"][0]) == _strip(report)


def test_cold_count_first_uses_numpy_on_worker_threads(tmp_path):
    """In its own fresh process, a cold count with four workers first
    touches numpy on the worker threads; its report is the one-worker
    report."""
    argv = ["count", "--q", "3", "--s", "2", "--kmax", "6"]
    many, one = (_fresh([argv + ["--workers", w, "--cache-dir",
                                 str(tmp_path / w)]])["reports"][0]
                 for w in ("4", "1"))
    assert _strip(many) == _strip(one) and one["passed"]


STRESS = """
import sys, threading
from g2rigid.modlinalg import np
names = ["arange", "zeros", "int64", "eye", "concatenate", "linalg"]
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
got = []
def read():
    barrier.wait()
    got.append([getattr(np, n) for n in names])
threads = [threading.Thread(target=read) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
import numpy
print(not any(t.is_alive() for t in threads) and len(got) == 8
      and all(a is getattr(numpy, n) for g in got for a, n in zip(g, names)))
"""


def test_first_numpy_use_on_many_threads_at_once():
    """Eight threads, more than the cores, read numpy through
    ``modlinalg.np`` at the same moment with a short switch interval; each
    gets numpy's own attributes."""
    assert _python(STRESS).strip() == "True"
