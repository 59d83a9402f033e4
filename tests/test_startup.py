"""What a fresh process loads and executes: numpy only once a command
computes on arrays, jsonschema never, and of the layer modules, which
``cli`` registers lazily, only those a command reads.  Each test runs its
commands in a new interpreter, since the test process itself has numpy
and every layer loaded.  A ``python -m g2rigid.cli`` process gives the
in-process report and exit code, and freezes its heap only on the way
out."""

import contextlib
import gc
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from g2rigid import cli
from g2rigid.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAYERS = sorted(f"g2rigid.{p.stem}" for p in (SRC / "g2rigid").glob("*.py")
                if p.stem != "__init__")

# run the commands given as JSON in argv[1], then print each report, the
# names of the loaded modules, those that importing g2rigid.cli loaded,
# those that the import and the commands loaded, the g2rigid modules whose
# body has executed (a lazily registered module is of a subclass of
# ModuleType until then) and the threads started
RUNNER = """
import contextlib, io, json, sys, threading, types
started = []
_start = threading.Thread.start
def _counted_start(self):
    started.append(self.name)
    _start(self)
threading.Thread.start = _counted_start
before = set(sys.modules)
from g2rigid.cli import main
imported = sorted(set(sys.modules) - before)
reports = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    reports.append(json.loads(out.getvalue()))
print(json.dumps({"reports": reports,
                  "modules": sorted(sys.modules), "imported": imported,
                  "loaded": sorted(set(sys.modules) - before),
                  "executed": sorted(
                      n for n, m in sys.modules.items()
                      if n.startswith("g2rigid.")
                      and type(m) is types.ModuleType),
                  "threads": started}))
"""


def _env(*paths):
    """The environment with ``paths`` and these sources first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (*paths, str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _python(code, *args):
    """stdout of ``code``, run in a new interpreter on these sources."""
    return subprocess.run([sys.executable, "-c", code, *args], env=_env(),
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


def _fresh(commands):
    return json.loads(_python(RUNNER, json.dumps(commands)))


def _strip(report):
    report = dict(report, config=dict(report["config"]))
    report.pop("duration_s")
    report["config"].pop("workers", None)
    return report


# what a layer's body would import; none of it is needed to parse the
# arguments or to serve a report from the cache
LAYER_IMPORTS = ("dataclasses", "fractions", "concurrent.futures",
                 "tempfile")
EAGER = ["g2rigid.cache", "g2rigid.cli", "g2rigid.errors"]


def test_import_loads_every_layer_and_neither_numpy_nor_jsonschema():
    """Every layer is registered in sys.modules, and none but cache and
    errors has executed."""
    fresh = _fresh([])
    modules = set(fresh["modules"])
    assert set(LAYERS) <= modules
    assert "numpy" not in modules and "jsonschema" not in modules
    assert fresh["executed"] == EAGER
    assert set(LAYER_IMPORTS).isdisjoint(fresh["imported"])


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


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache filled by the WARM commands and ZETA, and their reports."""
    cache = ["--cache-dir", str(tmp_path_factory.mktemp("warm"))]
    cold = {}
    for argv in WARM + [ZETA]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv + cache)
        cold[argv[0]] = json.loads(out.getvalue())
    return cache, cold


# the layers, besides cache and errors, a warm command may execute: only
# zeta computes on its cached terms; triple and certify key their records
# by the pinned recipe lines, which the package itself defines
WARM_LAYERS = {"hmodule": set(), "sl2": set(), "count": set(),
               "zeta": {"g2rigid.zeta"}, "triple": set(), "certify": set()}
# the layers, besides cache and errors, a cold command executes: hmodule
# and sl2 compute on the F_p backend only, triple and certify replay the
# recipe over Q, and count does not execute zeta
FP_LAYERS = {"g2rigid.finitegroups", "g2rigid.modlinalg", "g2rigid.rings"}
Q_LAYERS = {"g2rigid.convolution", "g2rigid.g2forms", "g2rigid.matrix",
            "g2rigid.modlinalg", "g2rigid.rings"}
COLD_LAYERS = {"hmodule": FP_LAYERS, "sl2": FP_LAYERS, "triple": Q_LAYERS,
               "certify": Q_LAYERS,
               "count": {"g2rigid.counting", "g2rigid.modlinalg",
                         "g2rigid.rings"}}


@pytest.mark.parametrize("argv", WARM + [ZETA], ids=lambda argv: argv[0])
def test_warm_command_executes_only_the_layers_it_reads(warm_cache, argv):
    """Served from the cache in a fresh process, a command executes no
    layer it does not call and starts no thread, and one that calls no
    layer imports nothing a layer would; its report is the cold one."""
    cache, cold = warm_cache
    fresh = _fresh([argv + cache])
    assert _strip(fresh["reports"][0]) == _strip(cold[argv[0]])
    assert set(fresh["executed"]) - set(EAGER) <= WARM_LAYERS[argv[0]]
    assert fresh["threads"] == []
    assert not {"numpy", "concurrent.futures"} & set(fresh["modules"])
    if not WARM_LAYERS[argv[0]]:
        assert set(LAYER_IMPORTS).isdisjoint(fresh["loaded"])


@pytest.mark.parametrize("argv", WARM, ids=lambda argv: argv[0])
def test_cold_command_executes_only_the_layers_it_computes_with(tmp_path,
                                                                argv):
    """On an empty cache in a fresh process, hmodule and sl2 execute none
    of g2forms, convolution and matrix, count does not execute zeta, and
    triple, which computes over Q on ``Matrix``, loads no numpy.  None
    loads ``numpy.ma``."""
    fresh = _fresh([argv + ["--cache-dir", str(tmp_path)]])
    assert fresh["reports"][0]["command"] == argv[0]
    assert set(fresh["executed"]) - set(EAGER) == COLD_LAYERS[argv[0]]
    assert "numpy.ma" not in fresh["modules"]
    if argv[0] == "triple":
        assert "numpy" not in fresh["modules"]


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


def test_cold_one_term_count_starts_no_thread(tmp_path):
    """A cold count of one term asks for four workers but has one term to
    compute, so in its fresh process it starts no thread and imports no
    ``concurrent.futures``; its report is the one-worker report."""
    argv = ["count", "--q", "3", "--s", "2", "--kmax", "1"]
    many, one = (_fresh([argv + ["--workers", w, "--cache-dir",
                                 str(tmp_path / w)]]) for w in ("4", "1"))
    assert many["threads"] == []
    assert "concurrent.futures" not in many["modules"]
    assert _strip(many["reports"][0]) == _strip(one["reports"][0])
    assert one["reports"][0]["passed"]


def test_cold_count_on_many_threads_with_a_short_switch_interval(tmp_path):
    """In a fresh process that switches threads every microsecond, cold
    counts with four workers, each on a fresh cache, give the one-worker
    report: the first count executes counting on the main thread before
    any worker runs."""
    argv = ["count", "--q", "3", "--s", "2", "--kmax", "6"]
    runs = [argv + ["--workers", "4", "--cache-dir", str(tmp_path / str(i))]
            for i in range(4)]
    many = json.loads(_python("import sys\nsys.setswitchinterval(1e-6)\n"
                              + RUNNER, json.dumps(runs)))["reports"]
    one = _fresh([argv + ["--workers", "1", "--cache-dir",
                          str(tmp_path / "one")]])["reports"][0]
    assert one["passed"]
    assert [_strip(r) for r in many] == [_strip(one)] * len(runs)


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


# an atexit handler, registered before anything else so that it runs
# last, reports the objects frozen by then on stderr
FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(f"# frozen: {gc.get_freeze_count()}",
                              file=sys.stderr))
"""

PROCESS = [(["triple"], 0), (["hmodule", "--ellprime", "29"], 1),
           (["hmodule", "--ellprime", "30"], 1),
           (["sl2", "--ell", "17", "--power", "6", "--format", "csv"], 0)]


@pytest.mark.parametrize("argv, code", PROCESS,
                         ids=["triple", "hmodule", "handled-error", "csv"])
def test_module_run_is_the_in_process_run(capsys, tmp_path, argv, code):
    """``python -m g2rigid.cli`` on an empty cache writes the report of
    ``main`` on its own empty cache, apart from ``duration_s``, exits with
    its code, writes the cache line last on stderr and leaves no
    temporary record file; only then is its heap frozen."""
    probe = tmp_path / "probe"
    probe.mkdir()
    (probe / "sitecustomize.py").write_text(FREEZE_PROBE, encoding="utf-8")
    fresh = subprocess.run(
        [sys.executable, "-m", "g2rigid.cli", *argv,
         "--cache-dir", str(tmp_path / "fresh")],
        env=_env(str(probe)), capture_output=True, text=True, timeout=120)
    assert main(argv + ["--cache-dir", str(tmp_path / "inproc")]) == code
    inproc = capsys.readouterr()
    assert fresh.returncode == code
    if "csv" in argv:
        assert fresh.stdout == inproc.out
    else:
        report = _strip(json.loads(fresh.stdout))
        assert report == _strip(json.loads(inproc.out))
        assert ("error" in report["outputs"]) == ("30" in argv)
    *lines, cache_line, frozen = fresh.stderr.splitlines()
    assert cache_line == inproc.err.strip()
    assert re.fullmatch(r"# cache hits: 0, misses: \d+", cache_line)
    assert int(frozen.removeprefix("# frozen: ")) > 0
    assert not lines
    assert not list((tmp_path / "fresh").glob("*.tmp"))
    assert gc.get_freeze_count() == 0


def test_in_process_main_freezes_nothing(capsys, tmp_path):
    main(["sl2", "--ell", "11", "--power", "2",
          "--cache-dir", str(tmp_path)])
    capsys.readouterr()
    assert gc.get_freeze_count() == 0


def test_console_script_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, name = scripts["g2rigid"].partition(":")
    assert module == cli.__name__ and getattr(cli, name) is cli.run
