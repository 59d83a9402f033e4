"""Closed-loop benchmark of the g2rigid command-line interface.

    python3 bench/run.py --workload algebra --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all

Run from the repository root.  One client runs one command at a time,
each as a fresh `python -m g2rigid.cli` process on the code under src/.
A round is a cold pass over the workload's commands against an empty
cache directory, then WARM_PASSES warm passes against the cache it
filled.  Rounds repeat while one more would end within --seconds (at
least one round runs).

--trace 0 prints the end-to-end metrics: setup_s, cold_s, warm_s and
peak_rss_mb.  --trace 1 runs one untraced round of each named workload,
then the traced run (bench/trace_run.py) of every workload once, each
in a fresh interpreter, and prints the per-layer metrics of all of
them; the spans go to bench/out/trace-<workload>-seed<seed>.json.

Every report is checked by bench/checks.py after the timed passes.  Each
CLI invocation is one operation; it fails when its checks fail, whatever
its exit code.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import KNOWN_FAULT, check_report, strip_duration
from workloads import DEFAULT_SEED, WORKLOADS, check_memory, commands

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WARM_PASSES = 2
IMPORTS_PER_ROUND = 5
DEFAULT_SECONDS = 55


def child_env():
    env = dict(os.environ)
    env.pop("G2RIGID_CACHE_DIR", None)  # every pass names its --cache-dir
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv):
    """Run one process; (wall seconds, exit code, peak RSS in MB, stdout)."""
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=out,
                                stderr=err, env=child_env(), cwd=ROOT)
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
            # be a maximum over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
        if proc.returncode not in (0, 1):
            err.seek(0)
            sys.stderr.write(err.read().decode()[-2000:])
    return wall, proc.returncode, usage.ru_maxrss / 1024, stdout


def time_import():
    """Seconds for a fresh interpreter to import g2rigid.cli."""
    wall, rc, _, _ = run_child(["-c", "import g2rigid.cli"])
    if rc != 0:
        raise SystemExit("importing g2rigid.cli failed")
    return wall


def run_pass(cmds, cache_dir):
    """One pass over the commands; (wall seconds, [(cmd, rc, rss, stdout)])."""
    results = []
    start = time.perf_counter()
    for cmd in cmds:
        _, rc, rss, stdout = run_child(
            ["-m", "g2rigid.cli"] + cmd + ["--cache-dir", cache_dir])
        results.append((cmd, rc, rss, stdout))
    return time.perf_counter() - start, results


def run_round(cmds, setup_times):
    """A cold pass, then WARM_PASSES warm passes, on a fresh cache directory.

    IMPORTS_PER_ROUND imports are timed into ``setup_times`` first, so
    that the set-up samples spread over the whole run.
    """
    setup_times += [time_import() for _ in range(IMPORTS_PER_ROUND)]
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    passes = []
    try:
        for _ in range(1 + WARM_PASSES):
            passes.append(run_pass(cmds, cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return passes


def check_passes(passes):
    """Problems per operation; passes[0] is the cold pass of its round."""
    ops = []
    cold = passes[0]
    for i, results in enumerate(passes):
        context = {}
        for j, (cmd, rc, stdout) in enumerate(results):
            problems = check_report(cmd, rc, stdout, context)
            if i and not problems and \
                    strip_duration(stdout) != strip_duration(cold[j][2]):
                problems.append("warm report differs from the cold one")
            ops.append((cmd, problems))
    return ops


def trace(workload, seed, untraced_cold):
    """Traced run of one workload in a fresh interpreter; its trace data.

    ``untraced_cold`` (or None) is the workload's untraced cold pass,
    kept in its trace file beside the traced total.
    """
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    _, rc, _, _ = run_child(
        [os.path.join(HERE, "trace_run.py"), "--workload", workload,
         "--seed", str(seed), "--out", path])
    if rc != 0:
        raise SystemExit(f"traced run of {workload} failed with exit {rc}")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if untraced_cold is not None:
        data["untraced_cold_s"] = untraced_cold
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
    return data


def traced_metrics(seed, untraced_cold):
    """Per-layer metrics summed over one traced run of every workload.

    Each layer works in one workload, so the sum is the figure from that
    one; the split by command group stays in the trace files.  Returns
    the metrics and the problems found in the traced runs' reports.
    """
    total = {}
    problems = []
    for name in WORKLOADS:
        data = trace(name, seed, untraced_cold.get(name))
        passes = [[(r["cmd"], r["rc"], r["stdout"])
                   for r in data["reports"][p]] for p in ("cold", "warm")]
        problems += [p for _, ps in check_passes(passes) for p in ps]
        print(f"# {name}: traced cold pass {data['pass_total_s']['cold']:.3f}"
              f" s, warm pass {data['pass_total_s']['warm']:.3f} s, in one "
              "process", file=sys.stderr)
        for key, value in data["metrics"].items():
            total[key] = total.get(key, 0) + value
    naive_s = total["counting.naive_s"]
    total["counting.naive_points_per_s"] = \
        total["counting.naive_points"] / naive_s if naive_s else 0.0
    return {k: (v, layer_unit(k)) for k, v in total.items()}, problems


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name == "cache.bytes" else "count"


def unexpected_problems(problems):
    """Problems outside the one known fault; they make the run incorrect."""
    return [p for p in problems if not p.startswith(KNOWN_FAULT)]


def run_workload(workload, seed, seconds, one_round):
    """Rounds of one workload, checked after the timed passes.

    Returns the end-to-end metrics, the checked operations and the
    rounds.  With ``one_round`` (the traced mode) a single round runs.
    """
    cmds = commands(workload, seed)
    check_memory(cmds)
    time_import()  # untimed: writes bytecode caches on a fresh checkout
    rounds = []
    setup_times = []
    start = last = time.perf_counter()
    # a round starts only if one more, as long as the last, ends in time
    while not rounds or (not one_round and 2 * time.perf_counter() - last
                         - start <= seconds):
        last = time.perf_counter()
        rounds.append(run_round(cmds, setup_times))
    ops = []
    for passes in rounds:
        ops += check_passes([[(c, rc, out) for c, rc, _, out in results]
                             for _, results in passes])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cold_s": (statistics.median(r[0][0] for r in rounds), "s"),
        "warm_s": (statistics.median(
            p[0] for r in rounds for p in r[1:]), "s"),
        "peak_rss_mb": (statistics.median(
            max(rss for p in r for _, _, rss, _ in p[1]) for r in rounds),
            "MB"),
    }
    return metrics, ops, rounds


def as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "g2rigid", "cli.py")):
        print(f"no g2rigid sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traced = bool(args.trace)
    results = {}
    all_ops = []
    untraced_cold = {}
    for name in names:
        metrics, ops, rounds = run_workload(name, args.seed, args.seconds,
                                            traced)
        all_ops += ops
        failed = sum(1 for _, ps in ops if ps)
        if traced:
            untraced_cold[name] = metrics["cold_s"][0]
            print(f"# {name}: untraced cold_s {untraced_cold[name]:.3f} s "
                  f"over {len(rounds[0][0][1])} processes", file=sys.stderr)
            shown = ""
        else:
            results[name] = as_json(metrics)
            shown = " ".join(f"{k}={v:.6g} {u}"
                             for k, (v, u) in metrics.items()) + " "
        print(f"{name}: {shown}attempted={len(ops)} failed={failed} "
              f"rounds={len(rounds)}")
    unexpected = unexpected_problems(p for _, ps in all_ops for p in ps)
    if traced:
        layers, traced_problems = traced_metrics(args.seed, untraced_cold)
        print("per-layer: " + " ".join(f"{k}={v:.6g} {u}"
                                       for k, (v, u) in layers.items()))
        # the traced reports are checked but not counted as operations, so
        # the failed share is the same with and without --trace
        unexpected += unexpected_problems(traced_problems)
        final_metrics = as_json(layers)
    elif len(names) == 1:
        final_metrics = results[names[0]]
    else:
        final_metrics = {f"{n}.{k}": m for n, r in results.items()
                         for k, m in r.items()}
    for cmd, problems in all_ops:
        if problems:
            print(f"# FAILED {' '.join(cmd)}: {'; '.join(problems)}",
                  file=sys.stderr)
    for problem in unexpected:
        print(f"# INCORRECT: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": len(all_ops),
                      "failed": sum(1 for _, ps in all_ops if ps),
                      "metrics": final_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
