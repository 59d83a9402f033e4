"""Traced run of one workload, in a fresh interpreter, for per-layer numbers.

    PYTHONPATH=src python3 bench/trace_run.py --workload W --seed N --out F

It wraps the public functions of each g2rigid layer (table TRACED) in
spans recorded by this file, then runs the workload's commands through
`g2rigid.cli.main` in-process: a cold pass against an empty cache
directory (made beside F) and a warm pass against the filled one.  Calls nest as the
program makes them, so a call made inside another traced call (the
rigidity guard inside `realize`, the decomposition inside
`bigness_check`) is a child span.  No file of the program changes.

The commands run with `--workers 1` so that spans never overlap; self
time is then a span's duration minus its children's.  Spans, self times,
the per-layer metrics and the reports are written to F as JSON at the
end.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import os
import shutil
import sys
import tempfile
import time

from workloads import WORKLOADS, command_groups

# module -> public functions wrapped; "Class.method" wraps a method
TRACED = {
    "convolution": ("realize", "rigidity_index", "local_profile",
                    "matches_g2_profile", "middle_convolution"),
    "g2forms": ("invariant_form_space", "lie_stabilizer_dim", "reduce_mod",
                "generation_certificate", "enveloping_dim"),
    "finitegroups": ("build_h56", "FiniteMatrixGroup.materialize",
                     "conjugacy_classes", "adjoint_decomposition",
                     "fixed_space_dim", "h1_dim", "bigness_check",
                     "sym_power_rep"),
    "rings": ("ext_field",),
    "counting": ("series_term", "count_transfer", "count_naive"),
    "zeta": ("zeta_analysis",),
    "cache": ("ResultCache.get", "ResultCache.put"),
}

# span attributes taken from a call's arguments, by span name
ARG_ATTRS = {
    "g2forms.invariant_form_space":
        lambda a: {"degree": a["degree"], "ring": repr(a["t"].ring)},
    "g2forms.reduce_mod": lambda a: {"ell": a["ell"]},
    "finitegroups.adjoint_decomposition":
        lambda a: {"rep": type(a["rep"]).__name__},
    "counting.series_term": lambda a: {"q": a["q"], "k": a["k"]},
    "counting.count_transfer": lambda a: {"n": a["field_"].size},
    "counting.count_naive": lambda a: {"points": a["field_"].size ** 6},
    "rings.ext_field": lambda a: {"p": a["p"], "k": a["k"]},
}
# span attributes taken from a call's result, by span name
RESULT_ATTRS = {
    "cache.get": lambda r: {"hit": r is not None},
    "zeta.zeta_analysis": lambda r: {"model_length": r.model_length},
}

# per-layer time metric -> (span name, attribute filter or None) terms;
# a metric is the summed duration of its spans (children included), over
# the cold and the warm pass
LAYER_TIMES = {
    "convolution.realize_s": [("convolution.realize", None)],
    "convolution.rigidity_index_s": [("convolution.rigidity_index", None)],
    "convolution.local_profile_s": [("convolution.local_profile", None)],
    "g2forms.invariant_form_space_s": [
        ("g2forms.invariant_form_space", lambda a: a.get("ring") == "QQ")],
    "g2forms.lie_stabilizer_dim_s": [("g2forms.lie_stabilizer_dim", None)],
    "g2forms.generation_certificate_s": [
        ("g2forms.generation_certificate", None),
        ("g2forms.reduce_mod", None)],
    "finitegroups.materialize_s": [("finitegroups.materialize", None)],
    "finitegroups.conjugacy_classes_s": [
        ("finitegroups.conjugacy_classes", None)],
    "finitegroups.adjoint_decomposition_s": [
        ("finitegroups.adjoint_decomposition",
         lambda a: a.get("rep") == "FiniteMatrixGroup")],
    "finitegroups.h1_dim_s": [("finitegroups.h1_dim", None)],
    "finitegroups.bigness_check_s": [("finitegroups.bigness_check", None)],
    "finitegroups.sym_power_decomposition_s": [
        ("finitegroups.adjoint_decomposition",
         lambda a: a.get("rep") == "Sl2SymRep")],
    "rings.ext_field_s": [("rings.ext_field", None)],
    "counting.transfer_s": [("counting.count_transfer", None)],
    "counting.series_term_s": [("counting.series_term", None)],
    "counting.naive_s": [("counting.count_naive", None)],
    "zeta.zeta_analysis_s": [("zeta.zeta_analysis", None)],
    "cache.fetch_s": [("cache.get", None)],
}


class Tracer:
    """Spans (name, start, end, parent, attrs), kept in memory."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": time.perf_counter() - self.t0, "end": None,
               "attrs": attrs}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._open.pop()

    def wrap(self, name, fn):
        sig = inspect.signature(fn)
        arg_attrs = ARG_ATTRS.get(name)
        result_attrs = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if arg_attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = arg_attrs(bound.arguments)
            with self.span(name, **attrs) as live:
                result = fn(*args, **kwargs)
                if result_attrs:
                    live.update(result_attrs(result))
            return result
        return traced

    def finish(self):
        """Add each span's duration and self time."""
        child_time = {}
        for s in self.spans:
            s["duration_s"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child_time[s["parent"]] = \
                    child_time.get(s["parent"], 0.0) + s["duration_s"]
        for s in self.spans:
            s["self_s"] = s["duration_s"] - child_time.get(s["id"], 0.0)
        return self.spans


def install(tracer):
    """Replace every binding of each traced function in g2rigid modules."""
    import g2rigid.cli  # noqa: F401  (imports every layer)
    modules = [m for n, m in sys.modules.items()
               if n == "g2rigid" or n.startswith("g2rigid.")]
    for short, names in TRACED.items():
        module = sys.modules[f"g2rigid.{short}"]
        for name in names:
            span_name = f"{short}.{name.split('.')[-1]}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, tracer.wrap(span_name, getattr(cls, meth)))
                continue
            original = getattr(module, name)
            wrapped = tracer.wrap(span_name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)


def _ancestors(span, by_id):
    while span["parent"] is not None:
        span = by_id[span["parent"]]
        yield span


def layer_metrics(spans, cache_bytes):
    by_id = {s["id"]: s for s in spans}
    pass_of = {}
    for s in spans:
        roots = [a for a in _ancestors(s, by_id) if a["parent"] is None]
        pass_of[s["id"]] = roots[0]["attrs"].get("pass") if roots else None

    def outermost(s):
        return all(a["name"] != s["name"] for a in _ancestors(s, by_id))

    metrics = {}
    for metric, terms in LAYER_TIMES.items():
        metrics[metric] = sum(
            s["duration_s"] for s in spans for name, keep in terms
            if s["name"] == name and outermost(s)
            and (keep is None or keep(s["attrs"])))
    naive = [s for s in spans if s["name"] == "counting.count_naive"]
    points = sum(s["attrs"]["points"] for s in naive)
    metrics["counting.naive_points"] = points
    metrics["counting.naive_points_per_s"] = \
        points / metrics["counting.naive_s"] if naive else 0.0
    lengths = [s["attrs"]["model_length"] for s in spans
               if s["name"] == "zeta.zeta_analysis"]
    metrics["zeta.model_length"] = lengths[0] if lengths else 0
    for p in ("cold", "warm"):
        gets = [s for s in spans
                if s["name"] == "cache.get" and pass_of[s["id"]] == p]
        metrics[f"cache.{p}_hits"] = sum(s["attrs"]["hit"] for s in gets)
        metrics[f"cache.{p}_misses"] = sum(not s["attrs"]["hit"]
                                           for s in gets)
    metrics["cache.bytes"] = cache_bytes
    metrics["cli.main_warm_s"] = sum(
        s["duration_s"] for s in spans
        if s["name"] == "cli.main" and pass_of[s["id"]] == "warm")
    return metrics


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True,
                    help="trace file; the temporary cache goes beside it")
    args = ap.parse_args()

    tracer = Tracer()
    install(tracer)
    from g2rigid import cli

    groups = command_groups(args.seed)
    cmds = [(g, cmd) for g in WORKLOADS[args.workload] for cmd in groups[g]]
    cache_dir = tempfile.mkdtemp(
        prefix="trace-cache-", dir=os.path.dirname(os.path.abspath(args.out)))
    reports = {"cold": [], "warm": []}
    cache_bytes = 0
    try:
        for p in ("cold", "warm"):
            with tracer.span(f"pass.{p}", **{"pass": p}):
                for group, cmd in cmds:
                    argv = cmd + ["--cache-dir", cache_dir, "--workers", "1"]
                    out, err = io.StringIO(), io.StringIO()
                    with tracer.span("cli.main", command=cmd[0],
                                     group=group), \
                            contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        rc = cli.main(argv)
                    reports[p].append({"cmd": cmd, "rc": rc,
                                       "stdout": out.getvalue()})
            if p == "cold":
                cache_bytes = dir_bytes(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    spans = tracer.finish()
    totals = {s["attrs"]["pass"]: s["duration_s"] for s in spans
              if s["parent"] is None}
    by_group = {}  # "<command group>.<pass>" -> seconds in cli.main
    for s in spans:
        if s["name"] == "cli.main":
            p = spans[s["parent"]]["attrs"]["pass"]
            key = f"{s['attrs']['group']}.{p}"
            by_group[key] = by_group.get(key, 0.0) + s["duration_s"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "commands": [cmd for _, cmd in cmds],
        "pass_total_s": totals,
        "group_pass_s": by_group,
        "metrics": layer_metrics(spans, cache_bytes),
        "spans": spans,
        "reports": reports,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
