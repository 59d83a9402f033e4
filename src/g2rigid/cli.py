"""Command-line interface: certificates, counts, and cached reports.

Every command emits a single self-describing JSON document (schema
version embedded, integers as decimal strings) and exits 0 exactly when
every requested certificate passed.  Results of expensive computations
are cached content-addressed; reruns with the same configuration produce
byte-identical reports except for the duration field.

Importing this module executes only ``cache`` and ``errors``.  Every
other layer is registered in ``sys.modules`` through
``importlib.util.LazyLoader`` and executes at its first attribute read,
so a command executes only the layers it calls, and a report served from
the cache costs argparse, json, hashlib and one record read.  ``triple``
and ``certify`` key their records by the pinned recipe lines, which the
package itself defines, so served from the cache they execute no layer;
the ``Recipe`` is parsed and replayed on a miss only.  A lazily
registered module is not safe to touch first on several threads at once,
so the ``count`` workers call only ``counting.series_term``, resolved on
the main thread before the pool starts.  A process enters through
``run``, which freezes the heap once the report is written, so that
interpreter shutdown does not collect what the imports created.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import sys
import time

from . import DEFAULT_SERIES_NAIVE_BUDGET, G2_RECIPE_LINES
from .cache import ResultCache, resolve_cache_dir
from .errors import (BadCharacteristic, BadResidue, DegenerateInput,
                     DenominatorClash, InvalidCharacteristic, InvalidLambda,
                     InvalidRational, InvalidScalar, NotInBase, NotOrdinary,
                     RecipeFormatError, RecipeNotFound, TooLarge,
                     TooSmallPrime, WrongRank)


def _register_lazily(name):
    """The layer module ``g2rigid.<name>``, in ``sys.modules`` and on the
    package, with its body executed at the first attribute read (the
    ``importlib.util.LazyLoader`` recipe); a module already imported is
    returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


convolution = _register_lazily("convolution")
counting = _register_lazily("counting")
finitegroups = _register_lazily("finitegroups")
g2forms = _register_lazily("g2forms")
zeta = _register_lazily("zeta")
for _layer in ("matrix", "modlinalg", "rings"):  # read by the layers above
    _register_lazily(_layer)

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "schemas",
                           "report.schema.json")

# the input errors a command reports (exit 1); any other exception is a
# fault of the program and propagates as a traceback
_HANDLED_ERRORS = (BadResidue, BadCharacteristic, TooLarge, NotOrdinary,
                   TooSmallPrime, NotInBase, InvalidCharacteristic,
                   InvalidScalar, InvalidLambda, DegenerateInput,
                   DenominatorClash, RecipeFormatError, RecipeNotFound,
                   WrongRank, InvalidRational)


# ---------------------------------------------------------------------------
# command handlers: each returns (outputs dict, passed bool)

def _recipe_lines(args):
    """The canonical lines of the recipe ``triple`` or ``certify`` keys
    its records by: those of the ``--recipe`` file or of the ``--search``
    result, which ``convolution`` parses or finds, and otherwise the
    pinned lines, which need no layer."""
    if getattr(args, "recipe", None):
        with open(args.recipe, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        return convolution.Recipe.from_lines(lines).to_lines()
    if getattr(args, "search", False):
        return convolution.search_g2_recipe(
            convolution.SearchBounds()).to_lines()
    return list(G2_RECIPE_LINES)


def _compute_triple_record(recipe):
    t = convolution.realize(recipe)
    d2, f2 = g2forms.invariant_form_space(t, 2)
    d3, f3 = g2forms.invariant_form_space(t, 3)
    stab = g2forms.lie_stabilizer_dim((f3[0], f2[0])) if d2 and d3 else -1
    profile = convolution.local_profile(t)
    return {
        "recipe": list(recipe.to_lines()),
        "matrices": [m.to_str_rows() for m in t.matrices],
        "a_infinity": t.a_infinity().to_str_rows(),
        "denominator": str(t.denominator()),
        "product_ok": t.product_relation_holds(),
        "rigidity_index": str(convolution.rigidity_index(t)),
        "profile": g2forms._profile_json(profile),
        "profile_ok": convolution.is_g2_profile(profile),
        "invariant_form_dims": [str(d2), str(d3)],
        "lie_stabilizer_dim": str(stab),
    }


def _triple_passed(rec):
    return (rec["product_ok"] and rec["profile_ok"]
            and rec["rigidity_index"] == "2"
            and rec["invariant_form_dims"] == ["1", "1"]
            and rec["lie_stabilizer_dim"] == "14")


def cmd_triple(args, cache):
    lines = _recipe_lines(args)
    rec = cache.fetch_or_compute(
        {"kind": "triple", "recipe": lines, "v": 1},
        lambda: _compute_triple_record(convolution.Recipe.from_lines(lines)))
    return rec, _triple_passed(rec)


def cmd_certify(args, cache):
    lines = _recipe_lines(args)
    realized = []  # the recipe is built and replayed on the first miss only
    per_ell = []
    all_generate = True
    for ell in args.ell:
        payload = {"kind": "certify", "recipe": lines, "ell": ell, "v": 1}

        def compute(ell=ell):
            if not realized:
                realized.append(convolution.realize(
                    convolution.Recipe.from_lines(lines)))
            try:
                report = g2forms.generation_certificate(
                    g2forms.reduce_mod(realized[0], ell))
                return report.to_json()
            except _HANDLED_ERRORS as exc:
                return {"ell": str(ell), "verdict": "Error",
                        "error": f"{type(exc).__name__}: {exc}"}

        rec = cache.fetch_or_compute(payload, compute)
        per_ell.append(rec)
        if rec.get("verdict") != "Generates":
            all_generate = False
    return {"per_ell": per_ell,
            "summary": "Generates" if all_generate else "Incomplete"}, \
        all_generate


def cmd_hmodule(args, cache):
    payload = {"kind": "hmodule", "ellprime": args.ellprime, "v": 1}

    def compute():
        group = finitegroups.build_h56(args.ellprime)
        order = group.order
        classes = finitegroups.conjugacy_classes(group)
        decomp = finitegroups.adjoint_decomposition(group, classes)
        big = finitegroups.bigness_check(group, decomposition=decomp,
                                         classes=classes)
        return {
            "ellprime": str(args.ellprime),
            "order": str(order),
            "num_conjugacy_classes": str(len(classes)),
            "class_sizes": sorted(str(len(c)) for c in classes),
            "decomposition": decomp.to_json(),
            "bigness": big.to_json(),
        }

    rec = cache.fetch_or_compute(payload, compute)
    passed = (rec["decomposition"]["constituents"] == [["1", "7"], ["7", "6"]]
              and rec["bigness"]["verdict"] == "Big")
    return rec, passed


def cmd_sl2(args, cache):
    payload = {"kind": "sl2", "ell": args.ell, "power": args.power, "v": 1}

    def compute():
        rep = finitegroups.sym_power_rep(args.ell, args.power)
        decomp = finitegroups.adjoint_decomposition(rep)
        return {"ell": str(args.ell), "power": str(args.power),
                "decomposition": decomp.to_json()}

    rec = cache.fetch_or_compute(payload, compute)
    return rec, True


def _series_terms(args, cache, k_max):
    budget = args.budget if args.budget else DEFAULT_SERIES_NAIVE_BUDGET
    payloads = [{"kind": "series-term", "q": args.q, "s": args.s, "k": k,
                 "variant": args.variant, "naive_budget": budget, "v": 1}
                for k in range(1, k_max + 1)]
    # every record is read, and counting executed, on the main thread: a
    # lazily registered module is not safe to touch first on many threads
    recs = [cache.fetch(payload) for payload in payloads]
    missing = [i for i, rec in enumerate(recs) if rec is None]
    if not missing:
        return recs
    series_term = counting.series_term

    def compute(payload):
        t, crossed = series_term(args.q, args.s, payload["k"],
                                 variant=args.variant, naive_budget=budget)
        result = {"t": str(t), "cross_checked": crossed}
        cache.put(payload, result)
        return result

    # one worker a missing term at most, so one term starts no pool
    workers = min(args.workers or min(4, os.cpu_count() or 1), len(missing))
    if workers > 1:
        import concurrent.futures
        # leaving the block waits for every term, so one failing k cancels
        # no other; reading in k order raises the first failing k's error
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(compute, payloads[i]) for i in missing]
        for i, future in zip(missing, futures):
            recs[i] = future.result()
    else:
        for i in missing:
            recs[i] = compute(payloads[i])
    return recs


def cmd_count(args, cache):
    try:
        recs = _series_terms(args, cache, args.kmax)
    except TooLarge as exc:
        raise TooLarge(f"{exc} (smallest failing k determines the bound)")
    outputs = {
        "q": str(args.q),
        "s": str(args.s % args.q),
        "variant": args.variant,
        "terms": [r["t"] for r in recs],
        "cross_checked_k": [str(k) for k, r in enumerate(recs, 1)
                            if r["cross_checked"]],
    }
    return outputs, True


def cmd_zeta(args, cache):
    recs = _series_terms(args, cache, args.kmax)
    series = zeta.ChiSeries(q=args.q, s=args.s % args.q,
                            variant=args.variant,
                            terms=[int(r["t"]) for r in recs],
                            cross_checked=[k for k, r in enumerate(recs, 1)
                                           if r["cross_checked"]])
    report = zeta.zeta_analysis(series)
    outputs = {"series": series.to_json(), "analysis": report.to_json()}
    passed = (not report.inconsistent) and \
        (report.weil_ok or report.underdetermined)
    return outputs, passed


def cmd_predict(args, cache):
    from fractions import Fraction
    try:
        s = Fraction(args.s)
    except (ValueError, ZeroDivisionError):
        raise InvalidRational(f"--s {args.s!r} is not a rational number") \
            from None
    pred = zeta.local_type_prediction(s)
    return pred.to_json(), True


# ---------------------------------------------------------------------------
# plumbing

def _positive_int(text):
    n = int(text)  # argparse reports a ValueError as a usage error
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return n


def _nonnegative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative integer")
    return n


def _int_list(text):
    """A nonempty comma-separated list of integers, e.g. 7,11,13."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=None,
                        help="cache directory (default: $G2RIGID_CACHE_DIR "
                             "or ~/.cache/g2rigid)")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--workers", type=_positive_int, default=None)

    # the character-sum series of count and zeta
    series = argparse.ArgumentParser(add_help=False, parents=[common])
    series.add_argument("--q", type=int, required=True)
    series.add_argument("--s", type=int, required=True)
    series.add_argument("--kmax", type=_positive_int, default=7)
    series.add_argument("--budget", type=_positive_int, default=None,
                        help="enumeration budget for naive cross-checks")
    series.add_argument("--variant", choices=["consecutive", "cyclic"],
                        default="consecutive",
                        help="reading of the wrap-around difference factor")

    p = argparse.ArgumentParser(
        prog="g2rigid",
        description="certificates and point counts for the rank-7 rigid "
                    "monodromy tuple")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("triple", parents=[common],
                        help="construct and certify the triple over Q")
    sp.add_argument("--recipe", help="file with recipe lines to replay")
    sp.add_argument("--search", action="store_true",
                    help="run the breadth-first recipe search instead of "
                         "replaying the pinned recipe")
    sp.set_defaults(fn=cmd_triple)

    sp = sub.add_parser("certify", parents=[common],
                        help="mod-l generation certificates")
    sp.add_argument("--ell", type=_int_list, required=True,
                    help="comma-separated list of primes")
    sp.add_argument("--recipe", help="file with recipe lines to replay")
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("hmodule", parents=[common],
                        help="order-56 monomial group certificate")
    sp.add_argument("--ellprime", type=int, required=True)
    sp.set_defaults(fn=cmd_hmodule)

    sp = sub.add_parser("sl2", parents=[common],
                        help="symmetric-power adjoint decomposition")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--power", type=_nonnegative_int, required=True)
    sp.set_defaults(fn=cmd_sl2)

    sp = sub.add_parser("count", parents=[series],
                        help="character-sum series over extensions")
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("zeta", parents=[series],
                        help="spectral analysis of the series")
    sp.set_defaults(fn=cmd_zeta)

    sp = sub.add_parser("predict", parents=[common],
                        help="local-type predictions for a rational s")
    sp.add_argument("--s", required=True, help="rational, e.g. 8/5")
    sp.set_defaults(fn=cmd_predict)
    return p


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}{k}." if prefix else f"{k}.", obj[k], rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}{i}.", v, rows)
    else:
        rows.append((prefix.rstrip("."), obj))


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def validate(value, schema, where="report"):
    """Check ``value`` against ``schema``; raise ValueError on a mismatch.

    Only the keywords of schemas/report.schema.json are understood, with
    their JSON Schema (draft 7) meaning; any other keyword raises
    NotImplementedError, so the schema cannot outgrow this check unseen.
    """
    props = schema.get("properties", {})
    is_object = isinstance(value, dict)
    for key, arg in schema.items():
        if key in ("$schema", "title", "properties"):
            ok = True
        elif key == "type" and isinstance(arg, str) and arg in _JSON_TYPES:
            ok = isinstance(value, _JSON_TYPES[arg])
        elif key == "const":
            ok = value == arg
        elif key == "enum":
            ok = value in arg
        elif key == "required":
            ok = not is_object or all(k in value for k in arg)
        elif key == "additionalProperties" and arg is False:
            ok = not is_object or set(value) <= set(props)
        elif key == "items":
            for i, item in enumerate(value if isinstance(value, list) else ()):
                validate(item, arg, f"{where}[{i}]")
            ok = True
        else:
            raise NotImplementedError(f"schema keyword {key}: {arg!r}")
        if not ok:
            raise ValueError(f"{where} fails {key}: {arg!r}")
    for k, sub in props.items():
        if is_object and k in value:
            validate(value[k], sub, f"{where}.{k}")


def _emit(envelope, fmt, out):
    if fmt == "json":
        with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
            schema = json.load(fh)
        validate(envelope, schema)
        out.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    else:
        rows = []
        _flatten("", envelope["outputs"], rows)
        out.write("key,value\n")
        for k, v in rows:
            out.write(f"{k},{v}\n")


def _config_json(args):
    skip = {"fn", "command", "cache_dir", "format"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip or v is None:
            continue
        out[k] = v if isinstance(v, (bool, list)) else str(v)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cache = ResultCache(resolve_cache_dir(args.cache_dir))
    start = time.monotonic()
    try:
        outputs, passed = args.fn(args, cache)
    except _HANDLED_ERRORS as exc:
        outputs = {"error": f"{type(exc).__name__}: {exc}"}
        passed = False
    envelope = {
        "schema_version": "1",
        "command": args.command,
        "config": _config_json(args),
        "outputs": outputs,
        "passed": passed,
        "cache_keys": sorted(set(cache.keys_used)),
        "duration_s": f"{time.monotonic() - start:.3f}",
    }
    _emit(envelope, args.format, sys.stdout)
    print(f"# cache hits: {cache.hits}, misses: {cache.misses}",
          file=sys.stderr)
    return 0 if passed else 1


def run():
    """The process entry point: ``main``, then exit with its code.

    Once the report and the cache line are written, ``gc.freeze`` moves
    every live object to the permanent generation, so the collections of
    interpreter shutdown skip the objects of numpy and of the layers.
    atexit handlers, the flush of stdio and C-library shutdown still run,
    as ``os._exit`` would not let them.  ``main`` freezes nothing: tests
    and the bench tracer call it many times in one process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
