import csv
import io
import json
import os
import re

import jsonschema
import pytest
from hypothesis import given, strategies as st

from g2rigid import G2_RECIPE_LINES
from g2rigid.cache import (CACHE_ENV_VAR, ResultCache, canonical_json,
                           content_key, resolve_cache_dir)
from g2rigid.cli import SCHEMA_PATH, main, validate


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def _strip_duration(doc):
    doc = dict(doc)
    doc.pop("duration_s")
    return doc


with open(SCHEMA_PATH, "r", encoding="utf-8") as _fh:
    SCHEMA = json.load(_fh)


def test_cache_roundtrip_and_atomicity(cache_dir):
    c = ResultCache(cache_dir)
    payload = {"kind": "demo", "x": 1}
    assert c.get(payload) is None
    calls = []

    def compute():
        calls.append(1)
        return {"y": "2"}

    assert c.fetch_or_compute(payload, compute) == {"y": "2"}
    assert c.fetch_or_compute(payload, compute) == {"y": "2"}
    assert calls == [1]
    assert c.hits == 1 and c.misses == 1
    assert not [f for f in os.listdir(cache_dir) if f.endswith(".tmp")]


def test_content_key_is_order_insensitive():
    assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
    assert canonical_json({"b": 1, "a": [2]}) == '{"a":[2],"b":1}'


@pytest.mark.parametrize("payload", [
    {}, {"kind": "demo", "x": 1},
    {"kind": "series-term", "q": 3, "s": 2, "k": 12,
     "variant": "consecutive", "naive_budget": 10 ** 7, "v": 1},
    {"kind": "certify", "recipe": ["a", "b"], "ell": 7, "v": 1},
    {"text": "\u00e9\u2202 and a long tail " * 40}])
def test_content_key_is_the_hashlib_sha256(payload):
    import hashlib
    want = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    assert content_key(payload) == want.hexdigest()


def test_resolve_cache_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
    assert resolve_cache_dir("explicit") == "explicit"
    assert resolve_cache_dir(None) == str(tmp_path / "env")
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert resolve_cache_dir(None).endswith(os.path.join(".cache", "g2rigid"))


def test_predict_report_schema_and_exit(capsys, cache_dir):
    code, doc, _ = _run(capsys, ["predict", "--s", "8/5",
                                 "--cache-dir", cache_dir])
    assert code == 0
    jsonschema.validate(doc, SCHEMA)
    assert doc["passed"] is True
    assert doc["outputs"]["shape_ok"] is True


@pytest.mark.parametrize("s", ["abc", "1/0"])
def test_predict_malformed_s_is_an_input_error(capsys, cache_dir, s):
    code, doc, _ = _run(capsys, ["predict", "--s", s,
                                 "--cache-dir", cache_dir])
    assert code == 1 and doc["passed"] is False
    assert doc["outputs"]["error"] == \
        f"InvalidRational: --s {s!r} is not a rational number"


BIG_PRIME = 2 ** 61 - 1  # past the trial-division bound of the factorization


@pytest.mark.parametrize("argv, lines, read, want", [
    (["predict", "--s", str(BIG_PRIME)], None,
     lambda out: out["entries"][-1]["p"], str(BIG_PRIME)),
    (["certify", "--ell", "7"], [f"seed 1/{BIG_PRIME} -1"],
     lambda out: out["summary"], "Incomplete"),
    (["triple"], list(G2_RECIPE_LINES) + [f"twist 1/{BIG_PRIME} 1"],
     lambda out: out["denominator"], str(BIG_PRIME)),
], ids=["predict", "certify", "triple"])
def test_a_large_prime_is_factored_at_once(capsys, cache_dir, tmp_path,
                                            argv, lines, read, want):
    """A prime past the trial-division bound is recognized as one, not
    divided by every integer up to its square root."""
    if lines:
        path = tmp_path / "recipe.txt"
        path.write_text("\n".join(lines) + "\n")
        argv = argv + ["--recipe", str(path)]
    _, doc, _ = _run(capsys, argv + ["--cache-dir", cache_dir])
    assert read(doc["outputs"]) == want


def test_predict_refuses_a_number_it_cannot_factor(capsys, cache_dir):
    code, doc, _ = _run(capsys, ["predict", "--s", "1000000016000000063/7",
                                 "--cache-dir", cache_dir])
    assert code == 1 and doc["passed"] is False
    assert doc["outputs"]["error"] == (
        "TooLarge: 1000000016000000063 is composite with no prime factor "
        "up to 1048576: not factored")


def test_internal_value_error_propagates(cache_dir, monkeypatch):
    """A ValueError that is no input error (a Matrix shape check, say) is a
    fault of the program: main raises it instead of reporting it."""
    from g2rigid import convolution

    def broken(recipe):
        raise ValueError("dimension mismatch in matrix product")

    monkeypatch.setattr(convolution, "realize", broken)
    with pytest.raises(ValueError, match="dimension mismatch"):
        main(["triple", "--cache-dir", cache_dir])


def test_count_determinism_and_worker_invariance(capsys, cache_dir):
    args = ["count", "--q", "3", "--s", "2", "--kmax", "3",
            "--cache-dir", cache_dir]
    code1, doc1, err1 = _run(capsys, args + ["--workers", "1"])
    code2, doc2, err2 = _run(capsys, args + ["--workers", "3"])
    assert code1 == code2 == 0
    d1, d2 = _strip_duration(doc1), _strip_duration(doc2)
    d1["config"].pop("workers")
    d2["config"].pop("workers")
    assert d1 == d2
    assert "hits" in err2  # second run resolved from cache
    assert doc1["outputs"]["terms"] == ["-1", "277", "-2521"]


def test_count_rerun_byte_identical(capsys, cache_dir):
    args = ["count", "--q", "3", "--s", "2", "--kmax", "2",
            "--cache-dir", cache_dir, "--workers", "1"]
    _, doc1, _ = _run(capsys, args)
    _, doc2, _ = _run(capsys, args)
    assert _strip_duration(doc1) == _strip_duration(doc2)


def test_count_modulus_env_does_not_leak_into_report(capsys, cache_dir):
    code, doc, _ = _run(capsys, ["count", "--q", "3", "--s", "2",
                                 "--kmax", "2", "--cache-dir", cache_dir])
    jsonschema.validate(doc, SCHEMA)
    assert doc["cache_keys"] == sorted(set(doc["cache_keys"]))


def test_count_bad_s_exits_nonzero(capsys, cache_dir):
    code, doc, _ = _run(capsys, ["count", "--q", "3", "--s", "3",
                                 "--cache-dir", cache_dir])
    assert code == 1
    assert doc["passed"] is False
    assert "NotInBase" in doc["outputs"]["error"]


def test_failed_count_lists_the_keys_read_before_the_refusal(capsys,
                                                              cache_dir):
    """A term is sized at the first missing record, before any further
    record is read, so the error report lists that one key, under s mod
    q, and, its cache keys included, is the same on every rerun with
    many workers."""
    argv = ["count", "--q", "3", "--s", "3", "--kmax", "4",
            "--workers", "4", "--cache-dir", cache_dir]
    docs = [_strip_duration(_run(capsys, argv)[1]) for _ in range(20)]
    assert all(d == docs[0] for d in docs)
    assert docs[0]["cache_keys"] == [content_key(
        {"kind": "series-term", "q": 3, "s": 0, "k": 1,
         "variant": "consecutive", "naive_budget": 10 ** 7, "v": 1})]
    assert "NotInBase" in docs[0]["outputs"]["error"]


@pytest.mark.parametrize("argv, error", [
    (["--q", "3", "--s", "2", "--kmax", "16"],
     r"TooLarge: the transfer over F_3\^16 needs about \d+ bytes"),
    (["--q", "131", "--s", "2", "--kmax", "1", "--budget", str(131 ** 6)],
     rf"TooLarge: the naive count over F_131\^1 needs about "
     rf"{2 * 131 ** 4} bytes"),
    (["--q", "131", "--s", "2", "--kmax", "2", "--budget", str(131 ** 6)],
     rf"TooLarge: the naive count over F_131\^1 needs about "
     rf"{2 * 131 ** 4} bytes"),
    (["--q", "3", "--s", "3", "--kmax", "16"], r"NotInBase: "),
    (["--q", "9", "--s", "2", "--kmax", "16"], r"InvalidCharacteristic: "),
    (["--q", "0", "--s", "2", "--kmax", "16"],
     r"InvalidCharacteristic: need an odd prime, got 0$"),
], ids=["transfer", "naive", "naive-below-admitted", "bad-s", "bad-q",
        "zero-q"])
def test_count_refuses_an_oversized_term_before_the_first(
        capsys, cache_dir, monkeypatch, argv, error):
    """Every missing term is sized before any runs, after q and s are
    checked: an oversized transfer or naive cross-check is reported at
    once, and no term is computed or cached."""
    from g2rigid import counting

    def refuse(*args, **kwargs):
        raise AssertionError("a term was computed")

    monkeypatch.setattr(counting, "series_term", refuse)
    for command in ("count", "zeta"):
        code, doc, _ = _run(capsys, [command] + argv
                            + ["--cache-dir", cache_dir])
        assert code == 1 and doc["passed"] is False
        assert re.match(error, doc["outputs"]["error"])
        assert not os.listdir(cache_dir)


@pytest.mark.parametrize("command", ["count", "zeta"])
@pytest.mark.parametrize("cached", [0, 3])
def test_a_refusal_reads_only_the_terms_up_to_the_first_miss(
        capsys, cache_dir, monkeypatch, command, cached):
    """With T_1..T_cached in the cache, a series of a million terms reads
    cached + 1 records, lists their keys and is refused in the words of
    kmax 16, the first term sized."""
    series = ["--q", "3", "--s", "2", "--cache-dir", cache_dir]
    if cached:
        assert _run(capsys, ["count", "--kmax", str(cached)] + series)[0] == 0
    expected = _run(capsys, [command, "--kmax", "16"] + series)[1]
    reads = []  # the k of every record read
    get = ResultCache.get

    def counted(self, payload):
        reads.append(payload["k"])
        return get(self, payload)

    monkeypatch.setattr(ResultCache, "get", counted)
    code, doc, _ = _run(capsys, [command, "--kmax", "1000000"] + series)
    assert code == 1
    assert doc["outputs"] == expected["outputs"]
    assert reads == list(range(1, cached + 2))
    assert len(doc["cache_keys"]) == cached + 1


def test_a_refusal_holds_the_same_memory_at_any_kmax(capsys, cache_dir):
    """The refusal of k = 16 allocates no more at kmax 10^9 than at kmax
    10^3 (tracemalloc peaks within 100 kB), and ends within 5 s."""
    import signal
    import tracemalloc

    def peak(kmax):
        tracemalloc.start()
        try:
            code = main(["count", "--q", "3", "--s", "2", "--kmax",
                         str(kmax), "--cache-dir", cache_dir])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    def timeout(signum, frame):
        raise TimeoutError("the refusal ran past 5 s")

    peak(10 ** 3)  # every layer the refusal reads is executed first
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        code_small, small = peak(10 ** 3)
        code_large, large = peak(10 ** 9)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code_small == code_large == 1
    assert abs(large - small) < 100_000


def test_series_terms_are_keyed_by_s_mod_q(capsys, cache_dir):
    """At q = 3, --s 5 and --s -1 read the terms --s 2 wrote: every
    record is a hit and the outputs are the same."""
    argv = ["count", "--q", "3", "--kmax", "3", "--cache-dir", cache_dir]
    _, first, err = _run(capsys, argv + ["--s", "2"])
    assert err == "# cache hits: 0, misses: 3\n"
    for s in ("5", "-1"):
        _, doc, err = _run(capsys, argv + ["--s", s])
        assert err == "# cache hits: 3, misses: 0\n"
        assert doc["outputs"] == first["outputs"]
        assert doc["cache_keys"] == first["cache_keys"]


@pytest.mark.parametrize("argv", [["triple"], ["certify", "--ell", "7"]],
                         ids=lambda argv: argv[0])
def test_replay_is_refused_past_rank_7(capsys, cache_dir, tmp_path, argv):
    """The 18-line recipe passes ranks 1, 2, 3, 4, 7, 10, ..., 58; its
    replay is refused at the step to rank 10, and no record is written."""
    twists = ("1 -1", "1 -1", "-1 1", "-1 1", "1 -1", "1 -1", "-1 1",
              "1 -1")
    lines = ["seed -1 -1", "mc -1"] + [step for tw in twists
                                       for step in (f"twist {tw}", "mc -1")]
    assert len(lines) == 18
    path = tmp_path / "recipe.txt"
    path.write_text("\n".join(lines) + "\n")
    code, doc, _ = _run(capsys, argv + ["--recipe", str(path),
                                        "--cache-dir", cache_dir])
    assert code == 1 and doc["passed"] is False
    assert doc["outputs"]["error"] == ("TooLarge: recipe step 9 (mc) takes "
                                       "the tuple to rank 10, past the "
                                       "bound 7")
    assert os.listdir(cache_dir) == []


@pytest.mark.parametrize("argv", [
    ["--q", "5", "--s", "8", "--kmax", "2", "--variant", "cyclic"],
    ["--q", "3", "--s", "2", "--kmax", "16"],
], ids=["terms", "oversized"])
def test_zeta_nests_the_count_report(capsys, cache_dir, argv):
    """``zeta`` reports, under ``series``, what ``count`` reports for the
    same arguments, and a refusal in the same words."""
    argv = argv + ["--cache-dir", cache_dir]
    count = _run(capsys, ["count"] + argv)[1]["outputs"]
    zeta = _run(capsys, ["zeta"] + argv)[1]["outputs"]
    assert zeta == count if "error" in count else zeta["series"] == count


def test_csv_output(capsys, cache_dir):
    code = main(["count", "--q", "3", "--s", "2", "--kmax", "2",
                 "--cache-dir", cache_dir, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "terms.0,-1" in lines
    assert "terms.1,277" in lines


def test_csv_quotes_a_value_that_holds_a_comma(capsys, cache_dir):
    """A refused count's message holds a comma; the csv report still reads
    as two fields a row, the second the json report's exact message."""
    argv = ["count", "--q", "3", "--s", "2", "--kmax", "16",
            "--cache-dir", cache_dir]
    code, doc, _ = _run(capsys, argv)
    message = doc["outputs"]["error"]
    assert code == 1 and ", over the bound" in message
    assert main(argv + ["--format", "csv"]) == 1
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["key", "value"], ["error", message]]


def test_zeta_command_passes(capsys, cache_dir):
    code, doc, _ = _run(capsys, ["zeta", "--q", "3", "--s", "2",
                                 "--cache-dir", cache_dir])
    assert code == 0
    jsonschema.validate(doc, SCHEMA)
    a = doc["outputs"]["analysis"]
    assert a["inconsistent"] is False
    assert a["weil_ok"] or a["underdetermined"]


def test_zeta_kmax8_fit_is_underdetermined(capsys, cache_dir):
    # BM fits a length-4 recurrence with non-integral coefficients to the
    # eight terms; that fit gives no Weil verdict
    code, doc, _ = _run(capsys, ["zeta", "--q", "3", "--s", "2", "--kmax", "8",
                                 "--cache-dir", cache_dir])
    a = doc["outputs"]["analysis"]
    assert a["underdetermined"] is True and a["model_length"] == "4"
    assert doc["passed"] is True and code == 0


def test_certify_bad_prime_fails(capsys, cache_dir):
    code, doc, _ = _run(capsys, ["certify", "--ell", "7,2",
                                 "--cache-dir", cache_dir])
    assert code == 1
    verdicts = [r["verdict"] for r in doc["outputs"]["per_ell"]]
    assert verdicts[0] == "Generates" and verdicts[1] == "Error"


def test_triple_recipe_file_replay(capsys, cache_dir, tmp_path):
    from g2rigid.convolution import G2_RECIPE_LINES
    path = tmp_path / "recipe.txt"
    path.write_text("\n".join(G2_RECIPE_LINES) + "\n")
    code, doc, _ = _run(capsys, ["triple", "--recipe", str(path),
                                 "--cache-dir", cache_dir])
    assert code == 0
    assert doc["outputs"]["rigidity_index"] == "2"


def test_triple_bad_recipe_file(capsys, cache_dir, tmp_path):
    path = tmp_path / "recipe.txt"
    path.write_text("seed -1 -1\nfrobnicate\n")
    code, doc, _ = _run(capsys, ["triple", "--recipe", str(path),
                                 "--cache-dir", cache_dir])
    assert code == 1
    assert "RecipeFormatError" in doc["outputs"]["error"]


# the pinned recipe, with one step as -2/2 and blank space around words
# and lines; it parses to the pinned recipe's canonical lines
NONCANONICAL_RECIPE = """
  seed  -1 -1

mc -2/2
twist -1 -1
mc -1
twist 1   -1
mc -1
twist -1 -1
mc -1
twist 1 -1
mc -1
twist -1 -1
mc -1
   rotate
"""


@pytest.mark.parametrize("argv", [["triple"], ["certify", "--ell", "7,11"]],
                         ids=lambda argv: argv[0])
def test_noncanonical_recipe_file_keys_the_default_records(capsys, cache_dir,
                                                           tmp_path, argv):
    """A recipe file that parses to the pinned recipe is served the
    default's records, under the same cache keys."""
    path = tmp_path / "recipe.txt"
    path.write_text(NONCANONICAL_RECIPE)
    code, default, _ = _run(capsys, argv + ["--cache-dir", cache_dir])
    file_code, from_file, err = _run(
        capsys, argv + ["--recipe", str(path), "--cache-dir", cache_dir])
    assert from_file["cache_keys"] == default["cache_keys"]
    assert (file_code, from_file["outputs"]) == (code, default["outputs"])
    assert "misses: 0" in err


@pytest.mark.parametrize("argv", [["triple"], ["certify", "--ell", "7"]],
                         ids=lambda argv: argv[0])
def test_malformed_recipe_file_writes_no_record(capsys, cache_dir, tmp_path,
                                                argv):
    path = tmp_path / "recipe.txt"
    path.write_text("seed -1 -1\nmc -1\nfrobnicate\n")
    code, doc, _ = _run(capsys, argv + ["--recipe", str(path),
                                        "--cache-dir", cache_dir])
    assert code == 1
    assert doc["outputs"]["error"] == \
        "RecipeFormatError: bad recipe line: 'frobnicate'"
    assert doc["cache_keys"] == [] and os.listdir(cache_dir) == []


@pytest.mark.parametrize("text,error", [
    ("seed a b\n", "RecipeFormatError: bad recipe line: 'seed a b'"),
    ("seed -1 -1\nmc 1/0\n", "RecipeFormatError: bad recipe line: 'mc 1/0'"),
    ("seed -1 -1\nmc 1\n", "InvalidLambda: lambda must differ from 0 and 1"),
    ("seed 1 1\nmc -1\n",
     "DegenerateInput: all-identity tuple has no middle convolution"),
    ("seed -1 -1\n", "WrongRank: invariant forms implemented for rank 7"),
])
def test_triple_recipe_input_errors(capsys, cache_dir, tmp_path, text, error):
    path = tmp_path / "recipe.txt"
    path.write_text(text)
    code, doc, _ = _run(capsys, ["triple", "--recipe", str(path),
                                 "--cache-dir", cache_dir])
    assert code == 1 and doc["outputs"]["error"] == error


def _missing(tmp_path):
    return tmp_path / "missing.txt"


def _directory(tmp_path):
    (tmp_path / "recipes").mkdir()
    return tmp_path / "recipes"


def _latin1(tmp_path):
    path = tmp_path / "recipe.txt"
    path.write_bytes("seed -1 -1\nmc -1 \xb7\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("argv, make, reason", [
    (["triple"], _missing, "No such file or directory"),
    (["triple"], _directory, "Is a directory"),
    (["certify", "--ell", "7"], _latin1,
     "'utf-8' codec can't decode byte 0xb7 in position 17: invalid start "
     "byte"),
], ids=["missing", "directory", "not-utf-8"])
def test_unreadable_recipe_file_is_an_input_error(capsys, cache_dir,
                                                  tmp_path, argv, make,
                                                  reason):
    """A --recipe file that cannot be opened or decoded is refused with an
    exit-1 report that names it, not a traceback; no record is written."""
    path = str(make(tmp_path))
    code, doc, _ = _run(capsys, argv + ["--recipe", path,
                                        "--cache-dir", cache_dir])
    assert code == 1 and doc["passed"] is False
    assert doc["outputs"]["error"] == \
        f"RecipeFormatError: cannot read recipe file {path!r}: {reason}"
    assert doc["cache_keys"] == [] and os.listdir(cache_dir) == []


@pytest.mark.parametrize("argv", [["triple"], ["predict", "--s", "8/5"]],
                         ids=lambda argv: argv[0])
def test_uncreatable_cache_dir_is_a_usage_error(capsys, tmp_path, argv):
    """A --cache-dir below a regular file cannot be created: argparse
    refuses it with exit 2, as any other malformed flag, and no report is
    written."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--cache-dir", str(blocker / "cache")])
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: cannot create the cache directory: [Errno 20] Not a " \
        f"directory: {str(blocker / 'cache')!r}" in err


def test_triple_zero_seed_is_an_input_error(capsys, cache_dir, tmp_path):
    path = tmp_path / "recipe.txt"
    path.write_text("seed 0 1\nmc -1\n")
    code, doc, _ = _run(capsys, ["triple", "--recipe", str(path),
                                 "--cache-dir", cache_dir])
    assert code == 1
    assert doc["outputs"]["error"].startswith("InvalidScalar")


def test_count_composite_base_is_an_input_error(capsys, cache_dir):
    code, doc, _ = _run(capsys, ["count", "--q", "9", "--s", "2",
                                 "--kmax", "1", "--cache-dir", cache_dir])
    assert code == 1
    assert doc["outputs"]["error"] == \
        "InvalidCharacteristic: need an odd prime, got 9"


def test_sl2_composite_characteristic_is_an_input_error(capsys, cache_dir):
    code, doc, _ = _run(capsys, ["sl2", "--ell", "9", "--power", "2",
                                 "--cache-dir", cache_dir])
    assert code == 1
    assert doc["outputs"]["error"] == \
        "InvalidCharacteristic: need an odd prime, got 9"


def test_env_var_cache_dir(capsys, monkeypatch, tmp_path):
    env_dir = tmp_path / "envcache"
    monkeypatch.setenv(CACHE_ENV_VAR, str(env_dir))
    code, doc, _ = _run(capsys, ["predict", "--s", "10"])
    assert code == 0
    assert env_dir.exists()


GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_fmodule.json")
with open(GOLDEN_PATH, "r", encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fmodule_reports_match_golden(capsys, cache_dir, name):
    """hmodule and sl2 reproduce the recorded reports exactly, including
    the H56 witnesses and failures with their element indices."""
    want = GOLDEN[name]
    code, doc, _ = _run(capsys, want["argv"] + ["--cache-dir", cache_dir])
    assert doc["outputs"] == want["outputs"]
    assert doc["passed"] == want["passed"] and code == (0 if want["passed"]
                                                        else 1)
    assert doc["cache_keys"] == want["cache_keys"]


def test_hmodule_decomposes_once(capsys, cache_dir, monkeypatch):
    from g2rigid import finitegroups
    calls = []
    original = finitegroups.adjoint_decomposition

    def counting(rep, *args):
        calls.append(rep)
        return original(rep, *args)

    monkeypatch.setattr(finitegroups, "adjoint_decomposition", counting)
    _run(capsys, ["hmodule", "--ellprime", "29", "--cache-dir", cache_dir])
    assert len(calls) == 1


def test_hmodule_computes_classes_and_h0_once(capsys, cache_dir,
                                              monkeypatch):
    from g2rigid import finitegroups
    calls = []

    def counted(name):
        original = getattr(finitegroups, name)

        def counting(group, *args, **kwargs):
            calls.append(name)
            return original(group, *args, **kwargs)
        return counting

    for name in ("conjugacy_classes", "fixed_space_dim"):
        monkeypatch.setattr(finitegroups, name, counted(name))
    _run(capsys, ["hmodule", "--ellprime", "29", "--cache-dir", cache_dir])
    assert sorted(calls) == ["conjugacy_classes", "fixed_space_dim"]


def test_certify_replays_recipe_only_on_a_miss(capsys, cache_dir,
                                               monkeypatch):
    from g2rigid import convolution
    argv = ["certify", "--ell", "7,11", "--cache-dir", cache_dir]
    code, cold, _ = _run(capsys, argv)
    calls = []
    original = convolution.realize

    def counting(recipe):
        calls.append(recipe)
        return original(recipe)

    monkeypatch.setattr(convolution, "realize", counting)
    warm_code, warm, _ = _run(capsys, argv)
    assert calls == []
    assert (warm_code, _strip_duration(warm)) == (code, _strip_duration(cold))
    # two misses in one run share a single replay
    _run(capsys, ["certify", "--ell", "7,13,17", "--cache-dir", cache_dir])
    assert len(calls) == 1


def test_certify_refuses_ell_from_2_31(capsys, cache_dir):
    code, doc, _ = _run(capsys, ["certify", "--ell", "7,2147483647,2147483659",
                                 "--cache-dir", cache_dir])
    assert code == 1
    per_ell = doc["outputs"]["per_ell"]
    assert [r["verdict"] for r in per_ell] == ["Generates", "Generates",
                                                "Error"]
    assert per_ell[2]["error"].startswith("TooLarge")
    _, alone, _ = _run(capsys, ["certify", "--ell", "7",
                                "--cache-dir", cache_dir + "-alone"])
    assert per_ell[0] == alone["outputs"]["per_ell"][0]


@pytest.mark.parametrize("argv", [
    ["count", "--q", "3", "--s", "2", "--kmax", "2", "--workers", "1"],
    ["triple"],
])
def test_truncated_record_is_a_recomputed_miss(capsys, cache_dir, argv):
    """A record that cannot be decoded, a bare forged result and a record
    written under another payload version each count as a miss: the report
    is the cold run's, and the record is written again."""
    argv = argv + ["--cache-dir", cache_dir]
    _, cold, _ = _run(capsys, argv)
    path = os.path.join(cache_dir, cold["cache_keys"][0] + ".json")
    with open(path, "rb") as fh:
        record = fh.read()
    stored = json.loads(record)
    wrong_v = dict(stored, payload=dict(stored["payload"], v=2))
    for bad in (record[:len(record) // 2],
                b'{"t": "999", "cross_checked": true}',
                json.dumps(wrong_v).encode()):
        with open(path, "wb") as fh:
            fh.write(bad)
        code, again, err = _run(capsys, argv)
        assert code == 0 and again["outputs"] == cold["outputs"]
        assert f"hits: {len(cold['cache_keys']) - 1}, misses: 1" in err
        with open(path, "rb") as fh:
            assert fh.read() == record


def _golden_envelope(want):
    return {"schema_version": "1", "command": want["argv"][0],
            "config": {}, "outputs": want["outputs"],
            "passed": want["passed"], "cache_keys": list(want["cache_keys"]),
            "duration_s": "0.001"}


def _valid(envelope):
    try:
        validate(envelope, SCHEMA)
    except ValueError:
        return False
    return True


DRAFT7 = jsonschema.Draft7Validator(SCHEMA)


def test_report_schema_is_draft7():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


def test_schema_check_accepts_every_golden_report():
    for want in GOLDEN.values():
        assert _valid(_golden_envelope(want))


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.text(),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(), inner, max_size=3),
                     max_leaves=6)
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(sorted(SCHEMA["properties"]))),
    st.tuples(st.just("set"), st.text(max_size=3), _JSON),
    st.tuples(st.just("set"), st.sampled_from(sorted(SCHEMA["properties"])),
              _JSON | st.sampled_from(["1", "2", 1, True, "triple", "Triple",
                                       "zeta", "", [], {}])),
    st.tuples(st.just("cache_key"), st.integers(0, 3),
              _JSON | st.sampled_from(["", "0" * 64]))
)


@given(st.sampled_from(sorted(GOLDEN)), st.lists(_MUTATIONS, max_size=3))
def test_schema_check_agrees_with_jsonschema(name, mutations):
    """Dropped, extra and retyped keys, bad const and enum values and
    cache keys of any type: the report check and jsonschema's draft-7
    validator agree on every mutated envelope."""
    envelope = _golden_envelope(GOLDEN[name])
    for kind, key, *value in mutations:
        if kind == "drop":
            envelope.pop(key, None)
        elif kind == "set":
            envelope[key] = value[0]
        elif isinstance(envelope.get("cache_keys"), list):
            keys = envelope["cache_keys"]
            keys.insert(min(key, len(keys)), value[0])
    assert _valid(envelope) == DRAFT7.is_valid(envelope)


@pytest.mark.parametrize("schema", [
    {"minProperties": 1},
    {"type": "integer"},
    {"type": ["string", "null"]},
    {"additionalProperties": {"type": "string"}},
    {"properties": {"a": {"pattern": "^x"}}},
])
def test_schema_check_refuses_unknown_keywords(schema):
    with pytest.raises(NotImplementedError):
        validate({"a": "x"}, schema)


def _usage_error(capsys, argv):
    """The exit code of an argparse usage error, with nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert capsys.readouterr().out == ""
    return exc.value.code


@pytest.mark.parametrize("ell", ["7,x", ",", "", "7,,11"])
def test_certify_ell_must_be_a_list_of_integers(capsys, cache_dir, ell):
    argv = ["certify", "--ell", ell, "--cache-dir", cache_dir]
    assert _usage_error(capsys, argv) == 2


@pytest.mark.parametrize("argv", [
    ["count", "--kmax", "0"], ["count", "--kmax", "-2"],
    ["zeta", "--kmax", "-1"], ["count", "--kmax", "x"],
    ["count", "--workers", "-1"], ["count", "--workers", "0"],
    ["count", "--budget", "-1"], ["zeta", "--budget", "0"],
], ids=" ".join)
def test_vacuous_counting_arguments_are_usage_errors(capsys, cache_dir, argv):
    argv = argv + ["--q", "3", "--s", "2", "--cache-dir", cache_dir]
    assert _usage_error(capsys, argv) == 2


@pytest.mark.parametrize("power", ["-1", "-6", "x"])
def test_negative_sl2_power_is_a_usage_error(capsys, cache_dir, power):
    argv = ["sl2", "--ell", "17", "--power", power, "--cache-dir", cache_dir]
    assert _usage_error(capsys, argv) == 2


def test_sl2_refuses_an_oversized_power_before_any_matrix(
        capsys, cache_dir, monkeypatch):
    """Sym^100's adjoint operators would need several GB: the power is
    refused with a TooLarge report before any matrix is built."""
    from g2rigid import finitegroups

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(finitegroups, "comb", refuse)
    code, doc, _ = _run(capsys, ["sl2", "--ell", "211", "--power", "100",
                                 "--cache-dir", cache_dir])
    assert code == 1 and doc["passed"] is False
    assert re.match(r"TooLarge: the adjoint module of Sym\^100 needs about "
                    rf"{finitegroups.sl2_bytes(100)} bytes",
                    doc["outputs"]["error"])
    assert finitegroups.sl2_bytes(46) <= finitegroups.SL2_BYTE_BOUND \
        < finitegroups.sl2_bytes(47)


def test_sl2_power_zero_is_the_trivial_module(capsys, cache_dir):
    code, doc, _ = _run(capsys, ["sl2", "--ell", "17", "--power", "0",
                                 "--cache-dir", cache_dir])
    assert code == 0 and doc["passed"]
    assert doc["outputs"]["decomposition"] == {"constituents": [["1", "1"]],
                                               "module_dimension": "1"}


@pytest.mark.parametrize("argv", [
    ["triple"], ["certify", "--ell", "7"], ["hmodule", "--ellprime", "29"],
    ["sl2", "--ell", "17", "--power", "6"], ["predict", "--s", "8/5"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("flag", [["--budget", "100"],
                                  ["--variant", "cyclic"]],
                         ids=lambda flag: flag[0])
def test_budget_and_variant_belong_to_count_and_zeta(capsys, cache_dir, argv,
                                                     flag):
    argv = argv + flag + ["--cache-dir", cache_dir]
    assert _usage_error(capsys, argv) == 2


def test_config_records_variant_for_counting_only(capsys, cache_dir):
    _, predict, _ = _run(capsys, ["predict", "--s", "8/5",
                                  "--cache-dir", cache_dir])
    assert predict["config"] == {"s": "8/5"}
    _, count, _ = _run(capsys, ["count", "--q", "3", "--s", "2", "--kmax", "1",
                                "--cache-dir", cache_dir])
    assert count["config"] == {"kmax": "1", "q": "3", "s": "2",
                               "variant": "consecutive"}
