import json
import os

import jsonschema
import pytest

from g2rigid.cache import (CACHE_ENV_VAR, ResultCache, canonical_json,
                           content_key, resolve_cache_dir)
from g2rigid.cli import SCHEMA_PATH, main


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


def test_csv_output(capsys, cache_dir):
    code = main(["count", "--q", "3", "--s", "2", "--kmax", "2",
                 "--cache-dir", cache_dir, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "terms.0,-1" in lines
    assert "terms.1,277" in lines


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
    from g2rigid import cli, finitegroups
    calls = []
    original = finitegroups.adjoint_decomposition

    def counting(rep, *args):
        calls.append(rep)
        return original(rep, *args)

    monkeypatch.setattr(cli, "adjoint_decomposition", counting)
    monkeypatch.setattr(finitegroups, "adjoint_decomposition", counting)
    _run(capsys, ["hmodule", "--ellprime", "29", "--cache-dir", cache_dir])
    assert len(calls) == 1


def test_hmodule_computes_classes_and_h0_once(capsys, cache_dir,
                                              monkeypatch):
    from g2rigid import cli, finitegroups
    calls = []

    def counted(name):
        original = getattr(finitegroups, name)

        def counting(group, *args, **kwargs):
            calls.append(name)
            return original(group, *args, **kwargs)
        return counting

    for module, name in ((cli, "conjugacy_classes"),
                         (finitegroups, "conjugacy_classes"),
                         (finitegroups, "fixed_space_dim")):
        monkeypatch.setattr(module, name, counted(name))
    _run(capsys, ["hmodule", "--ellprime", "29", "--cache-dir", cache_dir])
    assert sorted(calls) == ["conjugacy_classes", "fixed_space_dim"]


def test_certify_replays_recipe_only_on_a_miss(capsys, cache_dir,
                                               monkeypatch):
    from g2rigid import cli
    argv = ["certify", "--ell", "7,11", "--cache-dir", cache_dir]
    code, cold, _ = _run(capsys, argv)
    calls = []
    original = cli.realize

    def counting(recipe):
        calls.append(recipe)
        return original(recipe)

    monkeypatch.setattr(cli, "realize", counting)
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
    """A record that cannot be decoded counts as a miss: the report is the
    cold run's, and the record is written again."""
    argv = argv + ["--cache-dir", cache_dir]
    _, cold, _ = _run(capsys, argv)
    path = os.path.join(cache_dir, cold["cache_keys"][0] + ".json")
    with open(path, "rb") as fh:
        record = fh.read()
    with open(path, "wb") as fh:
        fh.write(record[:len(record) // 2])
    code, again, err = _run(capsys, argv)
    assert code == 0 and again["outputs"] == cold["outputs"]
    assert f"hits: {len(cold['cache_keys']) - 1}, misses: 1" in err
    with open(path, "rb") as fh:
        assert fh.read() == record
