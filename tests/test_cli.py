import hashlib
import json
import os
import threading

import pytest

from yangsym.cli import main
from yangsym.suites import SUITES, CheckRecord
from yangsym import cache
from yangsym.cache import CACHE_ENV_VAR, FORMAT_VERSION, cache_get, cache_key, cache_put


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_suites(capsys):
    code, out, _ = run_cli(capsys, "list-suites")
    assert code == 0
    for name in ("newton", "schur", "lemma-constant", "engine-selfcheck"):
        assert name in out


def test_compute_e1(capsys):
    code, out, _ = run_cli(capsys, "compute", "e", "--k", "1", "--n", "2",
                           "--order", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 1
    (term,) = doc["terms"]
    assert term["tau"] == 0
    by_m = {c["m"]: c["value"] for c in term["coeffs"]}
    assert by_m[0]["monomials"] == [{"gens": [], "coeff": "2"}]
    gens = {tuple(m["gens"][0]) for m in by_m[1]["monomials"]}
    assert gens == {("t", 1, 1, 1), ("t", 1, 2, 2)}


def test_compute_e_star(capsys):
    code, out, _ = run_cli(capsys, "compute", "e_star", "--k", "1", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    terms = {tuple(t["exp"]): t["coeff"] for t in doc["terms"]}
    assert terms == {(1, 0, 0): "1", (0, 1, 0): "1", (0, 0, 1): "2"}


def test_compute_schur_matches_e(capsys):
    code, out1, _ = run_cli(capsys, "compute", "schur", "--lambda", "1,1",
                            "--via", "e", "--n", "2", "--order", "2")
    assert code == 0
    code, out2, _ = run_cli(capsys, "compute", "e", "--k", "2", "--n", "2",
                            "--order", "2")
    assert code == 0
    assert out1 == out2


@pytest.mark.parametrize("argv,top_key", [
    (["compute", "p", "--k", "2", "--n", "2", "--order", "2", "--sign", "+"], "order"),
    (["compute", "p", "--k", "2", "--n", "2", "--order", "2", "--sign", "-"], "order"),
    (["compute", "b", "--k", "1", "--n", "2", "--order", "2"], "order"),
    (["compute", "b", "--k", "1", "--n", "2", "--order", "2", "--z", "random"], "order"),
    (["compute", "h_minus", "--m", "2", "--n", "2", "--order", "3"], "order"),
    (["compute", "capelli_p", "--m", "2", "--n", "2"], "upoly"),
    (["compute", "h_star", "--k", "2", "--n", "2"], "terms"),
    (["compute", "p_star", "--k", "2", "--n", "2", "--mu", "1,0"], "upoly"),
])
def test_compute_objects_emit_canonical_json(capsys, argv, top_key):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert top_key in doc


def test_compute_text_format(capsys):
    code, out, _ = run_cli(capsys, "compute", "e", "--k", "1", "--n", "2",
                           "--order", "1", "--format", "text")
    assert code == 0 and out.startswith("{\n")


def test_compute_p_star_requires_mu(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "p_star", "--k", "1", "--n", "2"])
    assert exc.value.code != 0


def test_compute_rejects_bad_object(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "nonsense", "--n", "2"])
    assert exc.value.code != 0


def test_cache_roundtrip(tmp_path, capsys):
    args = ["compute", "e", "--k", "2", "--n", "2", "--order", "3",
            "--cache-dir", str(tmp_path)]
    code, out1, err1 = run_cli(capsys, *args)
    assert code == 0 and "cache miss" in err1
    entries = list(tmp_path.iterdir())
    assert len(entries) == 1
    code, out2, err2 = run_cli(capsys, *args)
    assert code == 0 and "cache hit" in err2
    assert out1 == out2  # hits byte-identical to recomputation


def test_cache_key_depends_on_order(tmp_path, capsys):
    base = ["compute", "e", "--k", "2", "--n", "2", "--cache-dir", str(tmp_path)]
    run_cli(capsys, *base, "--order", "2")
    run_cli(capsys, *base, "--order", "3")
    assert len(list(tmp_path.iterdir())) == 2


# sha256 of the stdout of `compute e --k 2 --n 2 --order 3` per value format
# version: a change to the values or their encoding fails this test until
# FORMAT_VERSION is bumped and the new digest recorded under it.
FORMAT_DIGESTS = {
    1: "7ab8e657edd5f5dba9f2c396c7409dc82bb609a4ff68b65cd0a9b7cae705f448",
}


def test_format_version_pins_the_value_bytes(capsys):
    code, out, _ = run_cli(capsys, "compute", "e", "--k", "2", "--n", "2", "--order", "3")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FORMAT_DIGESTS[FORMAT_VERSION]


def test_cache_key_depends_on_format_version(monkeypatch):
    params = {"k": 2, "n": 2, "order": 3}
    key = cache_key("e", params)
    monkeypatch.setattr(cache, "FORMAT_VERSION", FORMAT_VERSION + 1)
    assert cache_key("e", params) != key


def test_corrupt_cache_entry_is_evicted(tmp_path, capsys):
    args = ["compute", "e", "--k", "1", "--n", "2", "--order", "2",
            "--cache-dir", str(tmp_path)]
    code, out1, _ = run_cli(capsys, *args)
    (entry,) = list(tmp_path.iterdir())
    # not JSON, and JSON that is not an entry object
    for corrupt in ("{not json", "[1,2]"):
        entry.write_text(corrupt)
        code, out2, err = run_cli(capsys, *args)
        assert code == 0
        assert "evicting corrupt cache entry" in err
        assert out1 == out2
        assert json.loads(entry.read_text())["value"]  # rewritten


def test_cache_hit_skips_computation(tmp_path, capsys, monkeypatch):
    import yangsym.cli as cli

    args = ["compute", "h", "--k", "2", "--n", "2", "--order", "3",
            "--cache-dir", str(tmp_path)]
    code, miss, err = run_cli(capsys, *args)
    assert code == 0 and "cache miss" in err

    def refuse(*a, **kw):
        raise AssertionError("a cache hit must not compute the value")

    monkeypatch.setattr(cli, "_compute_value", refuse)
    code, hit, err = run_cli(capsys, *args)
    assert code == 0 and "cache hit" in err
    assert hit == miss


def test_concurrent_cache_writers_leave_one_whole_entry(tmp_path):
    params = {"k": 1, "n": 2, "order": 2}
    key = cache_key("e", params)
    values = [{"writer": i, "payload": ["x" * 2000] * 50} for i in range(8)]
    start = threading.Barrier(len(values))
    errors = []

    def write(value):
        start.wait()
        try:
            for _ in range(20):
                cache_put(str(tmp_path), key, "e", params, value)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(v,)) for v in values]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    stored = cache_get(str(tmp_path), key)
    assert json.loads(stored) in values
    assert [p.name for p in tmp_path.iterdir()] == [key + ".json"]


def test_failed_cache_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        cache_put(str(tmp_path), "k", "e", {}, {"value": object()})
    assert list(tmp_path.iterdir()) == []


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    code, _, err = run_cli(capsys, "compute", "h", "--k", "1", "--n", "2",
                           "--order", "2")
    assert code == 0 and "cache miss" in err
    assert len(list(tmp_path.iterdir())) == 1


def test_verify_single_suite_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "newton", "--n", "2",
                           "--order", "4", "--max-m", "2")
    assert code == 0
    assert "passed, 0 failed" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code != 0


def test_verify_json_report_deterministic(capsys, tmp_path):
    args = ["verify", "composition", "--n", "2", "--order", "3",
            "--max-k", "2", "--format", "json", "--seed", "99"]
    code, out1, _ = run_cli(capsys, *args)
    code, out2, _ = run_cli(capsys, *args)

    def strip_times(text):
        recs = json.loads(text)
        for r in recs:
            r.pop("wall_time", None)
        return recs

    assert strip_times(out1) == strip_times(out2)
    rec = json.loads(out1)[0]
    assert set(rec) == {"suite", "name", "anchor", "params", "status",
                        "determined_order", "wall_time", "failure", "detail"}


def test_verify_report_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "schur", "--n", "2", "--order", "3",
                         "--out", str(out_path))
    assert code == 0
    recs = json.loads(out_path.read_text())
    assert all(r["status"] == "pass" for r in recs)


def test_verify_exit_nonzero_on_failure(capsys):
    def failing_suite(cfg):
        return [CheckRecord(suite="doomed", name="always_fails", anchor="x",
                            params={}, status="fail")]

    SUITES["doomed"] = (failing_suite, "test-only failing suite")
    try:
        code, out, _ = run_cli(capsys, "verify", "doomed")
        assert code == 1
        assert "[FAIL]" in out
    finally:
        del SUITES["doomed"]


def test_skipped_checks_do_not_fail(capsys):
    # tau truncation below the required depth reports skipped, not failed
    code, out, _ = run_cli(capsys, "verify", "inverse-op", "--n", "2",
                           "--order", "3", "--tau-order", "2")
    assert code == 0
    assert "[SKIP]" in out


@pytest.mark.parametrize("argv", [
    ["verify", "newton", "--n", "0"],
    ["verify", "newton", "--n", "-2"],
    ["verify", "newton", "--order", "0"],
    ["verify", "newton", "--max-m", "0"],
    ["verify", "composition", "--max-k", "-1"],
    ["verify", "inverse-op", "--tau-order", "0"],
    ["verify", "newton", "--n", "two"],
    ["compute", "e", "--k", "1", "--n", "0", "--order", "2"],
])
def test_non_positive_sizes_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a positive integer" in captured.err or "expects an integer" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["compute", "e", "--k", "-1", "--n", "2", "--order", "2"], "k must be >= 0"),
    (["compute", "p", "--k", "0", "--n", "2", "--order", "2"], "k must be >= 1"),
    (["compute", "schur", "--lambda", "1,2", "--n", "2", "--order", "2"],
     "weakly decreasing"),
    (["compute", "schur", "--lambda", "1,x", "--n", "2", "--order", "2"],
     "comma-separated integer list"),
])
def test_library_value_errors_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["compute", "e", "--k", "1", "--m", "2", "--n", "2", "--order", "2"],
     "--k or --m, not both"),
    (["compute", "capelli_p", "--k", "2", "--m", "2", "--n", "2"],
     "--k or --m, not both"),
    (["verify", "newton", "--n", "2", "--cache-dir", "unused"],
     "unrecognized arguments: --cache-dir"),
    (["compute", "capelli_p", "--m", "2", "--n", "2", "--order", "5"],
     "compute capelli_p does not take --order"),
    (["compute", "e_star", "--k", "1", "--n", "2", "--order", "3"],
     "compute e_star does not take --order"),
    (["compute", "schur", "--lambda", "2,1", "--n", "2", "--order", "3", "--k", "4"],
     "compute schur does not take --k/--m"),
    (["compute", "schur", "--lambda", "2,1", "--n", "2", "--order", "3", "--m", "4"],
     "compute schur does not take --k/--m"),
    (["compute", "e", "--k", "1", "--n", "2", "--order", "2", "--lambda", "2,1"],
     "compute e does not take --lambda"),
    (["compute", "h", "--k", "1", "--n", "2", "--order", "2", "--mu", "1,0"],
     "compute h does not take --mu"),
    (["compute", "p_star", "--k", "1", "--n", "2", "--mu", "1,0", "--order", "2"],
     "compute p_star does not take --order"),
])
def test_ignored_or_conflicting_options_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv,message", [
    (["compute", "e", "--k", "1", "--n", "2"], "compute e needs --order"),
    (["compute", "h", "--n", "2", "--order", "2"], "compute h needs --k/--m"),
    (["compute", "schur", "--n", "2", "--order", "2"], "compute schur needs --lambda"),
    (["compute", "capelli_p", "--n", "2"], "compute capelli_p needs --k/--m"),
    (["compute", "p_star", "--k", "1", "--n", "2"], "compute p_star needs --mu"),
])
def test_missing_options_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
