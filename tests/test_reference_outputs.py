"""The verify report and the compute outputs match the digests recorded in
bench/reference.json, so a change that alters a result fails here and not
only in the benchmark."""

import hashlib
import importlib
import json
import sys
from pathlib import Path

from yangsym import cli
from yangsym.suites import SUITES, SuiteConfig, run_suites

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def _bench_module(name):
    """Import a module of bench/ without keeping its path or its setting of
    sys.dont_write_bytecode."""
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


def test_verify_report_matches_the_reference_digest():
    # the report `verify all --n 2 --order 4` prints for the default seed
    run = _bench_module("run")
    seed = 20240811
    records = run_suites(list(SUITES), SuiteConfig(n=2, order=4, seed=seed))
    expected = REFERENCE["verify"][str(seed)]
    assert len(records) == expected["checks"]
    assert run.report_digest([r.jsonable() for r in records]) == expected["digest"]


def test_compute_outputs_match_the_reference_digests(capsys, monkeypatch):
    monkeypatch.delenv("YANGSYM_CACHE_DIR", raising=False)
    inputs = _bench_module("inputs")
    for entry in inputs.COMPUTE_CATALOG:
        assert cli.main(["compute", *entry.split()]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == REFERENCE["compute"][entry], entry
