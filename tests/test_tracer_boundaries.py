"""The benchmark finds every package boundary it wraps.

`bench/tracer.install` skips a boundary the package no longer has and lists
it in `tracer.missing`, so a renamed function would silently drop a
per-layer metric, and `bench/child.calibrate_checks` wraps `Reporter.run`,
so a check timed outside it would silently lose verify's per-check scaling.
These tests fail instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _run_with_bench(code):
    """The JSON that code prints, run in a fresh interpreter that imports
    both the package and the benchmark's modules."""
    import yangsym

    src = os.path.dirname(os.path.dirname(os.path.abspath(yangsym.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(BENCH), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_tracer_install_finds_every_boundary():
    report = _run_with_bench(
        "import json, tracer; t = tracer.Tracer(); tracer.install(t); "
        "print(json.dumps({'missing': t.missing, 'names': t.names}))")
    assert report["missing"] == []
    assert "symfun.rdet" in report["names"] and "symfun.h_minus" in report["names"]


def test_calibrated_verify_run_sees_every_timed_check_in_record_order():
    # bench/child.calibrate_checks wraps Reporter.run to calibrate before each
    # check and pair the calibration with its record; a skip is not timed
    report = _run_with_bench(
        "import json, child\n"
        "from yangsym.suites import SuiteConfig, run_suite\n"
        "class NoOp:\n"
        "    calls = 0\n"
        "    def before_op(self): NoOp.calls += 1\n"
        "checks = child.calibrate_checks(NoOp())\n"
        "records = run_suite('inverse-op', SuiteConfig(n=2, order=3, tau_order=2))\n"
        "print(json.dumps({'calls': NoOp.calls, 'checks': checks,\n"
        "                  'records': [[r.suite, r.name, r.status] for r in records]}))\n")
    timed = [[suite, name] for suite, name, status in report["records"] if status != "skipped"]
    assert len(timed) < len(report["records"])  # the run includes skips
    assert report["checks"] == timed and report["calls"] == len(timed)
