"""The benchmark tracer finds every layer boundary it wraps.

`bench/tracer.install` skips a boundary the package no longer has and lists
it in `tracer.missing`, so a renamed function would silently drop a
per-layer metric.  This test fails instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_install_finds_every_boundary():
    import yangsym

    src = os.path.dirname(os.path.dirname(os.path.abspath(yangsym.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(BENCH), env.get("PYTHONPATH")]))
    code = ("import json, tracer; t = tracer.Tracer(); tracer.install(t); "
            "print(json.dumps({'missing': t.missing, 'names': t.names}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    report = json.loads(out)
    assert report["missing"] == []
    assert "symfun.rdet" in report["names"] and "symfun.h_minus" in report["names"]
