import os
import subprocess
import sys

import pytest


@pytest.fixture
def fresh_python():
    """Runs code in a fresh interpreter that imports this yangsym and
    returns its stdout split into words."""
    import yangsym

    src = os.path.dirname(os.path.dirname(os.path.abspath(yangsym.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(code):
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.split()

    return run
