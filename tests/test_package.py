import os
import subprocess
import sys

import cylbuck


def test_public_names_resolve_once():
    assert len(set(cylbuck.__all__)) == len(cylbuck.__all__)
    for name in cylbuck.__all__:
        assert getattr(cylbuck, name) is not None, name


def test_import_leaves_scipy_optimize_out():
    # the trivial branch is a closed form and the oracle needs only
    # scipy.linalg; scipy.optimize would add ~0.2 s and ~20 MB to every import
    code = "import sys, cylbuck; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cylbuck.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
