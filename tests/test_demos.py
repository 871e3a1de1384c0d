"""Every demo script runs to completion and prints its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, pinned so that refactors keep it byte-identical
DIGESTS = {
    "demo_boundary_matrix.py": "c703f6ee7932c1f1d79385699049d0c1a8d238f25128da9f4613121cc45e405d",
    "demo_exactness.py": "1efc2204ff603c9de0ffcf421d84ed58b574cfeb03eb062544024f0a5956bb3a",
    "demo_group_action.py": "706ff1633e5820eba2f2ddcd4096e5c7e4f4fba7a1c303545c2b1939e690ca36",
    "demo_minimal.py": "48c5a7ef40b9c771dcdef55ba559618a3afb0cfaa4d34d8a375dd4a3bb7901eb",
    "demo_orbits.py": "17e6de17322e66b64ed3c625c0f83c07b54f094ccdee5b7a00ad4605b66f5fd9",
    "demo_tree.py": "b9500d805b479e3a6b0fb98f853b81acb3709672f06b4de4fff98fc2df098be0",
}


# each demo also runs under python -O, with the same output
@pytest.mark.parametrize("flags,script", [
    pytest.param(flags, d, id=" ".join([*flags, d.name])) for flags in ([], ["-O"]) for d in DEMOS
])
def test_demo_runs(flags, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, *flags, str(script)], capture_output=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == DIGESTS[script.name]
