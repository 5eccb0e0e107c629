"""Run a Python probe in fresh processes under different ``PYTHONHASHSEED``s.

String hashing is seeded per process, so a result that follows a set's or a
dict's hash order differs between processes, not between two runs in one.
A probe prints what it computed; equal outputs across hash seeds show the
result does not depend on that order.
"""

import os
import subprocess
import sys
from typing import List, Sequence

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def outputs_under_hash_seeds(probe: str, hash_seeds: Sequence[str] = ("1", "2")) -> List[str]:
    """The standard output of ``python -c probe`` under each hash seed,
    with the checkout's ``src`` and root importable."""
    outputs = []
    for hash_seed in hash_seeds:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_DIR, "src"), REPO_DIR, env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        outputs.append(result.stdout)
    return outputs
