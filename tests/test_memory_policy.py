"""The allocator policy set on import keeps freed array memory in the heap.

Each probe runs in a fresh interpreter, so that the policy under test is
the one set by ``import wideseg`` and not by anything this pytest process
imported before.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import wideseg

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the policy is set on glibc only"
)

SRC = str(Path(wideseg.__file__).resolve().parents[1])

#: 200 rounds of four 1 MiB arrays: ~200,000 pages if every round faults
#: its memory in again, ~1,000 if freed memory is reused
CHURN = """
import resource
import numpy as np
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    arrays = [np.ones(131072) for _ in range(4)]
    del arrays
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
"""


def run_python(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                "MALLOC_TOP_PAD_"):
        env.pop(var, None)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_sets_the_policy():
    assert wideseg.MALLOC_POLICY == "glibc mmap 32 MiB / trim 64 MiB"


def test_freed_arrays_are_not_faulted_in_again():
    got = run_python("import json, wideseg\n" + CHURN
                     + "print(json.dumps({'faults': faults}))")
    assert got["faults"] < 20_000


def test_import_after_numpy_and_twice_is_harmless():
    got = run_python(
        "import json, importlib, numpy\n"
        "import wideseg\n"
        "import wideseg as again\n"
        "policy = importlib.reload(wideseg).MALLOC_POLICY\n" + CHURN
        + "print(json.dumps({'policy': policy, 'faults': faults}))"
    )
    assert got["policy"] == wideseg.MALLOC_POLICY
    assert got["faults"] < 20_000
