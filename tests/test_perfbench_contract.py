"""The benchmark in ``perfbench/`` reaches into the package by name.

Its traced runs replace public functions at their import sites, and every
run builds its inputs through ``worker.setup``.  Neither is exercised by
the rest of the test suite, so a refactor that renames or moves one of
those names would break the benchmark silently; these tests catch that.
"""

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import spans  # noqa: E402
import worker  # noqa: E402


def test_traced_sites_exist():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.Tracer(full=True).sites()
        if attr not in owner.__dict__
    ]
    assert not missing, f"traced names gone from the package: {missing}"


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_workload_setup(name, monkeypatch):
    monkeypatch.setattr(worker, "ROOT", REPO)
    rc, grid, data = worker.setup(name, 0)
    assert data.v0.shape == (rc.spec.k,) + grid.space_shape
