"""The benchmark in ``perfbench/`` reaches into the package by name.

Its traced runs replace public functions at their import sites, and every
run builds its inputs through ``worker.setup``.  Neither is exercised by
the rest of the test suite, so a refactor that renames or moves one of
those names would break the benchmark silently; these tests catch that.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import spans  # noqa: E402
import worker  # noqa: E402
from wideseg import cli, continuation, optimizer, oracle  # noqa: E402
from wideseg.continuation import LadderSpec  # noqa: E402
from wideseg.grid import SpaceTimeGrid  # noqa: E402
from wideseg.model import BoundaryData, SystemSpec, preset_v0  # noqa: E402
from wideseg.optimizer import OptimizerConfig  # noqa: E402


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
    # the grid each workload runs on, whatever the defaults of the classes
    # a config is read into
    if name.startswith("ramp1d"):
        assert (grid.dim, grid.nx, grid.nt, grid.T_r, grid.tail_tol) == (
            1, 63, 201, 20.0, 1e-8)
    else:
        assert (grid.dim, grid.nx, grid.ny, grid.nt) == (2, 15, 15, 101)


def test_ladders_are_captured_as_rungs():
    # the untraced benchmark checks its output on the rungs this capture
    # records; a ladder that stops calling minimize / minimize_elliptic
    # through its own module would leave them out
    grid = SpaceTimeGrid(1, 7, 1.0, 11, 20.0)
    spec = SystemSpec.make(2, [[0, 1], [1, 0]])
    v0 = preset_v0("two_ramp", grid.x_field(), 2)
    betas = (10.0, 100.0)
    cfg = OptimizerConfig(max_iters=200)
    tracer = spans.Tracer(full=False)
    with spans.instrument(tracer):
        continuation.run_beta_ladder(
            spec, BoundaryData.make(v0), grid, 0.1, betas, cfg)
        oracle.elliptic_beta_ladder(
            spec, BoundaryData.make(v0, "dirichlet_only"), grid, betas, cfg)
        # the equivalence solve starts cold from the init name "competitor"
        oracle.check_elliptic_equivalence(
            spec, BoundaryData.make(v0, "dirichlet_only"), grid, 0.1, 100.0,
            cfg)
    kinds = [r.kind for r in tracer.rungs]
    assert kinds == ["penalty", "penalty", "refine",
                     "elliptic", "elliptic", "elliptic",
                     "equivalence", "elliptic"]
    assert [r.beta for r in tracer.rungs] == [10.0, 100.0, 0.0] * 2 + [
        100.0, 100.0]
    assert np.all(np.isnan([r.eps for r in tracer.rungs[3:6]]))
    assert tracer.rungs[6].eps == 0.1 and tracer.rungs[6].init == "cold"


def test_functional_calls_are_traced():
    # the functional.* layer metrics count the spans of the value and
    # gradient that the descent calls through optimizer.eval_J_value and
    # optimizer.grad_J; calls that bypass those names would read 0
    grid = SpaceTimeGrid(1, 7, 1.0, 11, 20.0)
    spec = SystemSpec.make(2, [[0, 1], [1, 0]])
    data = BoundaryData.make(preset_v0("two_ramp", grid.x_field(), 2))
    tracer = spans.Tracer(full=True)
    with spans.instrument(tracer):
        optimizer.minimize(spec, data, grid, 0.1, 10.0,
                           OptimizerConfig(max_iters=20))
    m = spans.layer_metrics(tracer)
    assert m["functional.value_calls"] > 0
    assert m["functional.grad_calls"] > 0


def test_oracle_march_is_traced(tmp_path):
    # oracle.march_steps reads the shape of the march's values and
    # cli.stage.oracle_s starts at the march's span; a march that returns
    # another shape or is no longer called through oracle_mod would
    # misreport both
    rc = cli.RunConfig(
        name="tiny", spec=SystemSpec.make(2, [[0, 1], [1, 0]]),
        preset="two_ramp", bc_mode="dirichlet_and_initial",
        grid_kwargs={"dim": 1, "nx": 7, "Lx": 1.0, "nt": 11, "T_r": 20.0},
        ladder=LadderSpec(betas=(10.0, 100.0), epsilons=(0.2, 0.1)),
        optimizer=OptimizerConfig(max_iters=1500), n_x_bumps=3, n_t_bumps=2,
        run_elliptic=False, oracle_dtau=1e-2,
    )
    tracer = spans.Tracer(full=True)
    with spans.instrument(tracer):
        cli.run_pipeline(rc, tmp_path, log=lambda msg: None)
    m = spans.layer_metrics(tracer)
    tau_max = 0.5 * min(rc.ladder.epsilons) * rc.grid_kwargs["T_r"]
    assert m["oracle.march_steps"] == int(np.ceil(tau_max / rc.oracle_dtau))
    assert m["cli.stage.oracle_s"] > 0


def test_run_rung_sequence(tmp_path):
    # worker.check compares the captured rungs of ramp1d_run, in order,
    # with reference.json: each eps's penalty rungs and refine, then the
    # equivalence solve and its stationary solve at betas[1], then the
    # stationary ladder and its refine.  Dropping or moving a solve
    # breaks that check until the reference is recorded again
    rc = cli.RunConfig(
        name="tiny", spec=SystemSpec.make(2, [[0, 1], [1, 0]]),
        preset="two_ramp", bc_mode="dirichlet_and_initial",
        grid_kwargs={"dim": 1, "nx": 7, "Lx": 1.0, "nt": 11, "T_r": 20.0},
        ladder=LadderSpec(betas=(10.0, 100.0), epsilons=(0.2, 0.1)),
        optimizer=OptimizerConfig(max_iters=1500), n_x_bumps=3, n_t_bumps=2,
        run_oracle=False, run_elliptic=True,
    )
    tracer = spans.Tracer(full=False)
    with spans.instrument(tracer):
        cli.run_pipeline(rc, tmp_path, log=lambda msg: None)
    assert [worker.rung_key(r) for r in tracer.rungs] == [
        ["penalty", 0.2, 10.0], ["penalty", 0.2, 100.0], ["refine", 0.2, 0.0],
        ["penalty", 0.1, 10.0], ["penalty", 0.1, 100.0], ["refine", 0.1, 0.0],
        ["equivalence", 0.1, 100.0], ["elliptic", None, 100.0],
        ["elliptic", None, 10.0], ["elliptic", None, 100.0],
        ["elliptic", None, 0.0],
    ]
    assert all(r.result.converged for r in tracer.rungs)
