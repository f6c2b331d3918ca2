import json
from pathlib import Path

import pytest

from wideseg.cli import ConfigError, main, parse_config
from wideseg.optimizer import OptimizerConfig

BASE_CFG = """\
[scenario]
name = tiny

[system]
k = 2
A = 0 1; 1 0
reactions = zero zero

[boundary]
preset = two_ramp
bc_mode = dirichlet_and_initial

[grid]
dim = 1
nx = 15
Lx = 1.0
nt = 21
T_r = 20.0

[ladder]
betas = 10 100
epsilons = 0.2 0.1
cauchy_tol = 1e-3

[optimizer]
max_iters = 1500
grad_tol = 1e-5
seed = 0

[diagnostics]
n_x_bumps = 3
n_t_bumps = 2
scales = 0.12 0.2
run_oracle = false
run_elliptic = false
oracle_dtau = 1e-3
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        rc = parse_config(write_cfg(tmp_path, BASE_CFG))
        assert rc.name == "tiny"
        assert rc.spec.k == 2
        assert rc.ladder.betas == (10.0, 100.0)
        assert not rc.run_oracle

    def test_left_out_keys_take_class_defaults(self, tmp_path):
        sparse = BASE_CFG.replace("reactions = zero zero\n", "")
        sparse = sparse.replace("seed = 0\n", "")
        sparse = sparse[:sparse.index("[diagnostics]")]
        rc = parse_config(write_cfg(tmp_path, sparse))
        assert all(r.kind == "zero" for r in rc.spec.reactions)
        assert rc.optimizer == OptimizerConfig(max_iters=1500, grad_tol=1e-5)
        assert (rc.n_x_bumps, rc.scales, rc.run_elliptic, rc.out_dir) == (
            5, (0.12, 0.2), True, "out")

    def test_bad_reaction_named(self, tmp_path):
        bad = BASE_CFG.replace("reactions = zero zero",
                               "reactions = zero quartic")
        with pytest.raises(ConfigError) as ei:
            parse_config(write_cfg(tmp_path, bad))
        assert ei.value.field_name == "system.reactions"

    def test_nonzero_diagonal_named(self, tmp_path):
        bad = BASE_CFG.replace("A = 0 1; 1 0", "A = 1 1; 1 0")
        with pytest.raises(ConfigError) as ei:
            parse_config(write_cfg(tmp_path, bad))
        assert ei.value.field_name == "system.A[0][0]"

    def test_asymmetry_named(self, tmp_path):
        bad = BASE_CFG.replace("A = 0 1; 1 0", "A = 0 2; 1 0")
        with pytest.raises(ConfigError) as ei:
            parse_config(write_cfg(tmp_path, bad))
        assert ei.value.field_name.startswith("system.A[")

    def test_missing_required_field(self, tmp_path):
        bad = BASE_CFG.replace("k = 2\n", "")
        with pytest.raises(ConfigError) as ei:
            parse_config(write_cfg(tmp_path, bad))
        assert ei.value.field_name == "system.k"

    def test_bad_ladder_order(self, tmp_path):
        bad = BASE_CFG.replace("betas = 10 100", "betas = 100 10")
        with pytest.raises(ConfigError) as ei:
            parse_config(write_cfg(tmp_path, bad))
        assert ei.value.field_name == "ladder"

    def test_bad_bc_mode(self, tmp_path):
        bad = BASE_CFG.replace(
            "bc_mode = dirichlet_and_initial", "bc_mode = neumann"
        )
        with pytest.raises(ConfigError) as ei:
            parse_config(write_cfg(tmp_path, bad))
        assert ei.value.field_name == "boundary.bc_mode"


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_is_2(self, tmp_path, capsys):
        bad = BASE_CFG.replace("A = 0 1; 1 0", "A = 1 1; 1 0")
        code = main(["run", "--config", str(write_cfg(tmp_path, bad))])
        assert code == 2
        assert "system.A[0][0]" in capsys.readouterr().err

    def test_nonconvergence_is_1_with_stage(self, tmp_path, capsys):
        starved = BASE_CFG.replace("max_iters = 1500", "max_iters = 1")
        cfg = write_cfg(tmp_path, starved)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_stage"].startswith("minimize(eps=")

    def test_unconverged_refine_is_1_with_stage(self, tmp_path, monkeypatch,
                                                capsys):
        # starve only the penalty-free refine (the minimization with a
        # support mask); every penalty rung still converges
        from wideseg import continuation
        from wideseg.optimizer import OptimizerConfig

        real = continuation.minimize

        def starved_refine(*args, support=None, **kwargs):
            if support is not None:
                args = args[:5] + (OptimizerConfig(max_iters=1),) + args[6:]
            return real(*args, support=support, **kwargs)

        monkeypatch.setattr(continuation, "minimize", starved_refine)
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_cfg(tmp_path, BASE_CFG)),
                     "--out", str(out)])
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_stage"] == "refine(eps=0.2)"
        assert "refine(eps=0.2) did not converge (stop: max_iters" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("key, ladder, one_rung", [
        ("epsilons", "epsilons = 0.2 0.1", "epsilons = 0.2"),
        ("betas", "betas = 10 100", "betas = 10"),
    ], ids=["epsilons", "betas"])
    def test_one_rung_ladder_with_elliptic_is_2(self, tmp_path, capsys, key,
                                                ladder, one_rung):
        # the elliptic equivalence check solves at the second eps and beta
        cfg = BASE_CFG.replace("run_elliptic = false", "run_elliptic = true")
        cfg = cfg.replace(ladder, one_rung)
        code = main(["run", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"ladder.{key}" in capsys.readouterr().err

    def test_check_and_report_missing_artifacts(self, tmp_path, capsys):
        assert main(["check", "--artifacts", str(tmp_path)]) == 2
        assert main(["report", "--artifacts", str(tmp_path)]) == 2


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_cfg(tmp, BASE_CFG)
    out = tmp / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    return code, out


class TestPipeline:
    def test_exit_code_matches_verdicts(self, run_dir):
        code, out = run_dir
        summary = json.loads((out / "summary.json").read_text())
        verdicts = summary["verdicts"]
        assert verdicts, "pipeline produced no verdicts"
        assert (code == 0) == all(verdicts.values())
        if code == 1:
            assert summary["failed_stage"].startswith("check:")

    def test_artifacts_written(self, run_dir):
        _, out = run_dir
        for name in (
            "summary.json", "level_table.csv", "energy_rungs.csv",
            "uniform_windows.csv", "overlap_decay.csv", "cauchy.csv",
            "inequality_residuals.csv", "w_field.csv",
        ):
            assert (out / name).exists(), name

    def test_check_subcommand_consistent(self, run_dir, capsys):
        code, out = run_dir
        check_code = main(["check", "--artifacts", str(out)])
        txt = capsys.readouterr().out
        assert ("FAIL" in txt) == (check_code == 1)
        assert (check_code == 0) == (code == 0)

    def test_report_subcommand(self, run_dir, capsys):
        _, out = run_dir
        assert main(["report", "--artifacts", str(out)]) == 0
        txt = capsys.readouterr().out
        assert "level_table.csv" in txt


def test_2d_run_writes_field_csv(tmp_path):
    # the smallest 2-D pipeline: the ladder, the checks (weak inequalities
    # on the 2-D path included) and the (t, x, y) field snapshot
    cfg = BASE_CFG.replace("dim = 1\nnx = 15\n", "dim = 2\nnx = 5\nny = 5\n")
    cfg = cfg.replace("nt = 21", "nt = 11")
    out = tmp_path / "out"
    code = main(["run", "--config", str(write_cfg(tmp_path, cfg)),
                 "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["grid"]["dim"] == 2
    assert "weak_inequalities" in summary["verdicts"]
    if code != 0:
        assert code == 1 and summary["failed_stage"].startswith("check:")
    rows = (out / "w_field.csv").read_text().splitlines()
    assert rows[0] == "t,x,y,v1,v2"
    n_taus = len({row.split(",")[0] for row in rows[1:]})
    assert len(rows) - 1 == n_taus * 7 * 7
