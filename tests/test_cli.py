import configparser
import json
import re
from pathlib import Path

import pytest

import wideseg
from wideseg.cli import (
    ConfigError, RunConfig, main, make_inputs, parse_config,
)
from wideseg.grid import SpaceTimeGrid
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

[diagnostics]
n_x_bumps = 3
n_t_bumps = 2
scales = 0.12 0.2
run_oracle = false
run_elliptic = false
oracle_dtau = 1e-3
"""


SCENARIOS = Path(wideseg.__file__).parent / "scenarios"


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
        sparse = sparse[:sparse.index("[diagnostics]")]
        rc = parse_config(write_cfg(tmp_path, sparse))
        assert all(r.kind == "zero" for r in rc.spec.reactions)
        assert rc.optimizer == OptimizerConfig(max_iters=1500, grad_tol=1e-5)
        assert (rc.n_x_bumps, rc.scales, rc.run_elliptic, rc.dir) == (
            5, (0.12, 0.2), True, "out")

    @pytest.mark.parametrize("edit, left_out", [
        (("nt = 21\n", ""), ["nt", "tail_tol"]),
        (("dim = 1\n", "dim = 2\n"), ["ny", "Ly"]),
    ], ids=["1d", "2d"])
    def test_left_out_grid_keys_take_class_defaults(self, tmp_path, edit,
                                                    left_out):
        # [grid] and [boundary] keys left out take the defaults of the
        # classes built from them, SpaceTimeGrid and RunConfig
        sparse = BASE_CFG.replace(*edit)
        sparse = re.sub(r"^(preset|bc_mode) = .*\n", "", sparse, flags=re.M)
        rc = parse_config(write_cfg(tmp_path, sparse))
        grid, _ = make_inputs(rc)
        assert (rc.preset, rc.bc_mode) == (RunConfig.preset,
                                           RunConfig.bc_mode)
        assert grid.nx == 15
        for key in left_out:
            assert getattr(grid, key) == getattr(SpaceTimeGrid, key)

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

    def test_scenario_keys_are_all_read(self, tmp_path, monkeypatch):
        # no key of a shipped scenario is parsed and then ignored: each is
        # fetched with ConfigParser.get.  The echo of every section into
        # summary.json reads each value again with raw=True, which is not
        # counted; an extra key shows that the spy counts only the keys
        # parse_config asks for
        real_get = configparser.ConfigParser.get
        read = set()

        def spy(self, section, option, **kwargs):
            if not kwargs.get("raw"):
                read.add((section, option.lower()))
            return real_get(self, section, option, **kwargs)

        monkeypatch.setattr(configparser.ConfigParser, "get", spy)
        for path in SCENARIOS.glob("*.cfg"):
            cfg = write_cfg(tmp_path,
                            path.read_text() + "\n[extra]\nunread = 1\n")
            read.clear()
            parse_config(cfg)
            cp = configparser.ConfigParser()
            cp.read(path)
            keys = {(sec, key) for sec in cp.sections() for key in cp[sec]}
            assert keys - read == set(), path.name
            assert ("extra", "unread") not in read

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
        # support mask); every penalty rung still converges.  No pass is
        # allowed: on s1's partition, fixed in time, the refine's first
        # pass lands on the minimizer
        from wideseg import continuation
        from wideseg.optimizer import OptimizerConfig

        real = continuation.minimize

        def starved_refine(*args, support=None, **kwargs):
            if support is not None:
                args = args[:5] + (OptimizerConfig(max_iters=0),) + args[6:]
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

    def test_unconverged_stationary_refine_is_1_with_stage(
            self, tmp_path, monkeypatch, capsys):
        # starve only the stationary ladder's refine (the elliptic solve
        # with a support mask): the stage is named, not left to flip the
        # elliptic_equivalence verdict
        from wideseg import oracle

        real = oracle.minimize_elliptic

        def starved_refine(*args, support=None, **kwargs):
            if support is not None:
                args = args[:4] + (OptimizerConfig(max_iters=0),)
            return real(*args, support=support, **kwargs)

        monkeypatch.setattr(oracle, "minimize_elliptic", starved_refine)
        cfg = BASE_CFG.replace("run_elliptic = false", "run_elliptic = true")
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)])
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_stage"] == "elliptic_refine"
        assert "elliptic_refine did not converge (stop: max_iters" in \
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

    @pytest.mark.parametrize("lengths", [
        "dim = 1\nnx = 15\nLx = 0.0\n",
        "dim = 1\nnx = 15\nLx = -1.0\n",
        "dim = 2\nnx = 5\nny = 5\nLx = 1.0\nLy = 0.0\n",
    ], ids=["Lx=0", "Lx=-1", "Ly=0"])
    def test_nonpositive_length_is_2(self, tmp_path, capsys, lengths):
        # a zero length used to die in a division by zero, and a negative
        # one was blamed on the boundary data
        cfg = BASE_CFG.replace("dim = 1\nnx = 15\nLx = 1.0\n", lengths)
        code = main(["run", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: grid: Lx (and Ly in 2-D) must be positive" \
            in capsys.readouterr().err

    def test_short_horizon_is_2_before_any_solve(self, tmp_path, capsys,
                                                 monkeypatch):
        # the uniformity windows sample tau up to 8 eps, past the horizon
        # eps T_r when T_r < 8: the run must stop before the ladder
        from wideseg import cli

        def no_ladder(*args, **kwargs):
            pytest.fail("the ladder ran")

        monkeypatch.setattr(cli, "run_eps_ladder", no_ladder)
        cfg = BASE_CFG.replace("T_r = 20.0", "T_r = 5.0")
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)])
        assert code == 2
        assert "config error: grid.T_r" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("oracle_dtau", "0"), ("oracle_dtau", "-0.01"), ("n_x_bumps", "0"),
        ("n_t_bumps", "0"), ("scales", ""), ("scales", "-0.1"),
    ], ids=["oracle_dtau=0", "oracle_dtau<0", "n_x_bumps=0", "n_t_bumps=0",
            "scales=empty", "scales<0"])
    def test_bad_diagnostics_value_is_2_before_any_solve(
            self, tmp_path, capsys, monkeypatch, key, value):
        # each of these used to die after the ladder, or to fail the
        # weak-inequality verdicts silently
        from wideseg import cli

        monkeypatch.setattr(cli, "run_eps_ladder",
                            lambda *a, **k: pytest.fail("the ladder ran"))
        cfg = re.sub(rf"^{key} = .*\n", "", BASE_CFG, flags=re.M)
        cfg += f"{key} = {value}\n"
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)])
        assert code == 2
        assert f"config error: diagnostics.{key}" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--dtau", "0"], ["--dtau", "-0.01"], ["--steps", "-1"],
    ], ids=["dtau=0", "dtau<0", "steps<0"])
    def test_bad_oracle_flag_is_2(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        code = main(["oracle", "--config", str(write_cfg(tmp_path, BASE_CFG)),
                     "--out", str(out), "--beta", "10"] + flags)
        assert code == 2
        assert f"config error: {flags[0]}" in capsys.readouterr().err
        assert not (out / "parabolic.csv").exists()

    def test_check_and_report_missing_artifacts(self, tmp_path, capsys):
        assert main(["check", "--artifacts", str(tmp_path)]) == 2
        assert main(["report", "--artifacts", str(tmp_path)]) == 2

    def test_check_fails_on_a_stopped_stage(self, tmp_path, capsys):
        # a stationary rung that does not converge stops the run after the
        # earlier verdicts are written, all of which may pass
        summary = {"verdicts": {"cauchy": True, "level_estimate": True},
                   "failed_stage": "elliptic_refine"}
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        assert main(["check", "--artifacts", str(tmp_path)]) == 1
        assert "FAIL  stage elliptic_refine" in capsys.readouterr().out


class TestSubcommands:
    """``minimize``, ``oracle`` and ``elliptic`` on the tiny config: each
    writes its one CSV, one row per (t, node) or per beta."""

    def run(self, tmp_path, command, *flags, cfg=BASE_CFG):
        out = tmp_path / "out"
        code = main([command, "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out), *flags])
        return code, out

    def test_minimize_writes_minimizer_csv(self, tmp_path):
        code, out = self.run(tmp_path, "minimize", "--eps", "0.2",
                             "--beta", "10")
        assert code == 0
        rows = (out / "minimizer.csv").read_text().splitlines()
        assert rows[0] == "t,x,v1,v2"
        assert len(rows) - 1 == 21 * 17

    def test_unconverged_minimize_is_1(self, tmp_path, capsys):
        # the command names its stage, as ``run`` names its failed stage
        starved = BASE_CFG.replace("max_iters = 1500", "max_iters = 0")
        code, out = self.run(tmp_path, "minimize", "--eps", "0.2",
                             "--beta", "10", cfg=starved)
        assert code == 1
        assert "stage minimize(eps=0.2, beta=10) did not converge " \
            "(stop: max_iters" in capsys.readouterr().out
        assert (out / "minimizer.csv").exists()

    def test_oracle_writes_parabolic_csv(self, tmp_path):
        code, out = self.run(tmp_path, "oracle", "--beta", "10",
                             "--steps", "5")
        assert code == 0
        rows = (out / "parabolic.csv").read_text().splitlines()
        assert rows[0] == "t,x,v1,v2"
        assert len(rows) - 1 == 6 * 17

    def test_oracle_step_defaults_to_config(self, tmp_path, capsys):
        # [diagnostics] oracle_dtau is the step unless --dtau is given
        cfg = BASE_CFG.replace("oracle_dtau = 1e-3", "oracle_dtau = 5e-4")
        for flags, tau in (([], 5e-3), (["--dtau", "2e-3"], 2e-2)):
            code, _ = self.run(tmp_path, "oracle", "--beta", "10",
                               "--steps", "10", *flags, cfg=cfg)
            assert code == 0
            printed = capsys.readouterr().out.split("tau = ")[1]
            assert float(printed) == pytest.approx(tau, rel=1e-15)

    def test_output_dir_from_config_unless_out_given(self, tmp_path):
        # [output] dir is where a subcommand writes; --out overrides it
        from_cfg = tmp_path / "from_cfg"
        cfg = BASE_CFG + f"\n[output]\ndir = {from_cfg}\n"
        flags = ("--beta", "10", "--steps", "1")
        assert main(["oracle", "--config", str(write_cfg(tmp_path, cfg)),
                     *flags]) == 0
        assert (from_cfg / "parabolic.csv").exists()
        (from_cfg / "parabolic.csv").unlink()
        code, out = self.run(tmp_path, "oracle", *flags, cfg=cfg)
        assert code == 0
        assert (out / "parabolic.csv").exists()
        assert not (from_cfg / "parabolic.csv").exists()

    def test_elliptic_writes_ladder_csv(self, tmp_path):
        code, out = self.run(tmp_path, "elliptic")
        assert code == 0
        rows = (out / "elliptic_ladder.csv").read_text().splitlines()
        assert rows[0] == "beta,overlap,energy"
        assert [float(r.split(",")[0]) for r in rows[1:]] == [10.0, 100.0]

    def test_unconverged_elliptic_is_1_with_stage(self, tmp_path, capsys):
        # two iterations leave the first stationary rung unconverged: the
        # command names it, as ``run`` names its failed stage
        starved = BASE_CFG.replace("max_iters = 1500", "max_iters = 2")
        code, out = self.run(tmp_path, "elliptic", cfg=starved)
        assert code == 1
        assert "stage elliptic(beta=10) did not converge (stop: max_iters" \
            in capsys.readouterr().out
        assert (out / "elliptic_ladder.csv").exists()


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

    def test_summary_reports_cauchy_tol_beside_distances(self, run_dir):
        # the tolerance is reported, not gated: the rows match cauchy.csv
        _, out = run_dir
        cauchy = json.loads((out / "summary.json").read_text())["cauchy"]
        assert cauchy["cauchy_tol"] == 1e-3
        rows = (out / "cauchy.csv").read_text().splitlines()[1:]
        assert [[float(c) for c in row.split(",")] for row in rows] == \
            cauchy["distances"]
        assert [d[:2] for d in cauchy["distances"]] == [[0.2, 0.1]]

    def test_check_subcommand_consistent(self, run_dir, capsys):
        code, out = run_dir
        check_code = main(["check", "--artifacts", str(out)])
        txt = capsys.readouterr().out
        assert ("FAIL" in txt) == (check_code == 1)
        assert (check_code == 0) == (code == 0)

    def test_report_subcommand(self, tmp_path, capsys):
        # every table ``run`` writes, the oracle's and the stationary
        # ladder's included, is printed under its name, header first
        cfg = BASE_CFG.replace("run_oracle = false", "run_oracle = true")
        cfg = cfg.replace("run_elliptic = false", "run_elliptic = true")
        out = tmp_path / "out"
        main(["run", "--config", str(write_cfg(tmp_path, cfg)),
              "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--artifacts", str(out)]) == 0
        txt = capsys.readouterr().out
        assert "absent" not in txt
        tables = sorted(f.name for f in out.glob("*.csv")
                        if f.name != "w_field.csv")
        assert tables == sorted([
            "level_table.csv", "energy_rungs.csv", "overlap_decay.csv",
            "cauchy.csv", "inequality_residuals.csv",
            "uniform_windows.csv", "oracle_discrepancy.csv",
            "elliptic_ladder.csv"])
        for name in tables:
            block = txt.split(f"== {name} ==\n")[1]
            header = (out / name).read_text().splitlines()[0].split(",")
            assert block.splitlines()[0].split() == header, name

    def test_report_prints_cauchy_tol_under_cauchy_table(self, run_dir,
                                                         capsys):
        # the value from summary.json, right after the cauchy.csv rows
        _, out = run_dir
        assert main(["report", "--artifacts", str(out)]) == 0
        txt = capsys.readouterr().out
        cauchy = txt.split("== cauchy.csv ==\n")[1].split("== ")[0]
        assert cauchy.splitlines()[-1] == "  cauchy_tol = 0.001"


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
