"""Command-line interface: subcommands, exit codes, output files."""

import json

import pytest

from conftest import assert_oracle_kkt
from dpobstacle import config
from dpobstacle.cli import (
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)

CONTACT = """\
[mesh]
dim = 1
n = 16

[phase]
p = 2
q = 2

[obstacle]
phi = 0.1

[reaction]
name = constant
value = 1

[solver]
schedule = 1e-4
"""

NORMS = """\
[mesh]
dim = 1
n = 4

[phase]
p = 2
q = 3
mu = 0.5
"""

STUDY = """\
[mesh]
dim = 1
n = 16

[phase]
p = 2
q = 2

[obstacle]
phi = 0.5

[reaction]
name = constant
value = 8

[solver]
schedule = 1, 1e-1, 1e-2, 1e-3, 1e-4

[study]
n_starts = 2
seed = 11
"""

# one square cell whose four nodes are all Dirichlet, though the right side
# is natural
NO_FREE_2D = """\
[mesh]
dim = 2
lx = 1
ly = 1
nx = 1
ny = 1
gamma2 = right

[phase]
p = 2
q = 2

[obstacle]
phi = 0.1

[reaction]
name = constant
value = 1
"""


@pytest.fixture
def cfg_file(tmp_path):
    def write(text, name="case.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestSolve:
    def test_writes_report_and_table(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--config", cfg_file(CONTACT),
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert len(report["config_sha256"]) == 64
        assert "seed" in report and "rho" in report
        assert report["iteration_trace"], "trace missing"
        csv_text = (out / "solution.csv").read_text()
        lines = csv_text.split("\n")
        assert lines[0].startswith("config_sha256,")
        assert lines[1].startswith("seed,")
        assert lines[2] == "x,u,phi,eta,violation"
        assert lines[-1] == ""  # trailing newline
        assert len(lines) == 17 + 3 + 1  # metadata + header + nodes

    def test_nonconvergence_exit_code_still_writes(self, cfg_file, tmp_path):
        text = CONTACT.replace("schedule = 1e-4",
                               "schedule = 1e-4\nmax_newton = 1")
        out = tmp_path / "out"
        code = main(["solve", "--config", cfg_file(text), "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert (out / "solution.csv").exists()

    def test_config_error_names_line(self, cfg_file, tmp_path, capsys):
        text = CONTACT.replace("schedule = 1e-4", "schedule = 0")
        code = main(["solve", "--config", cfg_file(text),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert "line" in err

    @pytest.mark.parametrize("old,new,key", [
        ("schedule = 1e-4", "schedule = 1e-4\nnewton_tol = inf", "[solver] newton_tol"),
        ("eps_grad = 1e-200", "eps_grad = inf", "[solver] eps_grad"),
        ("p = 2\nq = 2", "p = inf\nq = inf", "[phase] q"),
        ("n = 16", "b = inf\nn = 16", "[mesh] b"),
        ("dim = 1\nn = 16", "dim = 2\nlx = inf\nly = 1\nnx = 4\nny = 4",
         "[mesh] lx"),
        ("value = 1", "value = nan", "[reaction] value"),
        ("value = 1", "value = inf", "[reaction] value"),
        ("alpha = 0.5", "alpha = nan", "[boundary] alpha"),
        ("alpha = 0.5", "alpha = inf", "[boundary] alpha"),
        ("center = 0.1", "center = inf", "[boundary] center"),
        ("center = 0.1", "center = 0.1\ndelta = inf", "[boundary] delta"),
        ("p = 2\n", "p = 1.8\n", "[solver] eps_grad"),
        ("q = 2", "q = 2\nmu = " + "-" * 3000 + "1", "[phase] mu"),
        ("p = 2\n", "p = " + "(" * 300 + "2" + ")" * 300 + "\n", "[phase] p"),
    ], ids=["newton_tol-inf", "eps_grad-inf", "p-q-inf", "b-inf", "lx-inf",
            "value-nan", "value-inf", "alpha-nan", "alpha-inf", "center-inf",
            "delta-inf", "eps_grad-underflow", "mu-signs", "p-parentheses"])
    def test_bad_value_is_config_error_at_its_line(self, cfg_file, tmp_path,
                                                   capsys, old, new, key):
        # each of these once gave a raw ValueError, SingularOperatorError or
        # RecursionError (exit 1), or solved with a non-finite setting
        text = (CONTACT.replace("n = 16", "n = 16\ngamma2 = right")
                + "eps_grad = 1e-200\n\n[boundary]\nname = nonconvex_well\n"
                "alpha = 0.5\ncenter = 0.1\n").replace(old, new, 1)
        out = tmp_path / "out"
        code = main(["solve", "--config", cfg_file(text), "--out", str(out)])
        assert code == EXIT_CONFIG
        line = next(n for n, ln in enumerate(text.splitlines(), start=1)
                    if ln.startswith(key.split()[1] + " = "))
        assert capsys.readouterr().err.startswith(
            f"config error: line {line}: {key}: ")
        assert not out.exists()

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_seed_override_recorded(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        cfg = cfg_file(CONTACT)
        main(["solve", "--config", cfg, "--out", str(out), "--seed", "99"])
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99


class TestNormTool:
    def test_constant_example(self, cfg_file, capsys):
        code = main(["norm-tool", "--config", cfg_file(NORMS), "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        mod_line = [l for l in out.splitlines() if l.startswith("modular")][0]
        assert "1.5" in mod_line
        assert any(l.strip().startswith("power-p part") for l in out.splitlines())
        assert "luxemburg_norm" in out
        assert "weighted_seminorm" in out

    def test_zero_expression(self, cfg_file, capsys):
        code = main(["norm-tool", "--config", cfg_file(NORMS), "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0.0" in out

    def test_parse_error(self, cfg_file, capsys):
        code = main(["norm-tool", "--config", cfg_file(NORMS), "1 +"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_wrong_variable_for_dimension(self, cfg_file, capsys):
        code = main(["norm-tool", "--config", cfg_file(NORMS), "y"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: variable(s) ['y'] not available on a 1D mesh\n")


KINKED = STUDY.replace("n = 16", "n = 16\ngamma2 = right") + """
[boundary]
name = abs
alpha = 0.5
delta = 0
"""


class TestBoundaryDelta:
    @pytest.mark.parametrize("command", ["solve", "study", "check"])
    def test_zero_delta_at_a_kink_fails_at_parse_time(self, cfg_file, tmp_path,
                                                      capsys, command):
        line = KINKED.splitlines().index("delta = 0") + 1
        out = tmp_path / "out"
        code = main([command, "--config", cfg_file(KINKED), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: line {line}: [boundary] delta: ")
        assert not out.exists()


class TestSelectionRules:
    @pytest.mark.parametrize("command", ["solve", "study", "check"])
    def test_bad_blend_weight_fails_at_parse_time(self, cfg_file, tmp_path,
                                                  capsys, command):
        text = STUDY.replace("seed = 11", "seed = 11\nselection_rules = lower, blend:2")
        line = text.splitlines().index("selection_rules = lower, blend:2") + 1
        out = tmp_path / "out"
        code = main([command, "--config", cfg_file(text), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: line {line}: [study] selection_rules: "
            "blend selection needs a weight in [0, 1]\n")
        assert not out.exists()


class TestThreads:
    def test_study_threads_do_not_change_the_files(self, cfg_file, tmp_path):
        cfg = cfg_file(STUDY)
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(["study", "--config", cfg, "--out", str(one)]) == EXIT_OK
        assert main(["study", "--config", cfg, "--out", str(two),
                     "--threads", "2"]) == EXIT_OK
        names = sorted(p.name for p in one.iterdir())
        assert names == ["study.csv", "study.json"]
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes()

    @pytest.mark.parametrize("argv", [["solve"], ["check"], ["oracle"],
                                      ["norm-tool", "x"]])
    def test_only_study_takes_threads(self, cfg_file, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--config", cfg_file(CONTACT), "--out",
                  str(tmp_path / "out"), "--threads", "2"])
        assert err.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


class TestCheck:
    def test_passing_report(self, cfg_file, capsys):
        code = main(["check", "--config", cfg_file(CONTACT)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "lambda1_est" in out
        assert "(certified)" in out
        assert "passes" in out
        assert "note:" in out

    def test_failing_smallness_condition(self, cfg_file, capsys):
        text = CONTACT.replace(
            "name = constant\nvalue = 1",
            "name = sign_band\nslope = 4\noffset = 0.1")
        code = main(["check", "--config", cfg_file(text)])
        assert code == EXIT_HYPOTHESIS
        out = capsys.readouterr().out
        assert "smallness_lhs" in out

    @pytest.mark.parametrize("text, lambda2_note", [
        (CONTACT.replace("n = 16", "n = 1"),
         "natural boundary part empty: lambda2 = 0"),
        (NO_FREE_2D, "no free node: lambda2 = 0"),
        (NO_FREE_2D.replace("p = 2\nq = 2", "p = 2.5\nq = 3"),
         "no free node: lambda2 = 0"),
    ], ids=["interval", "square-with-gamma2", "square-with-gamma2-p2.5"])
    def test_mesh_without_free_nodes(self, cfg_file, capsys, text, lambda2_note):
        # every node is Dirichlet: no free node, so lambda1 = 0 is exact, and
        # so is lambda2 = 0, whether or not the natural part is empty
        code = main(["check", "--config", cfg_file(text)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "lambda1_est    = 0.0 (certified)" in out
        assert "lambda2_est    = 0.0 (certified)" in out
        assert "note: no free node: lambda1 = 0" in out
        assert f"note: {lambda2_note}" in out


class TestOracle:
    @staticmethod
    def _assert_kkt(cfg, data):
        spec = config.load_config(cfg).experiment.spec
        assert_oracle_kkt(spec, data["values"], data["multipliers"])

    def test_outputs_on_small_instance(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = cfg_file(CONTACT.replace("n = 16", "n = 12"))
        code = main(["oracle", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads((out / "oracle.json").read_text())
        assert sorted(data) == ["active_nodes", "config_sha256", "iterations",
                                "multipliers", "objective", "seed", "values"]
        assert len(data["values"]) == 13
        assert len(data["config_sha256"]) == 64
        self._assert_kkt(cfg, data)
        csv_lines = (out / "oracle.csv").read_text().split("\n")
        assert csv_lines[2] == "x,u,phi,multiplier"
        assert capsys.readouterr().out.startswith("oracle: objective ")

    def test_sweeps_on_a_larger_instance(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        cfg = cfg_file(CONTACT)
        code = main(["oracle", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads((out / "oracle.json").read_text())
        self._assert_kkt(cfg, data)
        assert data["active_nodes"]
        # the active sets shrink monotonically: at most n_free + 1 sweeps
        assert 0 < data["iterations"] <= 16

    def test_mesh_without_free_nodes(self, cfg_file, tmp_path, capsys):
        # n = 1: both nodes are Dirichlet, K = {0}
        out = tmp_path / "out"
        code = main(["oracle", "--config", cfg_file(CONTACT.replace("n = 16", "n = 1")),
                     "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads((out / "oracle.json").read_text())
        assert data["iterations"] == 0
        assert data["objective"] == 0.0
        assert data["active_nodes"] == []
        assert data["values"] == data["multipliers"] == [0.0, 0.0]
        assert "0 active node(s)" in capsys.readouterr().out

    def test_scope_violation_is_config_error(self, cfg_file, tmp_path,
                                             capsys):
        text = CONTACT.replace("q = 2", "q = 3")
        code = main(["oracle", "--config", cfg_file(text),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG


class TestStudy:
    def test_outputs_and_determinism(self, cfg_file, tmp_path):
        cfg = cfg_file(STUDY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["study", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["study", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        j1 = (out1 / "study.json").read_bytes()
        j2 = (out2 / "study.json").read_bytes()
        assert j1 == j2
        c1 = (out1 / "study.csv").read_bytes()
        c2 = (out2 / "study.csv").read_bytes()
        assert c1 == c2
        data = json.loads(j1)
        assert data["seed"] == 11
        assert data["vi_tol"] == 1e-8
        assert len(data["diagnostics"]["rhos"]) == 5
        header = c1.decode().split("\n")[2]
        assert header.startswith("rho,")
        assert "clarke_gap" not in header

    def test_boundary_column_present_with_natural_part(self, cfg_file,
                                                       tmp_path):
        text = STUDY.replace("n = 16", "n = 16\ngamma2 = right").replace(
            "[study]", "[boundary]\nname = abs\nalpha = 0.1\n\n[study]")
        out = tmp_path / "out"
        assert main(["study", "--config", cfg_file(text),
                     "--out", str(out)]) == EXIT_OK
        header = (out / "study.csv").read_text().split("\n")[2]
        assert header.endswith("clarke_gap")

    def test_negative_seed_flag_is_config_error(self, cfg_file, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        code = main(["study", "--config", cfg_file(STUDY), "--out", str(out),
                     "--seed", "-1"])
        assert code == EXIT_CONFIG
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["solve"], ["study"], ["check"],
                                      ["oracle"], ["norm-tool", "x"]])
    def test_negative_seed_flag_fails_every_subcommand(self, cfg_file, tmp_path,
                                                       capsys, argv):
        out = tmp_path / "out"
        code = main([argv[0], "--config", cfg_file(CONTACT), "--out", str(out),
                     "--seed", "-1", *argv[1:]])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: --seed must be >= 0, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("old,new", [
        ("seed = 11", "seed = -3"),
        ("seed = 11", "seed = 11\nn_random_probes = -1"),
    ], ids=["seed", "n_random_probes"])
    def test_negative_study_value_is_config_error(self, cfg_file, tmp_path,
                                                  capsys, old, new):
        out = tmp_path / "out"
        code = main(["study", "--config", cfg_file(STUDY.replace(old, new)),
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: line ")
        assert "[study]" in err and "must be >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,rule", [
        ("probe_bump", "inf", "finite and > 0"),
        ("dedup_tol", "inf", "finite and > 0"),
        ("cauchy_factor", "inf", "finite and > 0"),
        ("vi_tol", "nan", "finite and >= 0"),
        ("vi_tol", "inf", "finite and >= 0"),
        ("vi_tol", "-1", "finite and >= 0"),
    ])
    def test_non_finite_study_threshold_is_config_error(
            self, cfg_file, tmp_path, capsys, key, value, rule):
        # these once ran the whole study and then died writing study.json
        # (exit 1), or, for vi_tol = -1, passed silently
        text = STUDY.replace("seed = 11", f"seed = 11\n{key} = {value}")
        out = tmp_path / "out"
        code = main(["study", "--config", cfg_file(text), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: line 22: [study] {key}: {key} must be {rule}, got ")
        assert not out.exists()

    def test_builds_the_experiment_once(self, cfg_file, tmp_path,
                                        monkeypatch):
        calls = {}

        def counted(name):
            real = getattr(config, name)

            def wrapper(cfg):
                calls[name] = calls.get(name, 0) + 1
                return real(cfg)
            monkeypatch.setattr(config, name, wrapper)

        for name in ("build_problem", "study_parameters", "build_schedule"):
            counted(name)
        assert main(["study", "--config", cfg_file(STUDY),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls["build_problem"] == 1
        assert calls["study_parameters"] == 1
        # the solver config and the experiment share one parsed schedule
        assert calls["build_schedule"] == 1
