"""Experiment-file parsing, validation, and object construction."""

from pathlib import Path

import numpy as np
import pytest

from dpobstacle import config, lab
from dpobstacle.catalog import (
    BOUNDARY_NAMES,
    REACTION_NAMES,
    boundary_potential,
    reaction,
)
from dpobstacle.config import (
    ExperimentConfig,
    build_mesh,
    build_problem,
    build_schedule,
    build_solver_config,
    output_parameters,
    parse_config_text,
    study_parameters,
    vi_tolerance,
)
from dpobstacle.errors import ConfigFileError, ConfigurationError

BASIC = """\
[mesh]
dim = 1
n = 8

[phase]
p = 2
q = 3
mu = 0.5
"""

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
schedule = 1, 1e-2, 1e-4
"""


class TestParsing:
    def test_minimal_file(self):
        cfg = parse_config_text(BASIC)
        assert cfg.get("mesh", "dim") == "1"
        assert cfg.get("phase", "mu") == "0.5"
        assert cfg.get("solver", "schedule") is None

    def test_unknown_section(self):
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(BASIC + "\n[forcing]\nf = 1\n")
        assert "line" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(BASIC.replace("mu = 0.5", "nu = 0.5"))
        assert "nu" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(BASIC + "p = 4\n")
        assert "line 8" in str(err.value) or "duplicate" in str(err.value)

    def test_key_before_any_section(self):
        with pytest.raises(ConfigFileError):
            parse_config_text("dim = 1\n" + BASIC)

    def test_missing_required_section(self):
        with pytest.raises(ConfigFileError):
            parse_config_text("[mesh]\ndim = 1\nn = 4\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\n" + BASIC + "# trailing\n"
        cfg = parse_config_text(text)
        assert cfg.get("mesh", "n") == "8"

    def test_catalog_sections_accept_exactly_the_catalog_parameters(self):
        # the parameter names come from the catalog entries themselves
        react = {k for n in REACTION_NAMES for k, _ in reaction(n).params}
        bound = {k for n in BOUNDARY_NAMES for k, _ in boundary_potential(n).params}
        assert config._accepted_keys("reaction") == react | {
            "name", "selection", "blend"}
        assert config._accepted_keys("boundary") == bound | {"name", "delta"}

    def test_parameter_of_no_catalog_entry_names_its_line(self):
        text = CONTACT.replace("value = 1", "value = 1\nalpha = 2")
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == 15
        assert "alpha" in str(err.value)

    def test_parameter_of_another_entry_names_the_section(self):
        text = CONTACT.replace("value = 1", "lo = 0")
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == 12
        assert "lo" in str(err.value)

    def test_bad_expression_names_its_line(self):
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(BASIC.replace("mu = 0.5", "mu = 0.5 +"))
        assert err.value.line == 8
        assert "mu" in str(err.value)
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(BASIC.replace("q = 3", "q = 3 *"))
        assert err.value.line == 7

    def test_line_numbers_recorded(self):
        cfg = parse_config_text(BASIC)
        assert cfg.line_of("mesh", "dim") == 2
        assert cfg.line_of("phase", "mu") == 8


class TestBuildMesh:
    def test_interval(self):
        mesh = build_mesh(parse_config_text(BASIC))
        assert mesh.dim == 1 and mesh.n_elements == 8

    def test_rectangle_with_sides(self):
        text = """\
[mesh]
dim = 2
lx = 1
ly = 1
nx = 2
ny = 2
gamma2 = bottom, top

[phase]
p = 2
q = 2
"""
        mesh = build_mesh(parse_config_text(text))
        assert mesh.dim == 2
        ys = mesh.nodes[mesh.gamma2_nodes, 1]
        assert set(np.round(ys, 12)) == {0.0, 1.0}

    def test_unknown_side_reports_key(self):
        bad = BASIC.replace("n = 8", "n = 8\ngamma2 = rear")
        with pytest.raises(ConfigFileError) as err:
            build_mesh(parse_config_text(bad))
        assert "gamma2" in str(err.value) or "rear" in str(err.value)

    def test_missing_cell_count(self):
        with pytest.raises(ConfigFileError):
            build_mesh(parse_config_text(BASIC.replace("n = 8\n", "")))


class TestBuildProblem:
    def test_defaults(self):
        spec = build_problem(parse_config_text(BASIC))
        assert spec.phase.p == 2.0 and spec.phase.q == 3.0
        assert np.all(spec.phase.mu == 0.5)
        assert np.all(np.isposinf(spec.obstacle.values))
        assert spec.reaction.name == "constant"
        assert spec.boundary.name == "zero"
        assert spec.eps_grad == 0.0

    def test_expression_obstacle_and_weight(self):
        text = BASIC.replace("mu = 0.5", "mu = 0.5 + 0.25*sin(3*x)")
        text += "\n[obstacle]\nphi = 0.1 + 0.05*x\n"
        spec = build_problem(parse_config_text(text))
        xs = spec.mesh.nodes[:, 0]
        assert np.allclose(spec.obstacle.values, 0.1 + 0.05 * xs)

    def test_y_in_one_dimensional_file_rejected(self):
        text = BASIC + "\n[obstacle]\nphi = 0.1 + y\n"
        with pytest.raises(ConfigFileError) as err:
            build_problem(parse_config_text(text))
        assert "y" in str(err.value)

    def test_negative_obstacle_anchored_to_key(self):
        text = BASIC + "\n[obstacle]\nphi = 0-1\n"
        with pytest.raises(ConfigFileError) as err:
            build_problem(parse_config_text(text))
        assert "phi" in str(err.value) or "nonnegative" in str(err.value)

    def test_power_literal_in_scalar_slot(self):
        text = BASIC.replace("mu = 0.5", "mu = 2^-3")
        spec = build_problem(parse_config_text(text))
        assert np.all(spec.phase.mu == 0.125)

    def test_variable_in_scalar_slot_rejected(self):
        text = BASIC.replace("q = 3", "q = 3 + x")
        with pytest.raises(ConfigFileError):
            build_problem(parse_config_text(text))

    def test_sub_quadratic_exponent_defaults_to_regularized(self):
        text = BASIC.replace("p = 2", "p = 1.5")
        spec = build_problem(parse_config_text(text))
        assert spec.eps_grad == 1e-8
        bad = text + "\n[solver]\neps_grad = 0\n"
        with pytest.raises(ConfigFileError) as err:
            build_problem(parse_config_text(bad))
        assert "eps_grad" in str(err.value)

    def test_reaction_and_boundary_sections(self):
        spec = build_problem(parse_config_text(CONTACT))
        assert spec.reaction.name == "constant"
        assert dict(spec.reaction.params)["value"] == 1.0

    def test_blend_rule(self):
        text = CONTACT.replace("name = constant\nvalue = 1",
                               "name = interval\nlo = 0\nhi = 1\n"
                               "selection = blend\nblend = 0.25")
        spec = build_problem(parse_config_text(text))
        assert spec.reaction.rule == "blend"
        assert spec.reaction.blend == 0.25


class TestBuildSchedule:
    def test_default_decades(self):
        schedule = build_schedule(parse_config_text(BASIC))
        assert schedule == [10.0 ** -k for k in range(9)]

    def test_explicit(self):
        schedule = build_schedule(parse_config_text(CONTACT))
        assert schedule == [1.0, 1e-2, 1e-4]

    @pytest.mark.parametrize("bad,frag", [
        ("schedule = 1, 2", "decreasing"),
        ("schedule = 1, 0", "positive"),
        ("schedule = 1, -0.5", "positive"),
        ("schedule =", "empty"),
        ("schedule = 1, apple", "apple"),
        ("schedule = 1, nan", "finite"),
    ])
    def test_validation_names_key(self, bad, frag):
        text = CONTACT.replace("schedule = 1, 1e-2, 1e-4", bad)
        with pytest.raises(ConfigFileError) as err:
            build_schedule(parse_config_text(text))
        msg = str(err.value)
        assert "schedule" in msg
        assert frag in msg

    def test_nonpositive_rho_error_carries_line_number(self):
        text = CONTACT.replace("schedule = 1, 1e-2, 1e-4",
                               "schedule = 1, 1e-2, 0")
        with pytest.raises(ConfigFileError) as err:
            build_schedule(parse_config_text(text))
        assert err.value.line is not None

    @pytest.mark.parametrize("bad", ["schedule = 1, 2", "schedule = 1, 0",
                                     "schedule ="])
    def test_solver_rule_error_points_at_the_schedule_line(self, bad):
        text = CONTACT.replace("schedule = 1, 1e-2, 1e-4", bad)
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == 17


class TestBuildSolverConfig:
    def test_defaults_and_rho_from_schedule(self):
        cfg = build_solver_config(parse_config_text(CONTACT))
        assert cfg.rho == 1.0
        assert cfg.newton_tol == 1e-10
        assert cfg.max_newton == 100

    @pytest.mark.parametrize("line", ["mode = penalty", "picard_fallback = true"],
                             ids=["mode", "picard_fallback"])
    def test_removed_switches_are_unknown_keys(self, line):
        # the penalty is the one approximation and the fixed-point fallback
        # is always on
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(CONTACT + line + "\n")
        assert err.value.line == 18
        key = line.split(" = ")[0]
        assert f"unknown key {key!r} in section [solver]" in str(err.value)

    def test_negative_tolerance_rejected(self):
        text = CONTACT + "newton_tol = -1\n"
        with pytest.raises(ConfigFileError):
            build_solver_config(parse_config_text(text))


class TestStudyParameters:
    def test_defaults(self):
        # only the written thresholds are passed, the others are left to
        # kuratowski_study; the seed keeps a config default because every
        # command echoes it
        params = study_parameters(parse_config_text(BASIC))
        assert params == {"selection_rules": None, "seed": 0}
        text = BASIC + ("\n[study]\nn_starts = 2\ncauchy_window = 2\n"
                        "dedup_tol = 1e-5\ncauchy_factor = 0.75\n"
                        "probe_bump = 0.02\nn_random_probes = 3\nseed = 4\n")
        assert study_parameters(parse_config_text(text)) == {
            "selection_rules": None, "n_starts": 2, "cauchy_window": 2,
            "dedup_tol": 1e-5, "cauchy_factor": 0.75, "probe_bump": 0.02,
            "n_random_probes": 3, "seed": 4}

    def test_unwritten_thresholds_take_the_study_defaults(self, monkeypatch):
        chains = []
        run = lab.continuation
        monkeypatch.setattr(lab, "continuation",
                            lambda *a, **kw: chains.append(1) or run(*a, **kw))
        exp = parse_config_text(BASIC).experiment
        diag = lab.kuratowski_study(exp.spec, [1.0], exp.solver, **exp.study)
        assert len(chains) == 5  # n_starts
        assert diag.thresholds == {"dedup_tol": 1e-6, "cauchy_factor": 0.5,
                                   "cauchy_window": 3, "probe_bump": 0.01,
                                   "n_random_probes": 32}

    def test_selection_rules_parsed(self):
        text = BASIC + ("\n[study]\nselection_rules = lower, upper, "
                        "blend:0.25\nseed = 7\n")
        params = study_parameters(parse_config_text(text))
        assert params["selection_rules"] == ["lower", "upper",
                                             ("blend", 0.25)]
        assert params["seed"] == 7

    def test_unknown_rule_rejected(self):
        text = BASIC + "\n[study]\nselection_rules = median\n"
        with pytest.raises(ConfigFileError) as err:
            study_parameters(parse_config_text(text))
        assert err.value.line == 11
        assert ("[study] selection_rules: unknown selection rule 'median'"
                in str(err.value))

    @pytest.mark.parametrize("rules,message", [
        ("lower, blend:2", "blend selection needs a weight in [0, 1]"),
        ("lower, blend:-0.5", "blend selection needs a weight in [0, 1]"),
        ("lower, blend", "only the blend rule takes a weight, and it needs one"),
        ("upper:0.5", "only the blend rule takes a weight, and it needs one"),
        ("blend:x", "cannot parse blend weight"),
    ], ids=["weight-above-1", "weight-below-0", "bare-blend", "weight-on-upper",
            "unparsed-weight"])
    def test_rule_errors_name_their_line(self, rules, message):
        # the reaction entry checks each listed rule at parse time
        text = BASIC + f"\n[study]\nselection_rules = {rules}\n"
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == 11
        assert f"[study] selection_rules: {message}" in str(err.value)

    @pytest.mark.parametrize("key", ["seed", "n_random_probes"])
    def test_negative_count_names_its_line(self, key):
        text = BASIC + f"\n[study]\nn_starts = 2\n{key} = -1\n"
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == 12
        assert key in str(err.value)

    @pytest.mark.parametrize("value", ["inf", "nan", "2.5"])
    def test_non_integer_count_names_its_line(self, value):
        # inf and nan once escaped as a raw OverflowError / ValueError
        text = BASIC + f"\n[study]\nn_starts = {value}\n"
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == 11
        assert "expected an integer" in str(err.value)

    def test_zero_counts_accepted(self):
        text = BASIC + "\n[study]\nseed = 0\nn_random_probes = 0\n"
        params = study_parameters(parse_config_text(text))
        assert params["seed"] == 0 and params["n_random_probes"] == 0

    def test_vi_tolerance_default(self):
        assert vi_tolerance(parse_config_text(BASIC)) == 1e-8
        text = BASIC + "\n[study]\nvi_tol = 1e-6\n"
        assert vi_tolerance(parse_config_text(text)) == 1e-6


FULL = """\
[mesh]
dim = 1
n = 8
gamma2 = right

[phase]
p = 2
q = 3

[obstacle]
phi = 0.5

[reaction]
name = interval
lo = 0
hi = 1
selection = blend
blend = 0.5

[boundary]
name = abs
alpha = 1
delta = 1e-6

[solver]
newton_tol = 1e-10
max_newton = 100
eps_grad = 0

[study]
n_starts = 2
seed = 0
dedup_tol = 1e-6
cauchy_factor = 0.5
cauchy_window = 3
probe_bump = 0.01
n_random_probes = 4
"""


class TestOwnerRulesAnchored:
    """Each rule lives in the object it constrains; the config reader only
    points its error at the line of the key that set the value."""

    def test_full_file_is_valid(self):
        exp = parse_config_text(FULL).experiment
        assert exp.spec.reaction.blend == 0.5
        assert exp.study["n_random_probes"] == 4

    @pytest.mark.parametrize("section,key,bad", [
        ("obstacle", "phi", "0-1"),
        ("solver", "eps_grad", "-1"),
        ("solver", "newton_tol", "0"),
        ("solver", "max_newton", "0"),
        ("boundary", "delta", "-1"),
        ("boundary", "delta", "0"),
        ("boundary", "name", "nope"),
        ("boundary", "alpha", "-1"),
        ("reaction", "name", "nope"),
        ("reaction", "selection", "median"),
        ("reaction", "blend", "2"),
        ("mesh", "gamma2", "rear"),
        ("study", "n_starts", "0"),
        ("study", "seed", "-1"),
        ("study", "dedup_tol", "0"),
        ("study", "cauchy_factor", "-0.5"),
        ("study", "cauchy_window", "0"),
        ("study", "probe_bump", "0"),
        ("study", "n_random_probes", "-1"),
    ])
    def test_error_names_the_line_of_the_key(self, section, key, bad):
        lines = FULL.splitlines()
        current = None
        for lineno, line in enumerate(lines, start=1):
            if line.startswith("["):
                current = line.strip("[]")
            elif current == section and line.startswith(f"{key} = "):
                lines[lineno - 1] = f"{key} = {bad}"
                break
        else:
            raise AssertionError(f"[{section}] {key} is not in the file")
        with pytest.raises(ConfigFileError) as err:
            parse_config_text("\n".join(lines) + "\n")
        assert err.value.line == lineno
        assert f"[{section}] {key}:" in str(err.value)

    def test_rule_without_a_key_names_the_section(self):
        # the interval entry's own rule (lo <= hi) names no single parameter
        text = FULL.replace("hi = 1", "hi = -1")
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == 13
        assert "f_lo <= f_hi" in str(err.value)

    def test_missing_key_names_the_section(self):
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(BASIC.replace("q = 3\n", ""))
        assert err.value.line == 5
        assert "[phase] q: required key is missing" in str(err.value)


RECT = """\
[mesh]
dim = 2
lx = 1
ly = 1
nx = 3
ny = 3
gamma2 = right

[phase]
p = 2
q = 2

[boundary]
name = nonconvex_well
alpha = 1
center = 0.5
"""


def _key_line(text, section, key):
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("["):
            current = line.strip("[]")
        elif current == section and line.startswith(f"{key} = "):
            return lineno
    raise AssertionError(f"[{section}] {key} is not in the file")


def _with_values(text, edits):
    """``text`` with the value of each ``(section, key)`` replaced."""
    lines = text.splitlines()
    for (section, key), value in edits.items():
        lines[_key_line(text, section, key) - 1] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


class TestNonFiniteValues:
    """``inf`` and ``nan`` break the rule of the owner that takes the value,
    and the error names the line of its key; at parse time, not in a solve."""

    @pytest.mark.parametrize("text,edits,key", [
        (FULL, {("solver", "newton_tol"): "inf"}, ("solver", "newton_tol")),
        (FULL, {("solver", "eps_grad"): "inf"}, ("solver", "eps_grad")),
        (FULL, {("phase", "q"): "inf"}, ("phase", "q")),
        (FULL, {("phase", "p"): "inf", ("phase", "q"): "inf"}, ("phase", "q")),
        (FULL, {("phase", "p"): "nan"}, ("phase", "p")),
        (FULL.replace("n = 8\n", "b = 1\nn = 8\n"), {("mesh", "b"): "inf"},
         ("mesh", "b")),
        (FULL.replace("n = 8\n", "a = 0\nn = 8\n"), {("mesh", "a"): "-inf"},
         ("mesh", "a")),
        (RECT, {("mesh", "lx"): "inf"}, ("mesh", "lx")),
        (RECT, {("mesh", "ly"): "nan"}, ("mesh", "ly")),
        (FULL, {("reaction", "lo"): "nan"}, ("reaction", "lo")),
        (FULL, {("reaction", "hi"): "inf"}, ("reaction", "hi")),
        (FULL, {("boundary", "alpha"): "nan"}, ("boundary", "alpha")),
        (FULL, {("boundary", "alpha"): "inf"}, ("boundary", "alpha")),
        (FULL, {("boundary", "delta"): "inf"}, ("boundary", "delta")),
        (RECT, {("boundary", "center"): "inf"}, ("boundary", "center")),
    ], ids=["newton_tol-inf", "eps_grad-inf", "q-inf", "p-q-inf", "p-nan",
            "b-inf", "a-inf", "lx-inf", "ly-nan", "lo-nan", "hi-inf", "alpha-nan",
            "alpha-inf", "delta-inf", "center-inf"])
    def test_error_names_the_line_of_the_key(self, text, edits, key):
        text = _with_values(text, edits)
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == _key_line(text, *key)
        assert f"[{key[0]}] {key[1]}:" in str(err.value)

    def test_element_count_names_its_line(self):
        text = _with_values(FULL, {("mesh", "n"): "0"})
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == _key_line(text, "mesh", "n")

    @pytest.mark.parametrize("edits,key", [
        # eps_grad^2 underflows to 0 at the base problem ...
        ({("phase", "p"): "1.8", ("solver", "eps_grad"): "1e-200"},
         ("solver", "eps_grad")),
        # ... or only at the last stage, scaled by rho / schedule[0]
        ({("phase", "p"): "1.8", ("solver", "eps_grad"): "1e-150",
          ("solver", "newton_tol"): "1e-10\nschedule = 1, 1e-30"},
         ("solver", "eps_grad")),
        ({("boundary", "delta"): "1e-300",
          ("solver", "newton_tol"): "1e-10\nschedule = 1, 1e-30"},
         ("boundary", "delta")),
    ], ids=["base", "stage", "stage-delta"])
    def test_underflowing_regularization_names_its_line(self, edits, key):
        text = _with_values(FULL, edits)
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == _key_line(text, *key)
        assert f"[{key[0]}] {key[1]}:" in str(err.value)

    @pytest.mark.parametrize("key,value,message", [
        ("mu", "-" * 3000 + "1", "nested too deeply"),
        ("p", "(" * 300 + "2" + ")" * 300, "nested too deeply"),
        ("mu", "+".join(["x"] * 5000), "nested too deeply"),
        ("mu", "exp(1000*x)", "overflow"),
        ("mu", "x - 1", "weight mu must be finite and >= 0"),
    ], ids=["mu-signs", "p-parentheses", "mu-long-sum", "mu-overflow",
            "mu-negative"])
    def test_bad_expression_names_its_line(self, key, value, message):
        # a weight that fails when sampled names its key, not the section
        text = _with_values(BASIC, {("phase", key): value})
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == _key_line(text, "phase", key)
        assert f"[phase] {key}: " in str(err.value) and message in str(err.value)


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(ROOT.glob("demos/configs/*.cfg")) + sorted(ROOT.glob("tools/*.cfg"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_shipped_config_parses(path):
    # a removed key or a tightened rule cannot silently break a shipped file
    exp = config.load_config(path).experiment
    assert exp.solver.rho == exp.schedule[0]


class TestOutputParameters:
    def test_defaults(self):
        assert output_parameters(parse_config_text(BASIC)) == "out"

    def test_unknown_format_rejected(self):
        # every command writes both files; ``formats`` is no key any more
        text = BASIC + "\n[output]\nformats = json\n"
        with pytest.raises(ConfigFileError) as err:
            parse_config_text(text)
        assert err.value.line == text.splitlines().index("formats = json") + 1
        assert "unknown key 'formats'" in str(err.value)
