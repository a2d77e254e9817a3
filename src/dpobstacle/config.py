"""Experiment configuration: a structured text format with validated blocks.

The format is a single diff-friendly text file of ``[section]`` headers and
``key = value`` lines; ``#`` starts a comment and blank lines are ignored.
Scalar parameters accept the same minimal arithmetic grammar as the field
expressions (so ``alpha = 2^-3`` is legal), but must be constant; the weight
and obstacle fields may use ``x`` (and ``y`` on 2D meshes, as
:func:`~dpobstacle.expressions.require_coordinates` checks).  Unknown
sections or keys, duplicates, and every semantic violation of the owning
modules are hard errors anchored to the offending line.  The accepted
``[reaction]`` and ``[boundary]`` parameter names come from the catalog
registries and the schedule rule from
:func:`~dpobstacle.solver.check_schedule`; errors raised by the catalog,
solver and mesh constructors are re-raised with the line of the key or
section.

Sections and keys (defaults in parentheses):

* ``[mesh]`` — ``dim`` (required); 1D: ``a`` (0), ``b`` (1), ``n`` (required);
  2D: ``lx``, ``ly`` (required), ``nx``, ``ny`` (required);
  ``gamma2`` (``none``): comma list of sides ``left,right[,bottom,top]``.
* ``[phase]`` — ``p``, ``q`` (required), ``mu`` (``0``): expression.
* ``[obstacle]`` — ``phi`` (``inf``): expression or the literal ``inf``.
* ``[reaction]`` — ``name`` (``constant``), ``selection`` (``midpoint``),
  ``blend`` (only for the blend rule), plus the entry's own parameters
  (any of ``catalog.REACTION_PARAMETERS``; the entry rejects the others).
* ``[boundary]`` — ``name`` (``zero``), ``delta`` (1e-6), plus the entry's
  own parameters (any of ``catalog.BOUNDARY_PARAMETERS``).
* ``[solver]`` — ``mode`` (``penalty``, its alias ``moreau_yosida``, or
  ``unconstrained``), ``schedule`` (decades 1 .. 1e-8; nonempty, positive,
  strictly decreasing), ``newton_tol`` (1e-10), ``max_newton`` (100),
  ``eps_grad`` (0 when both exponents are >= 2, else 1e-8),
  ``picard_fallback`` (``true``).
* ``[study]`` — ``n_starts`` (5), ``seed`` (0, >= 0), ``selection_rules``
  (the single configured rule), ``dedup_tol`` (1e-6), ``cauchy_factor``
  (0.5), ``cauchy_window`` (3), ``vi_tol`` (1e-8), ``probe_bump`` (0.01),
  ``n_random_probes`` (32, >= 0).
* ``[output]`` — ``dir`` (``out``), ``formats`` (``json,csv``).

Parsing builds the whole experiment once (problem, solver config, schedule,
study parameters, VI tolerance, output settings) as the cached
``ExperimentConfig.experiment``, so every semantic error surfaces at parse
time and callers read the built objects instead of building them again.
Parsed configurations serialize back to a canonical text that re-parses to
an equal structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .assembly import ProblemSpec
from .catalog import (
    BOUNDARY_NAMES,
    BOUNDARY_PARAMETERS,
    REACTION_NAMES,
    REACTION_PARAMETERS,
    SELECTION_RULES,
    boundary_potential,
    reaction,
)
from .errors import ConfigFileError, ConfigurationError, EvaluationError
from .expressions import compile_expression, require_coordinates
from .meshing import (
    BoundaryPartition,
    DiscreteFunction,
    build_interval_mesh,
    build_rect_mesh,
)
from .musielak import PhaseConfig
from .solver import MODES, SolverConfig, check_schedule

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "parse_config_text",
    "load_config",
    "build_mesh",
    "build_problem",
    "build_solver_config",
    "build_schedule",
    "study_parameters",
    "output_parameters",
]

_SECTION_RE = re.compile(r"^\[([a-z0-9_]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")

_DEFAULT_SCHEDULE = tuple(10.0 ** (-n) for n in range(9))

# structural keys; [reaction] and [boundary] also take the catalog's
# parameter names (``_CATALOG_KEYS``)
_KNOWN_KEYS = {
    "mesh": {"dim", "a", "b", "n", "lx", "ly", "nx", "ny", "gamma2"},
    "phase": {"p", "q", "mu"},
    "obstacle": {"phi"},
    "reaction": {"name", "selection", "blend"},
    "boundary": {"name", "delta"},
    "solver": {"mode", "schedule", "newton_tol", "max_newton", "eps_grad",
               "picard_fallback"},
    "study": {"n_starts", "seed", "selection_rules", "dedup_tol",
              "cauchy_factor", "cauchy_window", "vi_tol", "probe_bump",
              "n_random_probes"},
    "output": {"dir", "formats"},
}
_CATALOG_KEYS = {"reaction": REACTION_PARAMETERS, "boundary": BOUNDARY_PARAMETERS}
_SECTION_ORDER = ("mesh", "phase", "obstacle", "reaction", "boundary",
                  "solver", "study", "output")
_REQUIRED_SECTIONS = ("mesh", "phase")


class Experiment(NamedTuple):
    """Everything one configuration builds, validated."""

    spec: ProblemSpec
    solver: SolverConfig
    schedule: list
    study: dict  # keyword arguments of ``kuratowski_study``
    vi_tol: float
    out_dir: str
    formats: list


@dataclass
class ExperimentConfig:
    """Parsed configuration: raw section/key strings plus line anchors.

    ``experiment`` is built on first use (``parse_config_text`` touches it)
    and cached, as is the ``schedule`` it shares with the solver config.
    """

    sections: dict
    lines: dict = field(default_factory=dict, compare=False, repr=False)
    source: str = field(default="", compare=False, repr=False)

    def line_of(self, section, key=None):
        return self.lines.get((section, key))

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def serialize(self) -> str:
        """Canonical text form; re-parses to an equal configuration."""
        out = []
        for sec in _SECTION_ORDER:
            if sec not in self.sections:
                continue
            out.append(f"[{sec}]")
            for key, value in sorted(self.sections[sec].items()):
                out.append(f"{key} = {value}")
            out.append("")
        return "\n".join(out)

    @cached_property
    def schedule(self) -> list:
        """The validated ``[solver] schedule``, parsed once."""
        return build_schedule(self)

    @cached_property
    def experiment(self) -> Experiment:
        """Every block built and validated, in the order errors are reported."""
        return Experiment(
            build_problem(self),
            build_solver_config(self),
            self.schedule,
            study_parameters(self),
            vi_tolerance(self),
            *output_parameters(self),
        )


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the block format, rejecting structural errors with line anchors."""
    sections, lines = {}, {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _KNOWN_KEYS:
                raise ConfigFileError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ConfigFileError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            lines[(name, None)] = lineno
            current = name
            continue
        m = _KEY_RE.match(line)
        if m:
            if current is None:
                raise ConfigFileError(
                    "key outside of any [section]", line=lineno
                )
            key, value = m.group(1), m.group(2).strip()
            if key not in _accepted_keys(current):
                raise ConfigFileError(
                    f"unknown key {key!r} in section [{current}]", line=lineno
                )
            if key in sections[current]:
                raise ConfigFileError(
                    f"duplicate key {key!r} in section [{current}]", line=lineno
                )
            sections[current][key] = value
            lines[(current, key)] = lineno
            continue
        raise ConfigFileError(f"cannot parse line {raw!r}", line=lineno)
    for sec in _REQUIRED_SECTIONS:
        if sec not in sections:
            raise ConfigFileError(f"missing required section [{sec}]")
    cfg = ExperimentConfig(sections=sections, lines=lines, source=text)
    cfg.experiment  # parse-time semantic validation of every block
    return cfg


def _accepted_keys(section):
    return _KNOWN_KEYS[section] | _CATALOG_KEYS.get(section, frozenset())


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# --- typed readers ----------------------------------------------------------


def _fail(cfg, section, key, message):
    raise ConfigFileError(
        f"[{section}] {key}: {message}", line=cfg.line_of(section, key)
    )


def _const(cfg, section, key, default=None):
    """A constant scalar, written as a number or a variable-free expression."""
    raw = cfg.get(section, key)
    if raw is None:
        if default is None:
            _fail(cfg, section, key, "required key is missing")
        return float(default)
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        expr = compile_expression(raw)
    except EvaluationError as exc:
        _fail(cfg, section, key, str(exc))
    if expr.variables:
        _fail(cfg, section, key,
              f"value must be constant, found variable(s) {sorted(expr.variables)}")
    try:
        return float(expr(np.float64(0.0)))
    except EvaluationError as exc:
        _fail(cfg, section, key, str(exc))


def _int(cfg, section, key, default=None):
    val = _const(cfg, section, key, default)
    if val != int(val):
        _fail(cfg, section, key, f"expected an integer, got {val}")
    return int(val)


def _flag(cfg, section, key, default):
    raw = cfg.get(section, key)
    if raw is None:
        return default
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    _fail(cfg, section, key, f"expected true or false, got {raw!r}")


def _choice(cfg, section, key, choices, default):
    raw = cfg.get(section, key, default)
    if raw not in choices:
        _fail(cfg, section, key,
              f"unknown value {raw!r}; choose from {sorted(choices)}")
    return raw


def _expression(cfg, section, key, dim, default):
    raw = cfg.get(section, key, default)
    try:
        return require_coordinates(compile_expression(raw), dim)
    except EvaluationError as exc:
        _fail(cfg, section, key, str(exc))


def _comma_list(raw):
    return [part.strip() for part in raw.split(",") if part.strip()]


# --- builders ---------------------------------------------------------------


def build_mesh(cfg: ExperimentConfig):
    dim = _int(cfg, "mesh", "dim")
    if dim not in (1, 2):
        _fail(cfg, "mesh", "dim", f"dimension must be 1 or 2, got {dim}")
    g2_raw = cfg.get("mesh", "gamma2", "none")
    if g2_raw == "none":
        partition = BoundaryPartition.all_dirichlet()
    else:
        try:
            partition = BoundaryPartition.from_sides(_comma_list(g2_raw), dim)
        except ConfigurationError as exc:
            _fail(cfg, "mesh", "gamma2", str(exc))
    try:
        if dim == 1:
            a = _const(cfg, "mesh", "a", 0.0)
            b = _const(cfg, "mesh", "b", 1.0)
            n = _int(cfg, "mesh", "n")
            return build_interval_mesh(a, b, n, partition)
        lx = _const(cfg, "mesh", "lx")
        ly = _const(cfg, "mesh", "ly")
        nx = _int(cfg, "mesh", "nx")
        ny = _int(cfg, "mesh", "ny")
        return build_rect_mesh(lx, ly, nx, ny, partition)
    except ConfigurationError as exc:
        raise ConfigFileError(
            f"[mesh]: {exc}", line=cfg.line_of("mesh", None)
        ) from exc


def _build_phase(cfg, mesh):
    p = _const(cfg, "phase", "p")
    q = _const(cfg, "phase", "q")
    mu_expr = _expression(cfg, "phase", "mu", mesh.dim, "0")
    try:
        return PhaseConfig.for_mesh(mesh, p, q, mu_expr)
    except (ConfigurationError, EvaluationError) as exc:
        raise ConfigFileError(
            f"[phase]: {exc}", line=cfg.line_of("phase", None)
        ) from exc


def _build_obstacle(cfg, mesh):
    raw = cfg.get("obstacle", "phi", "inf")
    if raw.strip() == "inf":
        return DiscreteFunction.constant(mesh, np.inf, allow_infinite=True)
    expr = _expression(cfg, "obstacle", "phi", mesh.dim, raw)
    try:
        return DiscreteFunction.from_callable(mesh, expr, allow_infinite=True)
    except (ConfigurationError, EvaluationError) as exc:
        _fail(cfg, "obstacle", "phi", str(exc))


def _build_reaction(cfg):
    name = _choice(cfg, "reaction", "name", set(REACTION_NAMES), "constant")
    rule = _choice(cfg, "reaction", "selection", set(SELECTION_RULES), "midpoint")
    blend = None
    if rule == "blend":
        blend = _const(cfg, "reaction", "blend", 0.5)
    elif cfg.get("reaction", "blend") is not None:
        _fail(cfg, "reaction", "blend",
              "blend weight is only meaningful for the blend rule")
    params = {key: _const(cfg, "reaction", key)
              for key in cfg.sections.get("reaction", {})
              if key not in _KNOWN_KEYS["reaction"]}
    try:
        return reaction(name, rule=rule, blend=blend, **params)
    except ConfigurationError as exc:
        raise ConfigFileError(
            f"[reaction]: {exc}", line=cfg.line_of("reaction", None)
        ) from exc


def _build_boundary(cfg):
    name = _choice(cfg, "boundary", "name", set(BOUNDARY_NAMES), "zero")
    params = {key: _const(cfg, "boundary", key)
              for key in cfg.sections.get("boundary", {})
              if key not in _KNOWN_KEYS["boundary"]}
    try:
        return boundary_potential(name, **params)
    except ConfigurationError as exc:
        raise ConfigFileError(
            f"[boundary]: {exc}", line=cfg.line_of("boundary", None)
        ) from exc


def build_problem(cfg: ExperimentConfig) -> ProblemSpec:
    """Mesh + phase + obstacle + catalog entries, fully validated."""
    mesh = build_mesh(cfg)
    phase = _build_phase(cfg, mesh)
    obstacle = _build_obstacle(cfg, mesh)
    react = _build_reaction(cfg)
    boundary = _build_boundary(cfg)
    finite = np.isfinite(obstacle.values)
    if np.any(obstacle.values[finite] < 0):
        _fail(cfg, "obstacle", "phi",
              "obstacle values must be nonnegative where finite")
    default_eps = 0.0 if min(phase.p, phase.q) >= 2.0 else 1e-8
    eps_grad = _const(cfg, "solver", "eps_grad", default_eps)
    if eps_grad < 0:
        _fail(cfg, "solver", "eps_grad", "gradient regularization must be >= 0")
    if eps_grad == 0.0 and min(phase.p, phase.q) < 2.0:
        _fail(cfg, "solver", "eps_grad",
              "a positive gradient regularization is required when an "
              "exponent is below 2")
    try:
        return ProblemSpec(
            mesh=mesh,
            phase=phase,
            obstacle=obstacle,
            reaction=react,
            boundary=boundary,
            eps_grad=eps_grad,
        )
    except ConfigurationError as exc:
        raise ConfigFileError(str(exc), line=cfg.line_of("phase", None)) from exc


def build_schedule(cfg: ExperimentConfig):
    """The ``[solver] schedule`` numbers, checked by
    :func:`~dpobstacle.solver.check_schedule`; errors name the line."""
    raw = cfg.get("solver", "schedule")
    if raw is None:
        return list(_DEFAULT_SCHEDULE)
    values = []
    for part in _comma_list(raw):
        try:
            values.append(float(part))
        except ValueError:
            _fail(cfg, "solver", "schedule", f"cannot parse entry {part!r}")
    try:
        return check_schedule(values)
    except ConfigurationError as exc:
        _fail(cfg, "solver", "schedule", str(exc))


def build_solver_config(cfg: ExperimentConfig) -> SolverConfig:
    schedule = cfg.schedule
    mode = _choice(cfg, "solver", "mode", MODES, "penalty")
    newton_tol = _const(cfg, "solver", "newton_tol", 1e-10)
    if newton_tol <= 0:
        _fail(cfg, "solver", "newton_tol", "tolerance must be positive")
    max_newton = _int(cfg, "solver", "max_newton", 100)
    if max_newton < 1:
        _fail(cfg, "solver", "max_newton", "iteration budget must be >= 1")
    delta = _const(cfg, "boundary", "delta", 1e-6)
    if delta < 0:
        _fail(cfg, "boundary", "delta", "smoothing delta must be >= 0")
    try:
        return SolverConfig(
            rho=schedule[0],
            mode=mode,
            newton_tol=newton_tol,
            max_newton=max_newton,
            picard_fallback=_flag(cfg, "solver", "picard_fallback", True),
            delta_boundary=delta,
        )
    except ConfigurationError as exc:
        raise ConfigFileError(
            f"[solver]: {exc}", line=cfg.line_of("solver", None)
        ) from exc


def study_parameters(cfg: ExperimentConfig) -> dict:
    """Keyword arguments for the set-convergence study, fully validated."""
    rules_raw = cfg.get("study", "selection_rules")
    if rules_raw is None:
        rules = None
    else:
        rules = []
        for part in _comma_list(rules_raw):
            if ":" in part:
                name, _, weight = part.partition(":")
                if name != "blend":
                    _fail(cfg, "study", "selection_rules",
                          f"only the blend rule takes a weight, got {part!r}")
                try:
                    rules.append(("blend", float(weight)))
                except ValueError:
                    _fail(cfg, "study", "selection_rules",
                          f"cannot parse blend weight in {part!r}")
            elif part in SELECTION_RULES and part != "blend":
                rules.append(part)
            else:
                _fail(cfg, "study", "selection_rules",
                      f"unknown selection rule {part!r}")
    n_starts = _int(cfg, "study", "n_starts", 5)
    if n_starts < 1:
        _fail(cfg, "study", "n_starts", "need at least one start")
    window = _int(cfg, "study", "cauchy_window", 3)
    if window < 1:
        _fail(cfg, "study", "cauchy_window", "window must be >= 1")
    positive = {}
    for key, default in (("dedup_tol", 1e-6), ("cauchy_factor", 0.5),
                         ("probe_bump", 0.01)):
        positive[key] = _const(cfg, "study", key, default)
        if positive[key] <= 0:
            _fail(cfg, "study", key, "must be positive")
    counts = {}
    for key, default in (("seed", 0), ("n_random_probes", 32)):
        counts[key] = _int(cfg, "study", key, default)
        if counts[key] < 0:
            _fail(cfg, "study", key, "must be >= 0")
    return {"n_starts": n_starts, "selection_rules": rules,
            "cauchy_window": window, **positive, **counts}


def vi_tolerance(cfg: ExperimentConfig) -> float:
    return _const(cfg, "study", "vi_tol", 1e-8)


def output_parameters(cfg: ExperimentConfig):
    formats = _comma_list(cfg.get("output", "formats", "json,csv"))
    for fmt in formats:
        if fmt not in ("json", "csv"):
            _fail(cfg, "output", "formats", f"unknown format {fmt!r}")
    return cfg.get("output", "dir", "out"), formats
