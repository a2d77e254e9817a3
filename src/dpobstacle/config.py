"""Experiment configuration: a structured text format with validated blocks.

The format is a single diff-friendly text file of ``[section]`` headers and
``key = value`` lines; ``#`` starts a comment and blank lines are ignored.
Scalar parameters accept the same minimal arithmetic grammar as the field
expressions (so ``alpha = 2^-3`` is legal), but must be constant; the weight
and obstacle fields may use ``x`` (and ``y`` on 2D meshes, as
:func:`~dpobstacle.expressions.require_coordinates` checks).  Unknown
sections or keys and duplicates are hard errors anchored to their line.

This module parses values and restates no rule of the objects it builds;
a ``[solver]``, ``[boundary]`` or ``[study]`` threshold key reaches its
owner only when written, so the owner's default applies otherwise.  Each
owner raises a :class:`ConfigurationError` naming its parameter in
``param``, and one helper re-raises it as a :class:`ConfigFileError` at
that key's line (``_PARAM_KEYS`` maps ``obstacle`` to ``phi``, ``rule`` to
``selection``, ``sides`` to ``gamma2``, ``n_elements`` to ``n``), else at the
section line.  Every number an owner takes must be finite, so ``inf`` and
``nan`` fail at their line too (only ``phi = inf`` means "no obstacle").
``[reaction]`` / ``[boundary]`` parameter names come from the catalog
registries.

Sections and keys (defaults in parentheses):

* ``[mesh]`` — ``dim`` (required); 1D: ``a`` (0), ``b`` (1), ``n`` (required);
  2D: ``lx``, ``ly`` (required), ``nx``, ``ny`` (required);
  ``gamma2`` (``none``): comma list of sides ``left,right[,bottom,top]``.
* ``[phase]`` — ``p``, ``q`` (required), ``mu`` (``0``): expression.
* ``[obstacle]`` — ``phi`` (``inf``): expression or the literal ``inf``.
* ``[reaction]`` — ``name`` (``constant``), ``selection`` (``midpoint``),
  ``blend`` (only for the blend rule), plus the entry's own parameters
  (any of ``catalog.REACTION_PARAMETERS``; the entry rejects the others).
* ``[boundary]`` — ``name`` (``zero``), plus the entry's parameters (any of
  ``catalog.BOUNDARY_PARAMETERS``, such as the smoothing ``delta``, 1e-6).
* ``[solver]`` — ``schedule`` (decades 1 .. 1e-8), the ``ProblemSpec``
  field ``eps_grad`` (0 when both exponents are >= 2, else 1e-8), and the
  ``SolverConfig`` fields ``newton_tol`` (1e-10) and ``max_newton`` (100).
* ``[study]`` — ``seed`` (0; every command echoes it), ``selection_rules``
  (the single configured rule; each listed rule is checked by the reaction
  entry through :func:`~dpobstacle.lab.selection_variants`), ``vi_tol``
  (1e-8, finite and >= 0), and the thresholds ``n_starts``, ``dedup_tol``,
  ``cauchy_factor``, ``cauchy_window``, ``probe_bump`` and
  ``n_random_probes``, whose defaults are those of
  :func:`~dpobstacle.lab.kuratowski_study`.
* ``[output]`` — ``dir`` (``out``); every command writes both its JSON and
  its CSV file there.

Parsing builds the whole experiment once (problem, solver config, schedule,
study parameters, VI tolerance, output settings) as the cached
``ExperimentConfig.experiment``, so every semantic error surfaces at parse
time and callers read the built objects instead of building them again.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .assembly import ProblemSpec
from .catalog import (
    BOUNDARY_PARAMETERS,
    REACTION_PARAMETERS,
    boundary_potential,
    reaction,
)
from .errors import ConfigFileError, ConfigurationError, EvaluationError
from .expressions import compile_expression, require_coordinates
from .lab import STUDY_RULES, check_study, selection_variants
from .meshing import (
    BoundaryPartition,
    DiscreteFunction,
    build_interval_mesh,
    build_rect_mesh,
)
from .musielak import PhaseConfig
from .solver import SolverConfig, check_schedule, stages

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
    "boundary": {"name"},
    "solver": {"schedule", "newton_tol", "max_newton", "eps_grad"},
    "study": {"selection_rules", *STUDY_RULES},
    "output": {"dir"},
}
_CATALOG_KEYS = {"reaction": REACTION_PARAMETERS, "boundary": BOUNDARY_PARAMETERS}
_REQUIRED_SECTIONS = ("mesh", "phase")


class Experiment(NamedTuple):
    """Everything one configuration builds, validated."""

    spec: ProblemSpec
    solver: SolverConfig
    schedule: list
    study: dict  # keyword arguments of ``kuratowski_study``
    vi_tol: float
    out_dir: str


@dataclass
class ExperimentConfig:
    """Parsed configuration: raw section/key strings plus line anchors.

    ``experiment`` is built on first use (``parse_config_text`` touches it)
    and cached, as are the ``schedule`` it shares with the solver config and
    the ``reaction`` it shares with the study's selection rules.
    """

    sections: dict
    lines: dict = field(default_factory=dict, compare=False, repr=False)

    def line_of(self, section, key=None):
        return self.lines.get((section, key))

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    @cached_property
    def schedule(self) -> list:
        """The validated ``[solver] schedule``, parsed once."""
        return build_schedule(self)

    @cached_property
    def reaction(self):
        """The ``[reaction]`` entry, built once."""
        return _build_reaction(self)

    @cached_property
    def experiment(self) -> Experiment:
        """Every block built and validated, in the order errors are reported;
        the problem of each schedule stage (its ``eps_grad`` and ``delta``
        scaled down) is checked by its owner too."""
        spec, solver = build_problem(self), build_solver_config(self)
        with _anchored(self, "solver", "schedule"):
            stages(spec, self.schedule, solver)
        return Experiment(spec, solver, self.schedule, study_parameters(self),
                          vi_tolerance(self), output_parameters(self))


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
    cfg = ExperimentConfig(sections=sections, lines=lines)
    cfg.experiment  # parse-time semantic validation of every block
    return cfg


def _accepted_keys(section):
    return _KNOWN_KEYS[section] | _CATALOG_KEYS.get(section, frozenset())


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# --- typed readers ----------------------------------------------------------


def _fail(cfg, section, key, message):
    """Raise a ConfigFileError at the line of ``key``, or of ``section`` when
    the key is not written."""
    line = cfg.line_of(section, key) or cfg.line_of(section)
    where = f"[{section}] {key}" if key else f"[{section}]"
    raise ConfigFileError(f"{where}: {message}", line=line)


# where an owner's parameter is written, when that is not the key of the
# same name in the section being built
_PARAM_KEYS = {
    "obstacle": ("obstacle", "phi"),
    "eps_grad": ("solver", "eps_grad"),
    "delta": ("boundary", "delta"),
    "rule": ("reaction", "selection"),
    "sides": ("mesh", "gamma2"),
    "n_elements": ("mesh", "n"),
}


@contextmanager
def _anchored(cfg, section, key=None):
    """Re-raise an owner's :class:`ConfigurationError` (or an expression's
    :class:`EvaluationError`) at the line of the key its ``param`` names,
    else at ``key``, else at the ``section`` line."""
    try:
        yield
    except ConfigFileError:
        raise
    except (ConfigurationError, EvaluationError) as exc:
        param = getattr(exc, "param", None)
        if param is not None:
            section, key = _PARAM_KEYS.get(param, (section, param))
        _fail(cfg, section, key, str(exc))


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
    with _anchored(cfg, section, key):
        expr = compile_expression(raw)
        if expr.variables:
            _fail(cfg, section, key, "value must be constant, found "
                  f"variable(s) {sorted(expr.variables)}")
        return float(expr(np.float64(0.0)))


def _int(cfg, section, key, default=None):
    val = _const(cfg, section, key, default)
    if not val.is_integer():
        _fail(cfg, section, key, f"expected an integer, got {val}")
    return int(val)


def _expression(cfg, section, key, dim, default):
    with _anchored(cfg, section, key):
        return require_coordinates(
            compile_expression(cfg.get(section, key, default)), dim)


def _comma_list(raw):
    return [part.strip() for part in raw.split(",") if part.strip()]


def _written(cfg, section, readers):
    """Each key of ``readers`` that ``section`` writes, read by its reader;
    the keys left out take their owner's default."""
    return {key: read(cfg, section, key) for key, read in readers.items()
            if cfg.get(section, key) is not None}


# --- builders ---------------------------------------------------------------


def build_mesh(cfg: ExperimentConfig):
    dim = _int(cfg, "mesh", "dim")
    if dim not in (1, 2):
        _fail(cfg, "mesh", "dim", f"dimension must be 1 or 2, got {dim}")
    g2_raw = cfg.get("mesh", "gamma2", "none")
    sides = [] if g2_raw == "none" else _comma_list(g2_raw)
    with _anchored(cfg, "mesh"):
        partition = BoundaryPartition.from_sides(sides, dim)
        if dim == 1:
            return build_interval_mesh(_const(cfg, "mesh", "a", 0.0),
                                       _const(cfg, "mesh", "b", 1.0),
                                       _int(cfg, "mesh", "n"), partition)
        return build_rect_mesh(_const(cfg, "mesh", "lx"), _const(cfg, "mesh", "ly"),
                               _int(cfg, "mesh", "nx"), _int(cfg, "mesh", "ny"),
                               partition)


def _build_phase(cfg, mesh):
    p = _const(cfg, "phase", "p")
    q = _const(cfg, "phase", "q")
    mu_expr = _expression(cfg, "phase", "mu", mesh.dim, "0")
    # the weight is sampled and checked here, so its errors name ``mu``
    with _anchored(cfg, "phase", "mu"):
        return PhaseConfig.for_mesh(mesh, p, q, mu_expr)


def _build_obstacle(cfg, mesh):
    raw = cfg.get("obstacle", "phi", "inf")
    if raw.strip() == "inf":
        return DiscreteFunction.constant(mesh, np.inf, allow_infinite=True)
    expr = _expression(cfg, "obstacle", "phi", mesh.dim, raw)
    with _anchored(cfg, "obstacle", "phi"):
        return DiscreteFunction.from_callable(mesh, expr, allow_infinite=True)


def _catalog_params(cfg, section):
    """The section's catalog parameters: every key but the structural ones."""
    return {key: _const(cfg, section, key) for key in cfg.sections.get(section, {})
            if key not in _KNOWN_KEYS[section]}


def _build_reaction(cfg):
    rule = cfg.get("reaction", "selection", "midpoint")
    blend = _const(cfg, "reaction", "blend", 0.5) if rule == "blend" else None
    params = _catalog_params(cfg, "reaction")
    with _anchored(cfg, "reaction"):
        spec = reaction(cfg.get("reaction", "name", "constant"), rule=rule,
                        blend=blend, **params)
    if blend is None and cfg.get("reaction", "blend") is not None:
        _fail(cfg, "reaction", "blend",
              "blend weight is only meaningful for the blend rule")
    return spec


def _build_boundary(cfg):
    params = _catalog_params(cfg, "boundary")
    with _anchored(cfg, "boundary"):
        return boundary_potential(cfg.get("boundary", "name", "zero"), **params)


def build_problem(cfg: ExperimentConfig) -> ProblemSpec:
    """Mesh + phase + obstacle + catalog entries, checked by their owners."""
    mesh = build_mesh(cfg)
    phase = _build_phase(cfg, mesh)
    obstacle = _build_obstacle(cfg, mesh)
    react = cfg.reaction
    boundary = _build_boundary(cfg)
    with _anchored(cfg, "phase"):
        return ProblemSpec(mesh=mesh, phase=phase, obstacle=obstacle,
                           reaction=react, boundary=boundary,
                           **_written(cfg, "solver", {"eps_grad": _const}))


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
    with _anchored(cfg, "solver", "schedule"):
        return check_schedule(values)


def build_solver_config(cfg: ExperimentConfig) -> SolverConfig:
    """The written solver settings, checked by
    :class:`~dpobstacle.solver.SolverConfig` (``rho`` is the first schedule
    entry)."""
    settings = _written(cfg, "solver", {"newton_tol": _const, "max_newton": _int})
    with _anchored(cfg, "solver"):
        return SolverConfig(rho=cfg.schedule[0], **settings)


def study_parameters(cfg: ExperimentConfig) -> dict:
    """Keyword arguments for the set-convergence study: ``seed``,
    ``selection_rules`` and the written thresholds (the others take
    :func:`~dpobstacle.lab.kuratowski_study`'s defaults).  Each listed
    selection rule is checked by the reaction entry through
    :func:`~dpobstacle.lab.selection_variants`, the written values by
    :func:`~dpobstacle.lab.check_study`."""
    rules_raw = cfg.get("study", "selection_rules")
    if rules_raw is None:
        rules = None
    else:
        rules = []
        for part in _comma_list(rules_raw):
            name, weighted, weight = part.partition(":")
            if bool(weighted) != (name == "blend"):
                _fail(cfg, "study", "selection_rules", "only the blend rule takes "
                      f"a weight, and it needs one (blend:W), got {part!r}")
            if not weighted:
                rules.append(name)
                continue
            try:
                rules.append(("blend", float(weight)))
            except ValueError:
                _fail(cfg, "study", "selection_rules",
                      f"cannot parse blend weight in {part!r}")
        with _anchored(cfg, "study", "selection_rules"):
            selection_variants(cfg.reaction, rules)
    written = _written(cfg, "study", {
        name: _int if count else _const
        for name, (_, _, count) in STUDY_RULES.items() if name != "vi_tol"})
    with _anchored(cfg, "study"):
        check_study(**written)
    # every command echoes the effective seed, so the file's default is 0
    return {"selection_rules": rules, "seed": 0, **written}


def vi_tolerance(cfg: ExperimentConfig) -> float:
    """``[study] vi_tol`` (1e-8), checked by
    :func:`~dpobstacle.lab.check_study` (finite and >= 0)."""
    vi_tol = _const(cfg, "study", "vi_tol", 1e-8)
    with _anchored(cfg, "study", "vi_tol"):
        check_study(vi_tol=vi_tol)
    return vi_tol


def output_parameters(cfg: ExperimentConfig) -> str:
    """The ``[output] dir`` (``out``)."""
    return cfg.get("output", "dir", "out")
