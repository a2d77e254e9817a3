"""Command-line driver: config-file experiments with deterministic outputs.

Subcommands
-----------
* ``solve`` — one penalized solve at the first schedule entry; writes
  ``report.json`` and ``solution.csv`` (coordinates, state, obstacle,
  selection, constraint violation).
* ``study`` — the full set-convergence study along the schedule; writes
  ``study.json`` (full diagnostics incl. nearest-point traces) and
  ``study.csv`` (one row per schedule entry, ready for log-log plotting).
* ``norm-tool`` — prints modular, Luxemburg norm, and weighted seminorm of a
  function expression interpolated on the configured mesh.
* ``check`` — prints the hypothesis report; exits 4 when it fails.
* ``oracle`` — standalone reference solve of the linear-diffusion instance
  (``qp_oracle``, a primal–dual active-set solve; ``iterations`` counts its
  sweeps); writes ``oracle.json`` and ``oracle.csv``.

Every output file embeds the SHA-256 of the config bytes and the effective
seed; no timestamps are written, and repeated runs with identical config and
seed produce byte-identical files.  Exit codes: 0 success, 2 configuration
error, 3 non-convergence (or oracle/sampling failure), 4 failed hypothesis
check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict

from . import config as cfgmod
from .errors import (
    ConfigurationError,
    EmptySampleError,
    EvaluationError,
    OracleFailure,
)
from .expressions import compile_expression, require_coordinates
from .lab import (check_study, kuratowski_study, nearest_point_trace, qp_oracle,
                  validate_hypotheses)
from .meshing import DiscreteFunction
from .musielak import luxemburg_norm, modular, weighted_seminorm
from .solver import solve_penalized

__all__ = ["main", "cmd_solve", "cmd_study", "cmd_norm_tool", "cmd_check",
           "cmd_oracle"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_HYPOTHESIS = 4


# --- deterministic writers --------------------------------------------------


def _config_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _csv_cell(value):
    if isinstance(value, str):
        return value
    v = float(value)
    return repr(v)


def _write_csv(path, rows):
    lines = [",".join(_csv_cell(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _ensure_out(args, exp):
    out_dir = exp.out_dir if args.out is None else args.out
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _load(args):
    """The built experiment, the SHA-256 of the config bytes and the
    effective seed (``--seed``, checked by :func:`~dpobstacle.lab.check_study`,
    overrides ``[study] seed``)."""
    if args.seed is not None:
        try:
            check_study(seed=args.seed)
        except ConfigurationError as exc:  # the message opens with "seed"
            raise ConfigurationError(f"--{exc}", param="seed") from exc
    exp = cfgmod.load_config(args.config).experiment
    seed = exp.study["seed"] if args.seed is None else args.seed
    return exp, _config_digest(args.config), seed


def _node_rows(mesh, digest, seed, header, columns):
    """Per-node table: digest and seed lines, a header, then each node's
    coordinates followed by its entry of every column."""
    rows = [
        ["config_sha256", digest],
        ["seed", str(seed)],
        ["x", "y"][: mesh.dim] + header,
    ]
    rows.extend([*x, *vals] for x, *vals in zip(mesh.nodes, *columns))
    return rows


# --- subcommands ------------------------------------------------------------


def cmd_solve(args) -> int:
    exp, digest, seed = _load(args)
    report = solve_penalized(exp.spec, exp.solver)
    out_dir = _ensure_out(args, exp)

    payload = {
        "config_sha256": digest,
        "seed": seed,
        "mode": "penalty",
        "rho": report.rho,
        "converged": report.converged,
        "iterations": report.iterations,
        "residual_norm": report.residual_norm,
        "effective_tol": report.effective_tol,
        "obstacle_violation_sup": report.obstacle_violation_sup,
        "obstacle_violation_l1": report.obstacle_violation_l1,
        "iteration_trace": [asdict(t) for t in report.iteration_trace],
    }
    _write_json(os.path.join(out_dir, "report.json"), payload)
    phi = exp.spec.obstacle.values
    viol = exp.spec.constraints.excess(report.solution.values)
    rows = _node_rows(exp.spec.mesh, digest, seed,
                      ["u", "phi", "eta", "violation"],
                      [report.solution.values, phi, report.eta, viol])
    _write_csv(os.path.join(out_dir, "solution.csv"), rows)
    if not report.converged:
        print(
            f"solve did not converge: residual {report.residual_norm:.3e} "
            f"after {report.iterations} iterations",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    print(
        f"solved: residual {report.residual_norm:.3e} in "
        f"{report.iterations} iterations; outputs in {out_dir}"
    )
    return EXIT_OK


def cmd_study(args) -> int:
    exp, digest, seed = _load(args)
    diag = kuratowski_study(
        exp.spec,
        exp.schedule,
        exp.solver,
        threads=args.threads,
        **{**exp.study, "seed": seed},
    )
    out_dir = _ensure_out(args, exp)
    traces = [nearest_point_trace(diag, cand.solution) for cand in diag.candidates]
    payload = {
        "config_sha256": digest,
        "seed": seed,
        "vi_tol": exp.vi_tol,
        "diagnostics": diag.to_json_dict(),
        "nearest_point_traces": [
            [{"rho": r, "member": m, "distance": d} for r, m, d in trace]
            for trace in traces
        ],
    }
    _write_json(os.path.join(out_dir, "study.json"), payload)
    rows = diag.csv_rows(traces)
    cooked = [["config_sha256", digest], ["seed", str(seed)]] + rows
    _write_csv(os.path.join(out_dir, "study.csv"), cooked)
    n_cand = len(diag.candidates)
    print(
        f"study finished: {len(exp.schedule)} stages, {n_cand} limit "
        f"candidate(s); outputs in {out_dir}"
    )
    return EXIT_OK


def cmd_norm_tool(args) -> int:
    spec = _load(args)[0].spec
    expr = require_coordinates(compile_expression(args.expression), spec.mesh.dim)
    f = DiscreteFunction.from_callable(spec.mesh, expr)
    value = modular(f, spec.phase, of_gradient=False)
    print(f"modular          = {value.value!r}")
    print(f"  power-p part   = {value.p_part!r}")
    print(f"  power-q part   = {value.q_part!r}")
    print(f"luxemburg_norm   = {luxemburg_norm(f, spec.phase, of_gradient=False)!r}")
    print(f"weighted_seminorm= {weighted_seminorm(f, spec.phase)!r}")
    return EXIT_OK


def cmd_check(args) -> int:
    report = validate_hypotheses(_load(args)[0].spec)
    print(f"lambda1_est    = {report.lambda1_est!r}"
          f"{' (certified)' if report.lambda1_certified else ' (estimate)'}")
    print(f"lambda2_est    = {report.lambda2_est!r}"
          f"{' (certified)' if report.lambda2_certified else ' (estimate)'}")
    print(f"deltas         = {report.deltas}")
    print(f"smallness_lhs  = {report.smallness_lhs!r}")
    print(f"passes         = {report.passes}")
    for note in report.notes:
        print(f"note: {note}")
    return EXIT_OK if report.passes else EXIT_HYPOTHESIS


def cmd_oracle(args) -> int:
    exp, digest, seed = _load(args)
    spec = exp.spec
    sol = qp_oracle(spec)
    out_dir = _ensure_out(args, exp)
    payload = {
        "config_sha256": digest,
        "seed": seed,
        "iterations": sol.iterations,
        "objective": sol.objective,
        "active_nodes": [int(i) for i in sol.active],
        "values": [float(v) for v in sol.values],
        "multipliers": [float(v) for v in sol.multipliers],
    }
    _write_json(os.path.join(out_dir, "oracle.json"), payload)
    rows = _node_rows(spec.mesh, digest, seed, ["u", "phi", "multiplier"],
                      [sol.values, spec.obstacle.values, sol.multipliers])
    _write_csv(os.path.join(out_dir, "oracle.csv"), rows)
    print(
        f"oracle: objective {sol.objective!r}, "
        f"{len(sol.active)} active node(s); outputs in {out_dir}"
    )
    return EXIT_OK


# --- argument parsing -------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dpobstacle",
        description=(
            "Penalty-based obstacle solver for two-phase nonlinear diffusion "
            "with multivalued reaction and nonsmooth boundary terms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None,
                       help="seed override for sampling")

    p_solve = sub.add_parser("solve", help="one solve at the first schedule entry")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_study = sub.add_parser("study", help="set-convergence study over the schedule")
    common(p_study)
    p_study.add_argument("--threads", type=int, default=1,
                         help="concurrent chains")
    p_study.set_defaults(func=cmd_study)

    p_norm = sub.add_parser("norm-tool", help="norms of an interpolated expression")
    common(p_norm)
    p_norm.add_argument("expression", help="function expression over x (and y)")
    p_norm.set_defaults(func=cmd_norm_tool)

    p_check = sub.add_parser("check", help="validate growth/smallness hypotheses")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="linear-diffusion reference solve")
    common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, EvaluationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EmptySampleError, OracleFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
