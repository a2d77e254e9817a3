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
  (active-set enumeration up to 14 constrained nodes, projected gradient
  beyond); writes ``oracle.json`` and ``oracle.csv``.

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

import numpy as np

from . import config as cfgmod
from .errors import (
    ConfigurationError,
    EmptySampleError,
    EvaluationError,
    OracleFailure,
)
from .expressions import compile_expression
from .lab import (MAX_ENUM_NODES, kuratowski_study, nearest_point_trace,
                  qp_oracle, validate_hypotheses)
from .meshing import DiscreteFunction
from .musielak import luxemburg_norm, modular, weighted_seminorm
from .nonsmooth import plus_part
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


def _ensure_out(args, cfg):
    out_dir, formats = cfgmod.output_parameters(cfg)
    if args.out is not None:
        out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    return out_dir, formats


def _effective_seed(args, cfg):
    if args.seed is not None:
        return int(args.seed)
    return cfgmod.study_parameters(cfg)["seed"]


def _coord_header(mesh):
    return ["x"] if mesh.dim == 1 else ["x", "y"]


def _coord_cols(mesh, i):
    return [mesh.nodes[i, k] for k in range(mesh.dim)]


# --- subcommands ------------------------------------------------------------


def cmd_solve(args) -> int:
    cfg = cfgmod.load_config(args.config)
    digest = _config_digest(args.config)
    seed = _effective_seed(args, cfg)
    spec = cfgmod.build_problem(cfg)
    solver_cfg = cfgmod.build_solver_config(cfg)
    report = solve_penalized(spec, solver_cfg)
    out_dir, formats = _ensure_out(args, cfg)

    payload = {
        "config_sha256": digest,
        "seed": seed,
        "mode": report.mode,
        "rho": report.rho,
        "converged": report.converged,
        "iterations": report.iterations,
        "residual_norm": report.residual_norm,
        "effective_tol": report.effective_tol,
        "obstacle_violation_sup": report.obstacle_violation_sup,
        "obstacle_violation_l1": report.obstacle_violation_l1,
        "iteration_trace": [
            {
                "iteration": t.iteration,
                "residual_norm": t.residual_norm,
                "step_length": t.step_length,
                "direction": t.direction,
                "note": t.note,
            }
            for t in report.iteration_trace
        ],
    }
    if "json" in formats:
        _write_json(os.path.join(out_dir, "report.json"), payload)
    if "csv" in formats:
        mesh = spec.mesh
        phi = spec.obstacle.values
        viol = plus_part(report.solution, phi).values
        rows = [
            ["config_sha256", digest],
            ["seed", str(seed)],
            _coord_header(mesh) + ["u", "phi", "eta", "violation"],
        ]
        for i in range(mesh.n_nodes):
            rows.append(
                _coord_cols(mesh, i)
                + [
                    report.solution.values[i],
                    phi[i] if np.isfinite(phi[i]) else float("inf"),
                    report.eta[i],
                    viol[i],
                ]
            )
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
    cfg = cfgmod.load_config(args.config)
    digest = _config_digest(args.config)
    seed = _effective_seed(args, cfg)
    spec = cfgmod.build_problem(cfg)
    solver_cfg = cfgmod.build_solver_config(cfg)
    schedule = cfgmod.build_schedule(cfg)
    params = cfgmod.study_parameters(cfg)
    params["seed"] = seed
    diag = kuratowski_study(
        spec,
        schedule,
        solver_cfg,
        threads=args.threads,
        **params,
    )
    out_dir, formats = _ensure_out(args, cfg)
    traces = [nearest_point_trace(diag, cand.solution) for cand in diag.candidates]
    payload = {
        "config_sha256": digest,
        "seed": seed,
        "vi_tol": cfgmod.vi_tolerance(cfg),
        "diagnostics": diag.to_json_dict(include_solutions=True),
        "nearest_point_traces": [
            [{"rho": r, "member": m, "distance": d} for r, m, d in trace]
            for trace in traces
        ],
    }
    if "json" in formats:
        _write_json(os.path.join(out_dir, "study.json"), payload)
    if "csv" in formats:
        rows = diag.csv_rows(traces)
        cooked = [["config_sha256", digest], ["seed", str(seed)]] + rows
        _write_csv(os.path.join(out_dir, "study.csv"), cooked)
    n_cand = len(diag.candidates)
    print(
        f"study finished: {len(schedule)} stages, {n_cand} limit "
        f"candidate(s); outputs in {out_dir}"
    )
    return EXIT_OK


def cmd_norm_tool(args) -> int:
    cfg = cfgmod.load_config(args.config)
    expr = compile_expression(args.expression)
    mesh = cfgmod.build_mesh(cfg)
    allowed = {"x"} if mesh.dim == 1 else {"x", "y"}
    extra = expr.variables - allowed
    if extra:
        raise ConfigurationError(
            f"variable(s) {sorted(extra)} not available on a {mesh.dim}D mesh"
        )
    spec = cfgmod.build_problem(cfg)
    f = DiscreteFunction.from_callable(spec.mesh, expr)
    value = modular(f, spec.phase, of_gradient=False)
    print(f"modular          = {value.value!r}")
    print(f"  power-p part   = {value.p_part!r}")
    print(f"  power-q part   = {value.q_part!r}")
    print(f"luxemburg_norm   = {luxemburg_norm(f, spec.phase, of_gradient=False)!r}")
    print(f"weighted_seminorm= {weighted_seminorm(f, spec.phase)!r}")
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = cfgmod.load_config(args.config)
    spec = cfgmod.build_problem(cfg)
    report = validate_hypotheses(spec)
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
    cfg = cfgmod.load_config(args.config)
    digest = _config_digest(args.config)
    seed = _effective_seed(args, cfg)
    spec = cfgmod.build_problem(cfg)
    phi = spec.obstacle.values
    free = ~spec.mesh.dirichlet_mask
    n_constrained = int(np.count_nonzero(np.isfinite(phi) & free))
    mode = "enumeration" if n_constrained <= MAX_ENUM_NODES else "projected_gradient"
    sol = qp_oracle(spec, mode=mode)
    out_dir, formats = _ensure_out(args, cfg)
    payload = {
        "config_sha256": digest,
        "seed": seed,
        "mode": sol.mode,
        "iterations": sol.iterations,
        "objective": sol.objective,
        "active_nodes": [int(i) for i in sol.active],
        "values": [float(v) for v in sol.values],
        "multipliers": [float(v) for v in sol.multipliers],
    }
    if "json" in formats:
        _write_json(os.path.join(out_dir, "oracle.json"), payload)
    if "csv" in formats:
        mesh = spec.mesh
        rows = [
            ["config_sha256", digest],
            ["seed", str(seed)],
            _coord_header(mesh) + ["u", "phi", "multiplier"],
        ]
        for i in range(mesh.n_nodes):
            rows.append(
                _coord_cols(mesh, i)
                + [
                    sol.values[i],
                    phi[i] if np.isfinite(phi[i]) else float("inf"),
                    sol.multipliers[i],
                ]
            )
        _write_csv(os.path.join(out_dir, "oracle.csv"), rows)
    print(
        f"oracle ({sol.mode}): objective {sol.objective!r}, "
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
        p.add_argument("--threads", type=int, default=1,
                       help="concurrent chains in studies")

    p_solve = sub.add_parser("solve", help="one solve at the first schedule entry")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_study = sub.add_parser("study", help="set-convergence study over the schedule")
    common(p_study)
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
