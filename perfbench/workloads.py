"""The benchmark's three workloads and their correctness fingerprints.

Every workload has a ``setup(seed, root)`` that builds its inputs and a
``run_pass(state)`` that does one timed pass and returns a :class:`PassResult`.
Calls into ``dpobstacle`` go through module attributes (``solver.continuation``,
``lab.kuratowski_study``, ``cli.main``) so that the span recorder in
``tracing.py`` sees them when it is installed.

A pass result carries one fingerprint entry per *operation* (a stage solve, a
stage sample, a certificate, a CLI command).  Each entry splits into

* ``exact``: flags, iteration counts, exit codes and member labels, compared
  exactly against the stored reference on any platform;
* ``num``: residuals, certificate values and distances, compared to 1e-10
  relative when the reference was recorded on the same platform;
* ``digest``: SHA-256 of the produced arrays or output files, compared when the
  reference was recorded on the same platform.

Within a run every pass must reproduce the first pass exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass

SCHEDULE = [10.0**-k for k in range(7)]  # 1 ... 1e-6
VI_TOL = 1e-8  # the config default of [study] vi_tol
CLI_CONFIGS = ("contact_1d", "double_phase", "mixed_boundary")


@dataclass
class PassResult:
    wall: float
    ops: dict  # operation label -> {"exact": ..., "num": [...], "digest": ...}
    bad: list  # labels of operations that broke an invariant
    newton_iters: int
    latencies: list  # seconds per user-visible operation
    bytes_out: int = 0


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _rect_problem(cells, phi, reaction, **reaction_params):
    """The ROADMAP 2D case: p=2.5, q=3, mu=0.5+0.5x on the unit square, the
    ``abs`` potential (alpha=0.1) on the right side, all other sides clamped."""
    from dpobstacle import assembly, catalog, meshing, musielak

    mesh = meshing.build_rect_mesh(
        1.0, 1.0, cells, cells,
        partition=meshing.BoundaryPartition.from_sides(["right"], 2),
    )
    return assembly.ProblemSpec(
        mesh=mesh,
        phase=musielak.PhaseConfig.for_mesh(mesh, 2.5, 3.0, lambda x, y: 0.5 + 0.5 * x),
        obstacle=meshing.DiscreteFunction.from_callable(mesh, phi),
        reaction=catalog.reaction(reaction, **reaction_params),
        boundary=catalog.boundary_potential("abs", alpha=0.1),
    )


# --- continuation_2d ---------------------------------------------------------


class Continuation2D:
    name = "continuation_2d"
    seeded = False  # no random input: the seed is recorded and ignored
    min_passes = 2
    params = {
        "cells": "128x128 (16,641 nodes)", "p": 2.5, "q": 3, "mu": "0.5+0.5x",
        "phi": 0.05, "reaction": "constant 8", "boundary": "abs alpha=0.1 on right",
        "mode": "penalty", "schedule": "1 ... 1e-6 (7 stages)",
        "start": "zero state", "threads": 1,
    }

    def setup(self, seed, root):
        spec = _rect_problem(128, lambda x, y: 0.05 + 0.0 * x, "constant", value=8.0)
        return {"spec": spec}

    def run_pass(self, state):
        from dpobstacle import solver

        t0 = time.perf_counter()
        reports = solver.continuation(state["spec"], SCHEDULE, solver.SolverConfig())
        wall = time.perf_counter() - t0
        ops, bad = {}, []
        for k, rep in enumerate(reports):
            label = f"stage{k}"
            ops[label] = {
                "exact": [bool(rep.converged), int(rep.iterations)],
                "num": [float(rep.residual_norm)],
                "digest": _sha(rep.solution.values),
            }
            if not rep.converged:
                bad.append(label)
        return PassResult(
            wall=wall, ops=ops, bad=bad,
            newton_iters=sum(int(r.iterations) for r in reports),
            latencies=[wall],
        )


# --- study_2d ----------------------------------------------------------------


class Study2D:
    name = "study_2d"
    seeded = True
    min_passes = 2
    params = {
        "cells": "32x32 (1,089 nodes)", "p": 2.5, "q": 3, "mu": "0.5+0.5x",
        "phi": "0.05+0.1x", "reaction": "interval lo=2 hi=8",
        "boundary": "abs alpha=0.1 on right", "selection_rules": "lower,midpoint,upper",
        "n_starts": 2, "schedule": "1 ... 1e-6 (7 stages)", "threads": 2,
        "then": "nearest_point_trace for every candidate",
    }

    def setup(self, seed, root):
        spec = _rect_problem(32, lambda x, y: 0.05 + 0.1 * x, "interval", lo=2.0, hi=8.0)
        return {"spec": spec, "seed": seed}

    def run_pass(self, state):
        from dpobstacle import lab, solver

        t0 = time.perf_counter()
        diag = lab.kuratowski_study(
            state["spec"], SCHEDULE, solver.SolverConfig(), n_starts=2,
            selection_rules=["lower", "midpoint", "upper"], seed=state["seed"],
            threads=2,
        )
        traces = [lab.nearest_point_trace(diag, c.solution) for c in diag.candidates]
        wall = time.perf_counter() - t0

        ops, bad = {}, []
        for k, sample in enumerate(diag.samples):
            ms = sample.members
            ops[f"stage{k}"] = {
                "exact": [[m.rule, int(m.start), int(m.report.iterations),
                           bool(m.report.converged)] for m in ms],
                "num": [float(m.report.residual_norm) for m in ms],
                "digest": _sha(*(m.solution.values for m in ms)),
            }
        if len(diag.samples) != len(SCHEDULE):
            bad.append("stages")
        ops["candidates"] = {"exact": [len(diag.candidates)], "num": [], "digest": ""}
        if not diag.candidates:
            bad.append("candidates")
        for j, (cand, trace) in enumerate(zip(diag.candidates, traces)):
            label = f"cand{j}"
            ops[label] = {
                "exact": [cand.rule, int(cand.start), int(cand.probe_count),
                          [int(m) for _, m, _ in trace]],
                "num": [float(cand.vi_value), *map(float, cand.step_distances),
                        *(float(d) for _, _, d in trace)],
                "digest": _sha(cand.solution.values, cand.eta),
            }
            if not cand.vi_value >= -VI_TOL:
                bad.append(label)
        iters = sum(int(m.report.iterations) for s in diag.samples for m in s.members)
        return PassResult(wall=wall, ops=ops, bad=bad, newton_iters=iters,
                          latencies=[wall])


# --- cli_demos ---------------------------------------------------------------


class CliDemos:
    name = "cli_demos"
    seeded = True
    # The tail latency needs ten samples beyond it; the slowest command runs
    # once per pass, so 11 passes keep the tail inside that command's samples.
    min_passes = 11
    params = {
        "configs": "demos/configs/{contact_1d,double_phase,mixed_boundary}.cfg",
        "commands": "solve, study, check on each; oracle on contact_1d",
        "expected_exit": 0, "call": "dpobstacle.cli.main in-process, fresh --out",
    }

    def commands(self):
        for cfg in CLI_CONFIGS:
            for cmd in ("solve", "study", "check") + (("oracle",) if cfg == "contact_1d" else ()):
                yield cfg, cmd

    def setup(self, seed, root):
        import dpobstacle.cli  # noqa: F401  (every CLI invocation pays this import)
        from dpobstacle import config

        cfg_dir = os.path.join(root, "demos", "configs")
        for cfg in CLI_CONFIGS:
            config.load_config(os.path.join(cfg_dir, cfg + ".cfg"))
        # relative paths keep the printed output the same in every checkout
        out = os.path.join(".bench_build", "perfbench", "cli")
        return {"seed": seed, "root": root, "out": out,
                "cfg_dir": os.path.relpath(cfg_dir, root)}

    def run_pass(self, state):
        from dpobstacle import cli

        root = state["root"]
        ops, bad, lat = {}, [], []
        iters = 0
        nbytes = 0
        t_pass = time.perf_counter()
        for cfg, cmd in self.commands():
            out = os.path.join(state["out"], f"{cfg}-{cmd}")
            shutil.rmtree(os.path.join(root, out), ignore_errors=True)
            argv = [cmd, "--config", os.path.join(state["cfg_dir"], cfg + ".cfg"),
                    "--out", out, "--seed", str(state["seed"])]
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(argv)
            lat.append(time.perf_counter() - t0)
            files = {}
            out_abs = os.path.join(root, out)
            if os.path.isdir(out_abs):
                for fname in sorted(os.listdir(out_abs)):
                    with open(os.path.join(out_abs, fname), "rb") as fh:
                        data = fh.read()
                    files[fname] = hashlib.sha256(data).hexdigest()
                    nbytes += len(data)
                    if fname == "report.json":
                        iters += int(json.loads(data)["iterations"])
            files["<stdout>"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            label = f"{cfg}.{cmd}"
            ops[label] = {"exact": [int(rc)], "num": [], "digest": files}
            if rc != 0:
                bad.append(label)
        wall = time.perf_counter() - t_pass
        return PassResult(wall=wall, ops=ops, bad=bad, newton_iters=iters,
                          latencies=lat, bytes_out=nbytes)


WORKLOADS = {w.name: w for w in (Continuation2D(), Study2D(), CliDemos())}


# --- fingerprint comparison --------------------------------------------------


def _close(a, b, rel=1e-10):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def op_mismatch(value, ref, same_platform):
    """Why ``value`` differs from the reference entry ``ref`` (None if it
    matches).  Numbers and digests are only compared on the platform the
    reference was recorded on."""
    if value is None:
        return "missing"
    if value["exact"] != ref["exact"]:
        return f"exact {value['exact']} != {ref['exact']}"
    if not same_platform:
        return None
    if len(value["num"]) != len(ref["num"]) or not all(
        _close(a, b) for a, b in zip(value["num"], ref["num"])
    ):
        return f"numbers differ beyond 1e-10 relative: {value['num']} vs {ref['num']}"
    if value["digest"] != ref["digest"]:
        return "digest differs"
    return None
