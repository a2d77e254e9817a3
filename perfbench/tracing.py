"""Span recorder that times dpobstacle's layers from outside the package.

``Recorder.install()`` replaces the public functions listed in ``TARGETS`` at
the module (or class) attribute their callers look up, for example
``dpobstacle.solver.assemble_system`` or ``scipy.sparse.linalg.spsolve``, with
wrappers that record one span per call: name, start, end, thread and parent.
Each thread keeps its own stack, so spans nest correctly under
``kuratowski_study(threads=2)``; a span that opens on a pool thread with an
empty stack takes the main thread's innermost open span as its parent.
``Recorder.uninstall()`` puts every original back.  Spans stay in memory and are
written out once, at the end of the run.

``unit_metrics`` turns the spans of one traced set-up plus pass into the
per-layer metrics.  Counts that the solver does not report itself (line-search
trials, Picard steps, regularised solves, probes) come from the returned
``SolveReport`` / ``KuratowskiDiagnostics`` objects and call arguments only.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter

# Which end-to-end metric, on which workload, each layer metric should move.
PREDICTS = {
    "meshing.build_s": "setup_s on continuation_2d",
    "meshing.element_gradients_s": "wall_s on study_2d",
    "meshing.element_gradients_calls": "wall_s on study_2d",
    "musielak.luxemburg_s": "wall_s on study_2d; cmd_s on cli_demos",
    "musielak.luxemburg_calls": "wall_s on study_2d; cmd_s on cli_demos",
    "catalog.select_s": "wall_s on study_2d; cmd_s on cli_demos",
    "nonsmooth.project_s": "wall_s and peak_rss_mb on study_2d",
    "nonsmooth.project_calls": "wall_s and peak_rss_mb on study_2d",
    "nonsmooth.contains_s": "wall_s on study_2d",
    "assembly.jacobian_s": "wall_s on continuation_2d; cmd_s on cli_demos",
    "assembly.jacobian_calls": "wall_s on continuation_2d; cmd_s on cli_demos",
    "assembly.jacobian_self_s": "wall_s on continuation_2d; cmd_s on cli_demos",
    "assembly.operator_jacobian_s": "wall_s on continuation_2d; cmd_s on cli_demos",
    "assembly.reaction_term_s": "wall_s on continuation_2d; cmd_s on cli_demos",
    "assembly.residual_s": "wall_s on continuation_2d",
    "assembly.residual_calls": "wall_s on continuation_2d",
    "assembly.apply_operator_s": "wall_s on study_2d",
    "assembly.apply_operator_calls": "wall_s on study_2d",
    "assembly.jacobian_nnz": "wall_s on continuation_2d",
    "assembly.jacobian_bytes": "wall_s on continuation_2d",
    "solver.solve_s": "wall_s on every workload",
    "solver.solve_calls": "wall_s on every workload",
    "solver.solve_self_s": "wall_s on every workload",
    "solver.linsolve_s": "wall_s on continuation_2d (barely cmd_s on cli_demos)",
    "solver.linsolve_calls": "wall_s on continuation_2d",
    "solver.regularized_solves": "newton_iters and wall_s on continuation_2d",
    "solver.picard_steps": "newton_iters and wall_s on continuation_2d",
    "solver.fp_floor_stages": "newton_iters and wall_s on continuation_2d",
    "solver.linesearch_trials": "wall_s on continuation_2d",
    "solver.linesearch_halvings": "wall_s on continuation_2d",
    "solver.linesearch_accept_ratio": "wall_s on continuation_2d",
    "solver.linesearch_s": "wall_s on continuation_2d",
    "solver.vi_s": "wall_s and peak_rss_mb on study_2d",
    "solver.vi_calls": "wall_s on study_2d",
    "solver.vi_probes": "wall_s and peak_rss_mb on study_2d",
    "lab.study_s": "wall_s on study_2d",
    "lab.study_self_s": "wall_s on study_2d",
    "lab.vi_useful_ratio": "wall_s on study_2d",
    "lab.solve_overlap": "wall_s on study_2d",
    "lab.trace_s": "wall_s on study_2d; cmd_s on cli_demos",
    "lab.oracle_s": "cmd_s on cli_demos",
    "lab.check_s": "cmd_s on cli_demos",
    "config.load_s": "setup_s and cmd_s on cli_demos",
    "cli.self_s": "cmd_s on cli_demos",
    "cli.bytes_out": "cmd_s on cli_demos",
    "trace.wall_s": "(traced pass wall time)",
    "trace.overhead_s": "(traced minus untraced wall_s)",
    "trace.self_sum_s": "(sum of self times in a traced pass)",
    "trace.spans": "(spans recorded per traced pass)",
}


def _assembly_name(args, kwargs):
    with_jacobian = kwargs.get("with_jacobian", args[6] if len(args) > 6 else True)
    return "assembly.jacobian" if with_jacobian else "assembly.residual"


def _jacobian_info(args, kwargs, system):
    J = system.jacobian
    if J is None:
        return None
    return J.nnz, J.data.nbytes + J.indices.nbytes + J.indptr.nbytes


def _solve_info(args, kwargs, report):
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    return {
        "steps": [(e.direction, e.note) for e in report.iteration_trace[1:]],
        "fp_floor": report.effective_tol > cfg.newton_tol,
    }


def _probe_count(args, kwargs, result):
    return len(kwargs.get("probes", args[3] if len(args) > 3 else ()))


def _candidate_count(args, kwargs, diagnostics):
    return len(diagnostics.candidates)


# (module, attribute path, span name or name function, info function)
TARGETS = [
    ("dpobstacle.meshing", "build_rect_mesh", "meshing.build", None),
    ("dpobstacle.meshing", "build_interval_mesh", "meshing.build", None),
    ("dpobstacle.config", "build_rect_mesh", "meshing.build", None),
    ("dpobstacle.config", "build_interval_mesh", "meshing.build", None),
    ("dpobstacle.meshing", "Mesh.element_gradients", "meshing.element_gradients", None),
    ("dpobstacle.lab", "luxemburg_norm", "musielak.luxemburg", None),
    ("dpobstacle.catalog", "ReactionSpec.select_with_partials", "catalog.select", None),
    ("dpobstacle.nonsmooth", "ConstraintSet.project_values", "nonsmooth.project", None),
    ("dpobstacle.nonsmooth", "ConstraintSet.contains", "nonsmooth.contains", None),
    ("dpobstacle.solver", "assemble_system", _assembly_name, _jacobian_info),
    ("dpobstacle.assembly", "operator_jacobian", "assembly.operator_jacobian", None),
    ("dpobstacle.lab", "operator_jacobian", "assembly.operator_jacobian", None),
    ("dpobstacle.assembly", "reaction_term", "assembly.reaction_term", None),
    ("dpobstacle.solver", "apply_operator", "assembly.apply_operator", None),
    ("dpobstacle.solver", "solve_penalized", "solver.solve", _solve_info),
    ("dpobstacle.lab", "solve_penalized", "solver.solve", _solve_info),
    ("dpobstacle.cli", "solve_penalized", "solver.solve", _solve_info),
    ("scipy.sparse.linalg", "spsolve", "solver.linsolve", None),
    ("dpobstacle.lab", "vi_residual", "solver.vi", _probe_count),
    ("dpobstacle.lab", "kuratowski_study", "lab.study", _candidate_count),
    ("dpobstacle.cli", "kuratowski_study", "lab.study", _candidate_count),
    ("dpobstacle.lab", "nearest_point_trace", "lab.trace", None),
    ("dpobstacle.cli", "nearest_point_trace", "lab.trace", None),
    ("dpobstacle.cli", "qp_oracle", "lab.oracle", None),
    ("dpobstacle.cli", "validate_hypotheses", "lab.check", None),
    ("dpobstacle.config", "load_config", "config.load", None),
    ("dpobstacle.config", "build_problem", "config.load", None),
    ("dpobstacle.config", "build_solver_config", "config.load", None),
    ("dpobstacle.config", "build_schedule", "config.load", None),
    ("dpobstacle.cli", "main", "cli.main", None),
]


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def installed_wrappers():
    """Targets that currently hold a recorder wrapper (empty when clean)."""
    found = []
    for module, path, _, _ in TARGETS:
        owner, attr = _resolve(module, path)
        if getattr(getattr(owner, attr), "_perfbench_span", False):
            found.append(f"{module}.{path}")
    return found


class Recorder:
    """Spans as tuples ``(id, name, thread, start, end, parent, info)``."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._patches = []

    def _open(self):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if tid != self._main and main else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, tid, parent, stack

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code (set-up, pass)."""
        sid, tid, parent, stack = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, tid, t0, t1, parent, None))

    def _wrap(self, fn, name, info_fn):
        rec = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid, tid, parent, stack = rec._open()
            t0 = perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                info = info_fn(args, kwargs, result) if done and info_fn else None
                rec.spans.append((sid, label, tid, t0, t1, parent, info))

        wrapper._perfbench_span = True
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module, path, name, info_fn in TARGETS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info_fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --- per-layer metrics -------------------------------------------------------


def _self_times(spans):
    """Self time per span: its duration minus the part its children cover.

    Where spans on two threads are self-active at the same instant, the
    instant is split between them, so the self times of a pass add up to the
    pass's wall time.
    """
    parent = {s[0]: s[5] for s in spans}
    events = []
    for s in spans:
        events.append((s[3], 1, s[0]))
        events.append((s[4], 0, s[0]))
    events.sort()
    self_t = defaultdict(float)
    open_children = defaultdict(int)
    is_open, active = set(), set()
    prev = None
    for t, starting, sid in events:
        if active and t > prev:
            share = (t - prev) / len(active)
            for a in active:
                self_t[a] += share
        prev = t
        p = parent[sid]
        if starting:
            if p in is_open:
                open_children[p] += 1
                active.discard(p)
            is_open.add(sid)
            active.add(sid)
        else:
            is_open.discard(sid)
            active.discard(sid)
            if p in is_open:
                open_children[p] -= 1
                if open_children[p] == 0:
                    active.add(p)
    return self_t


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _line_search(children, steps):
    """Split the assemblies of one solve into line-search trials.

    ``children`` are the solve's assembly spans in call order, ``steps`` the
    ``(direction, note)`` of its iteration trace after the initial entry.
    After the initial residual, every Jacobian assembly opens a group.  A
    group followed by an accepted step is one line search; a forced Picard
    step is preceded by a fully rejected line search and owns its own group,
    whose one residual is not a trial.  Returns (trial spans, accepted count),
    or None when the call pattern does not fit.
    """
    groups = []
    for s in children[1:]:
        if s[1] == "assembly.jacobian":
            groups.append([])
        elif groups:
            groups[-1].append(s)
        else:
            return None
    trials, accepted, g = [], 0, 0
    for _, note in steps:
        if g >= len(groups):
            return None
        trials += groups[g]
        if note.startswith("forced") or note == "fixed-point system unsolvable":
            g += 2
        else:
            accepted += note != "rejected: no fallback"
            g += 1
    if g != len(groups):
        return None
    return trials, accepted


def unit_metrics(spans, pass_root):
    """Per-layer metrics of one traced unit (a set-up followed by a pass).

    ``pass_root`` is the id of the pass's own span; ``trace.self_sum_s`` and
    ``trace.spans`` cover the pass only, every other metric the whole unit.
    """
    by_id = {s[0]: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        kids[s[5]].append(s)

    def nested_in_same_name(s):
        p = s[5]
        while p is not None:
            if by_id[p][1] == s[1]:
                return True
            p = by_id[p][5]
        return False

    incl, calls, own = defaultdict(float), defaultdict(int), defaultdict(float)
    self_t = _self_times(spans)
    for s in spans:
        own[s[1]] += self_t[s[0]]
        if not nested_in_same_name(s):
            incl[s[1]] += s[4] - s[3]
            calls[s[1]] += 1

    in_pass, frontier = [], [pass_root]
    while frontier:
        sid = frontier.pop()
        in_pass.append(sid)
        frontier += [c[0] for c in kids[sid]]

    solves = [s for s in spans if s[1] == "solver.solve"]
    trials, accepted, halvings_ok = 0, 0, True
    ls_time = 0.0
    regularized = picard = fp_floor = 0
    for s in solves:
        info = s[6]
        if info is None:
            continue
        steps = info["steps"]
        regularized += sum("regularized" in note for _, note in steps)
        picard += sum(direction == "picard" for direction, _ in steps)
        fp_floor += bool(info["fp_floor"])
        children = sorted((c for c in kids[s[0]]
                           if c[1] in ("assembly.jacobian", "assembly.residual")),
                          key=lambda c: c[3])
        split = _line_search(children, steps)
        if split is None:
            halvings_ok = False
            continue
        trial_spans, ok = split
        trials += len(trial_spans)
        accepted += ok
        ls_time += sum(c[4] - c[3] for c in trial_spans)

    jac = [s[6] for s in spans if s[1] == "assembly.jacobian" and s[6]]
    vi_calls = calls["solver.vi"]
    kept = sum(s[6] or 0 for s in spans if s[1] == "lab.study")
    solve_union = _union_length([(s[3], s[4]) for s in solves])
    return {
        "meshing.build_s": incl["meshing.build"],
        "meshing.element_gradients_s": incl["meshing.element_gradients"],
        "meshing.element_gradients_calls": calls["meshing.element_gradients"],
        "musielak.luxemburg_s": incl["musielak.luxemburg"],
        "musielak.luxemburg_calls": calls["musielak.luxemburg"],
        "catalog.select_s": incl["catalog.select"],
        "nonsmooth.project_s": incl["nonsmooth.project"],
        "nonsmooth.project_calls": calls["nonsmooth.project"],
        "nonsmooth.contains_s": incl["nonsmooth.contains"],
        "assembly.jacobian_s": incl["assembly.jacobian"],
        "assembly.jacobian_calls": calls["assembly.jacobian"],
        "assembly.jacobian_self_s": own["assembly.jacobian"],
        "assembly.operator_jacobian_s": incl["assembly.operator_jacobian"],
        "assembly.reaction_term_s": incl["assembly.reaction_term"],
        "assembly.residual_s": incl["assembly.residual"],
        "assembly.residual_calls": calls["assembly.residual"],
        "assembly.apply_operator_s": incl["assembly.apply_operator"],
        "assembly.apply_operator_calls": calls["assembly.apply_operator"],
        "assembly.jacobian_nnz": max((j[0] for j in jac), default=0),
        "assembly.jacobian_bytes": max((j[1] for j in jac), default=0),
        "solver.solve_s": incl["solver.solve"],
        "solver.solve_calls": calls["solver.solve"],
        "solver.solve_self_s": own["solver.solve"],
        "solver.linsolve_s": incl["solver.linsolve"],
        "solver.linsolve_calls": calls["solver.linsolve"],
        "solver.regularized_solves": regularized,
        "solver.picard_steps": picard,
        "solver.fp_floor_stages": fp_floor,
        "solver.linesearch_trials": trials,
        "solver.linesearch_halvings": trials - accepted,
        "solver.linesearch_accept_ratio": accepted / trials if trials else 0.0,
        "solver.linesearch_s": ls_time,
        "solver.vi_s": incl["solver.vi"],
        "solver.vi_calls": vi_calls,
        "solver.vi_probes": sum(s[6] or 0 for s in spans if s[1] == "solver.vi"),
        "lab.study_s": incl["lab.study"],
        "lab.study_self_s": own["lab.study"],
        "lab.vi_useful_ratio": kept / vi_calls if vi_calls else 0.0,
        "lab.solve_overlap": (sum(s[4] - s[3] for s in solves) / solve_union
                              if solve_union else 0.0),
        "lab.trace_s": incl["lab.trace"],
        "lab.oracle_s": incl["lab.oracle"],
        "lab.check_s": incl["lab.check"],
        "config.load_s": incl["config.load"],
        "cli.self_s": own["cli.main"],
        "trace.self_sum_s": sum(self_t[sid] for sid in in_pass),
        "trace.spans": len(in_pass),
    }, halvings_ok
