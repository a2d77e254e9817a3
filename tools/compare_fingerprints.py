#!/usr/bin/env python3
"""Name every benchmark fingerprint entry that moved between two trees.

Usage:  python3 tools/compare_fingerprints.py PARENT_DIR [--workload W ...]
                                              [--seeds S ...]

PARENT_DIR is another checkout of the project, for example a ``git archive``
of the parent commit.  For each workload (default: all three) and each seed
(default: 0) the script runs one pass of ``perfbench/workloads.py`` in
PARENT_DIR and one in this tree, each in a fresh subprocess whose working
directory is that tree and whose ``PYTHONPATH`` is that tree's ``src``
(``continuation_2d`` ignores its seed and runs once).  It only imports each
tree's ``workloads.py``; it writes no bytecode, and the pass writes what the
benchmark itself writes (``.bench_build/`` in that tree).

A pass gives one fingerprint per operation, split into ``exact``, ``num``
and ``digest`` entries (see ``perfbench/workloads.py``).  Every entry that
differs is printed: an ``exact`` entry with both values, a ``num`` entry
with the largest relative difference of its numbers, a ``digest`` entry
with the names of the files whose digests differ.  The last line counts the
operations compared and those that moved; the exit status is 1 if any
moved, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("continuation_2d", "study_2d", "cli_demos")


def _one_pass(tree, workload, seed):
    """Child side: one pass of ``workload`` in ``tree``; prints its ops."""
    src = os.path.join(tree, "src")
    sys.path.insert(0, src)
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(tree, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS[workload]
    result = wl.run_pass(wl.setup(seed, tree))
    import dpobstacle

    if not os.path.abspath(dpobstacle.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"dpobstacle imported from {dpobstacle.__file__}, not {src}")
    print(json.dumps(result.ops))


def run_pass(tree, workload, seed):
    """The fingerprint of one pass in ``tree``, from a fresh subprocess."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one-pass", tree,
         workload, str(seed)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _relative_gap(old, new):
    """Largest relative difference between two equally long number lists
    (NaN against NaN counts as equal)."""
    gap = 0.0
    for a, b in zip(old, new):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        scale = max(abs(a), abs(b))
        gap = max(gap, abs(a - b) / scale if scale and math.isfinite(scale) else math.inf)
    return gap


def moved_entries(old, new):
    """Descriptions of the entries of one operation that differ."""
    if old is None or new is None:
        return ["missing in " + ("the parent" if old is None else "this tree")]
    out = []
    if old["exact"] != new["exact"]:
        out.append(f"exact {old['exact']} -> {new['exact']}")
    if len(old["num"]) != len(new["num"]):
        out.append(f"num has {len(old['num'])} -> {len(new['num'])} entries")
    else:
        gap = _relative_gap(old["num"], new["num"])
        if gap or any(repr(a) != repr(b) for a, b in zip(old["num"], new["num"])):
            out.append(f"num moved by {gap:.3g} relative")
    if old["digest"] != new["digest"]:
        if isinstance(old["digest"], dict) and isinstance(new["digest"], dict):
            names = sorted(k for k in old["digest"].keys() | new["digest"].keys()
                           if old["digest"].get(k) != new["digest"].get(k))
            out.append("digest moved: " + ", ".join(names))
        else:
            out.append("digest moved")
    return out


def compare(parent, tree, workloads, seeds, echo=print):
    """Compare one pass per workload and seed; returns (compared, moved)."""
    compared = moved = 0
    for workload in workloads:
        for seed in seeds if workload != "continuation_2d" else seeds[:1]:
            old = run_pass(parent, workload, seed)
            new = run_pass(tree, workload, seed)
            for label in sorted(old.keys() | new.keys()):
                compared += 1
                entries = moved_entries(old.get(label), new.get(label))
                moved += bool(entries)
                for entry in entries:
                    echo(f"{workload} seed {seed}: {label} {entry}")
    return compared, moved


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tools/compare_fingerprints.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_DIR")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    args = parser.parse_args(argv)
    compared, moved = compare(args.parent, ROOT, args.workload or WORKLOADS, args.seeds)
    print(f"{compared} operations compared, {moved} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--one-pass":
        _one_pass(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
