#!/usr/bin/env python3
"""Byte-identity check of the command line and the demos between two trees.

Usage:  python3 tools/compare_cli.py PARENT_DIR [CONFIG ...]

PARENT_DIR is another checkout of the project, for example a ``git archive``
of the parent commit.  In this tree and in PARENT_DIR the script runs

* ``solve``, ``study``, ``check``, ``oracle``, ``study --threads 2`` and
  ``norm-tool`` with two expressions on every ``demos/configs/*.cfg``,
* the same commands on every extra CONFIG file (one file for both trees),
* every ``demos/*.py`` script,

each in a fresh subprocess whose ``PYTHONPATH`` is that tree's ``src``.  Both
trees run from temporary directories laid out alike (``configs/`` holds the
tree's own config files, ``extra/`` the extra ones, ``out/`` the outputs),
so the paths they print agree.  Exit codes, stdout, stderr and every output
file are compared byte for byte; each difference is printed, and the exit
status is 1 if there is any, else 0.
"""

from __future__ import annotations

import difflib
import glob
import os
import shutil
import subprocess
import sys
import tempfile

COMMANDS = [
    ("solve", []),
    ("study", []),
    ("check", []),
    ("oracle", []),
    ("study", ["--threads", "2"]),
    ("norm-tool", ["x*(1-x)"]),
    ("norm-tool", ["sin(3*x) + 2^-3"]),
]


def entries(tree, configs):
    """(label, argv, output directory or None) of every run, in order."""
    demo = sorted(glob.glob(os.path.join(tree, "demos", "configs", "*.cfg")))
    for folder, paths in (("configs", demo), ("extra", configs)):
        for path in paths:
            name = os.path.basename(path)
            for k, (cmd, args) in enumerate(COMMANDS):
                label = f"{folder}/{name[:-4]}.{k}.{cmd}"
                out = os.path.join("out", label)
                yield (f"{label} {' '.join(args)}".strip(),
                       ["-m", "dpobstacle.cli", cmd, "--config",
                        os.path.join(folder, name), "--out", out, *args], out)
    for path in sorted(glob.glob(os.path.join(tree, "demos", "*.py"))):
        yield f"demo {os.path.basename(path)}", [path], None


def run_tree(tree, work, configs):
    """Run every entry of ``tree`` and the extra ``configs`` with ``work`` as
    working directory."""
    tree = os.path.abspath(tree)
    shutil.copytree(os.path.join(tree, "demos", "configs"),
                    os.path.join(work, "configs"))
    os.mkdir(os.path.join(work, "extra"))
    for path in configs:
        shutil.copy(path, os.path.join(work, "extra"))
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    results = {}
    for label, argv, out in entries(tree, configs):
        proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                              capture_output=True)
        files = {}
        if out and os.path.isdir(os.path.join(work, out)):
            for fname in sorted(os.listdir(os.path.join(work, out))):
                with open(os.path.join(work, out, fname), "rb") as fh:
                    files[fname] = fh.read()
        results[label] = {"exit code": proc.returncode, "stdout": proc.stdout,
                          "stderr": proc.stderr, "files": files}
        print(f"  {label}: exit {proc.returncode}", file=sys.stderr)
    return results


def show(what, old, new):
    print(f"    {what} differs")
    if isinstance(old, bytes) or isinstance(new, bytes):
        old = (old or b"").decode(errors="replace").splitlines()
        new = (new or b"").decode(errors="replace").splitlines()
        for line in list(difflib.unified_diff(old, new, "parent", "this",
                                              lineterm="", n=1))[:40]:
            print(f"      {line}")
    else:
        print(f"      parent {old!r}, this {new!r}")


def main(argv):
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, configs = argv[0], argv[1:]
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        for side, tree in (("parent", parent), ("this", here)):
            print(f"running {side} tree {tree}", file=sys.stderr)
            os.mkdir(os.path.join(tmp, side))
            runs[side] = run_tree(tree, os.path.join(tmp, side), configs)
    old, new = runs["parent"], runs["this"]
    n_diff = 0
    for label in sorted(set(old) | set(new), key=lambda s: (s.startswith("demo"), s)):
        if label not in old or label not in new:
            print(f"{label}: only in the {'this' if label in new else 'parent'} tree")
            n_diff += 1
            continue
        a, b = old[label], new[label]
        diffs = [(key, a[key], b[key]) for key in ("exit code", "stdout", "stderr")
                 if a[key] != b[key]]
        diffs += [(f"file {name}", a["files"].get(name), b["files"].get(name))
                  for name in sorted(set(a["files"]) | set(b["files"]))
                  if a["files"].get(name) != b["files"].get(name)]
        if diffs:
            print(f"{label}:")
            for what, x, y in diffs:
                show(what, x, y)
            n_diff += 1
    print(f"{len(new)} entries compared, {n_diff} differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
