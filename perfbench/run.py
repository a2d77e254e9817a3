"""dpobstacle benchmark: end-to-end metrics per workload, or a traced run that
splits a pass into its layers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload continuation_2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all             # every workload, one table each
    python3 perfbench/run.py --record-reference         # rewrite perfbench/reference.json

Each workload runs in its own worker process (so that ``peak_rss_mb`` is its
own), with OpenMP/BLAS pinned to one thread before numpy is imported.  The
worker repeats passes for about ``--seconds`` (and at least the workload's
minimum number of passes), checks every pass against the first one and
against ``reference.json``, and reports medians.  ``setup_s`` is the median
over seven fresh processes, started between the passes, that each import
``dpobstacle`` and build the inputs.

With ``--trace 1`` the worker alternates an untraced pass with a traced unit
(a set-up and a pass with the span recorder from ``tracing.py`` installed,
removed again before the next untraced pass); the per-layer metrics are
medians over the traced units, and ``trace.overhead_s`` is the median traced
minus the median untraced pass time.  Spans are written to
``.bench_build/perfbench/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
REFERENCE_SEEDS = range(10)  # seeded workloads; continuation_2d ignores its seed
SETUP_PROBES = 7
PASS_TIME_LIMIT = 120.0  # no new pass starts after this, whatever the minimum
WORKER_TIMEOUT = 150.0

sys.path.insert(0, BENCH_DIR)
from workloads import WORKLOADS, op_mismatch  # noqa: E402


def _fail_setup(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_dpobstacle():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dpobstacle", "__init__.py")):
        _fail_setup(f"no dpobstacle sources under {SRC}")
    sys.path.insert(0, SRC)
    import dpobstacle

    if not os.path.realpath(dpobstacle.__file__).startswith(os.path.realpath(SRC) + os.sep):
        _fail_setup(f"dpobstacle imported from {dpobstacle.__file__}, not from {SRC}")
    return dpobstacle


def _cpu_info():
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = sorted(set(value.split()) & {"sse4_2", "avx", "avx2", "fma",
                                                          "avx512f", "avx512dq"})
    except OSError:
        pass
    return model, flags


def platform_id():
    """What must match for numbers and digests to be compared bit for bit."""
    import numpy
    import scipy

    model, flags = _cpu_info()
    return {"machine": platform.machine(), "cpu": model, "cpu_flags": flags,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def environment(seed):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dpobstacle")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), **platform_id(), "seed": seed,
            "git_commit": commit, "src_sha256": h.hexdigest()}


# --- worker process ----------------------------------------------------------


def _tail(samples):
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are fewer than eleven samples)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _check(wl, seed, results):
    """Compare every pass with the first pass and with the stored reference."""
    ref_key = str(seed) if wl.seeded else "0"
    ref_ops, same_platform = None, False
    if os.path.isfile(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
        ref_ops = ref["workloads"].get(wl.name, {}).get(ref_key)
        same_platform = ref["platform"] == platform_id()
    if ref_ops is None:
        ref_note = f"no reference for seed {seed}: passes checked against each other"
    else:
        ref_note = (f"reference seed {ref_key}, "
                    + ("same platform: exact" if same_platform
                       else "other platform: flags, counts and exit codes only"))
    first = results[0].ops
    attempted, failures = 0, []
    for i, r in enumerate(results):
        labels = set(r.ops) | set(first) | set(ref_ops or ())
        for label in sorted(labels):
            attempted += 1
            value = r.ops.get(label)
            if label in r.bad:
                why = "invariant broken (not converged, exit code or VI below -vi_tol)"
            elif value != first.get(label):
                why = "differs from the first pass"
            elif ref_ops is not None and label not in ref_ops:
                why = "not in the reference"
            elif ref_ops is not None:
                why = op_mismatch(value, ref_ops[label], same_platform)
            else:
                why = None
            if why:
                failures.append(f"pass {i}: {label}: {why}")
    return attempted, failures, ref_note


def _done(t0, seconds, passes, min_passes):
    """Stop once the minimum is met and another pass would end past
    ``seconds`` by more than half a pass, so runs stay close to their length."""
    elapsed = time.perf_counter() - t0
    if elapsed > PASS_TIME_LIMIT:
        return True
    return passes >= min_passes and elapsed + 0.5 * elapsed / passes >= seconds


def _run_passes(wl, seed, state, seconds):
    """Untraced passes, with the set-up probes spread between them so that
    ``setup_s`` samples the same stretch of machine time as ``wall_s``."""
    results, setups = [], []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        results.append(wl.run_pass(state))
        print(f"  pass {len(results)}: {results[-1].wall:.4f} s", file=sys.stderr, flush=True)
        done = _done(t0, seconds, len(results), wl.min_passes)
        due = SETUP_PROBES if done else int(SETUP_PROBES * (time.perf_counter() - t0) / seconds)
        while len(setups) < min(due, SETUP_PROBES):
            probe = _spawn(["--setup-probe", "--workload", wl.name, "--seed", str(seed)], 60)
            if probe is None:
                raise RuntimeError("a set-up probe failed")
            setups.append(probe["setup_s"])
        if done:
            return results, setups


def _trace_run(wl, seed, state, seconds):
    """Alternate untraced passes with traced set-up + pass units, so that
    drift in machine speed falls on both sides of ``trace.overhead_s``.
    Returns the untraced and traced pass results and the per-unit metrics."""
    import tracing

    rec = tracing.Recorder()
    untraced, traced, units, consistent = [], [], [], True
    t0 = time.perf_counter()
    while True:
        if tracing.installed_wrappers():
            raise RuntimeError("span wrappers installed before an untraced pass")
        gc.collect()
        untraced.append(wl.run_pass(state))
        gc.collect()
        first = len(rec.spans)
        rec.install()
        try:
            with rec.span("bench.setup"):
                traced_state = wl.setup(seed, ROOT)
            with rec.span("bench.pass"):
                r = wl.run_pass(traced_state)
        finally:
            rec.uninstall()
        traced.append(r)
        spans = rec.spans[first:]
        pass_root = next(s[0] for s in spans if s[1] == "bench.pass")
        metrics, ok = tracing.unit_metrics(spans, pass_root)
        consistent &= ok
        metrics["trace.wall_s"] = r.wall
        metrics["cli.bytes_out"] = r.bytes_out
        units.append(metrics)
        print(f"  pass {len(units)}: untraced {untraced[-1].wall:.4f} s, traced {r.wall:.4f} s",
              file=sys.stderr, flush=True)
        if _done(t0, seconds, len(units), 1):
            break
    leftover = tracing.installed_wrappers()
    if leftover:
        raise RuntimeError(f"span wrappers left installed: {leftover}")
    if not consistent:
        print("perfbench: a solve's assembly pattern did not fit its iteration trace; "
              "its line-search counts were left out", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    names = sorted({s[1] for s in rec.spans})
    index = {n: i for i, n in enumerate(names)}
    base = rec.spans[0][3]
    with open(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"columns": ["id", "name", "thread", "start_s", "end_s", "parent"],
                   "names": names,
                   "spans": [[s[0], index[s[1]], s[2], s[3] - base, s[4] - base, s[5]]
                             for s in rec.spans]}, fh)
    return untraced, traced, units


def worker(name, seed, seconds, trace):
    _import_dpobstacle()
    import tracing

    wl = WORKLOADS[name]
    if tracing.installed_wrappers():
        raise RuntimeError("span wrappers installed before the untraced passes")
    state = wl.setup(seed, ROOT)
    traced = []
    if trace:
        untraced, traced, units = _trace_run(wl, seed, state, seconds)
    else:
        untraced, setups = _run_passes(wl, seed, state, seconds)
    results = untraced + traced
    attempted, failures, ref_note = _check(wl, seed, results)

    out = {"attempted": attempted, "failed": len(failures), "failures": failures,
           "reference": ref_note, "passes": len(untraced), "traced_passes": len(traced),
           "env": environment(seed)}
    if trace:
        layer = {k: statistics.median(u[k] for u in units) for k in units[0]}
        layer["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                     - statistics.median(r.wall for r in untraced))
        out["metrics"] = layer
        out["untraced_wall_s"] = statistics.median(r.wall for r in untraced)
    else:
        latencies = [x for r in untraced for x in r.latencies]
        tail, pct, n = _tail(latencies)
        # Median over operations of each operation's median over passes.  The
        # pooled median of cli_demos' ten commands falls in the gap between its
        # fifth (~0.04 s) and sixth (~0.09 s) command and jumps across it from
        # run to run; per-command medians keep that gap out of the figure.
        per_op = [statistics.median(xs) for xs in zip(*(r.latencies for r in untraced))]
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r.wall for r in untraced),
            "cmd_s.p50": statistics.median(per_op),
            "cmd_s.tail": tail,
            "newton_iters": statistics.median(r.newton_iters for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(failures) / attempted,
        }
        out["tail"] = {"percentile": pct, "samples": n}
        out["p50_ops"] = len(per_op)
        out["setup_samples"] = setups
    print(json.dumps(out))


def setup_probe(name, seed):
    t0 = time.perf_counter()
    _import_dpobstacle()
    WORKLOADS[name].setup(seed, ROOT)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def record(name):
    _import_dpobstacle()
    wl = WORKLOADS[name]
    ops = {}
    for seed in (REFERENCE_SEEDS if wl.seeded else [0]):
        r = wl.run_pass(wl.setup(seed, ROOT))
        if r.bad:
            raise RuntimeError(f"{name} seed {seed}: invariant broken in {r.bad}")
        ops[str(seed)] = r.ops
        print(f"  {name} seed {seed}: {r.wall:.3f} s", file=sys.stderr, flush=True)
    print(json.dumps({"ops": ops, "platform": platform_id()}))


# --- parent process ----------------------------------------------------------


def _spawn(args, timeout):
    """Run this script in a fresh process and return its last stdout line as
    JSON (None when it failed)."""
    try:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {' '.join(args)} timed out after {timeout} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {' '.join(args)} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        _fail_setup(f"{path} not found")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace, bench):
    """One workload in its own worker process; prints the summary and returns
    the result line."""
    res = _spawn(["--worker", "--workload", name, "--seed", str(seed), "--seconds",
                  str(seconds), "--trace", str(trace)], WORKER_TIMEOUT)
    if res is None:
        return None
    metrics = res["metrics"]
    declared = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        _fail_setup(f"metrics not computed: {missing}")

    env = res["env"]
    print(f"perfbench {name}  seed={seed}  trace={trace}  passes={res['passes']}"
          + (f"+{res['traced_passes']} traced" if trace else ""))
    print(f"  env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} commit={env['git_commit']} "
          f"src_sha256={env['src_sha256'][:16]}")
    print(f"  check: {res['reference']}; fail_frac = {res['failed']}/{res['attempted']}")
    for line in res["failures"][:20]:
        print(f"  FAIL {line}")
    if trace:
        from tracing import PREDICTS

        print(f"  untraced wall_s {res['untraced_wall_s']:.6g} s")
    for m in declared:
        value = metrics[m["name"]]
        note = ""
        if m["name"] == "setup_s":
            note = f"  (median of {len(res['setup_samples'])} fresh processes)"
        elif m["name"] == "cmd_s.p50":
            note = (f"  (median over {res['p50_ops']} operations of each one's median"
                    f" over {res['passes']} passes)")
        elif m["name"] == "cmd_s.tail":
            note = f"  (p{res['tail']['percentile']:.1f} of {res['tail']['samples']} samples)"
        elif trace:
            note = f"  -> {PREDICTS.get(m['name'], '')}"
        print(f"  {m['name']:<34} {value:>14.6g} {m['unit']:<14}{note}")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**res, "params": WORKLOADS[name].params}, fh, indent=1)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def record_reference():
    ops, plat = {}, None
    for name in WORKLOADS:
        res = _spawn(["--record", "--workload", name], 600)
        if res is None:
            _fail_setup(f"recording {name} failed")
        ops[name], plat = res["ops"], res["platform"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"platform": plat, "workloads": ops}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        return worker(args.workload, args.seed, args.seconds, args.trace)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.record:
        return record(args.workload)

    bench = _load_benchmark()
    if not os.path.isfile(os.path.join(SRC, "dpobstacle", "__init__.py")):
        _fail_setup(f"no dpobstacle sources under {SRC}")
    if args.record_reference:
        return record_reference()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        line = run_workload(name, args.seed, seconds, args.trace, bench)
        if line is None:
            print(f"perfbench: workload {name} did not complete", file=sys.stderr)
            sys.exit(1)
        lines.append(line)
    if len(lines) == 1:
        result = lines[0]
    else:
        result = {
            "correct": all(r["correct"] for r in lines),
            "attempted": sum(r["attempted"] for r in lines),
            "failed": sum(r["failed"] for r in lines),
            "metrics": {f"{n}/{k}": v for n, r in zip(names, lines)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
