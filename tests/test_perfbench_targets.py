"""The benchmark's span recorder still finds every call site it wraps.

``perfbench/tracing.py`` times the package from outside by replacing module
attributes (``dpobstacle.solver.assemble_system``,
``dpobstacle.lab.operator_jacobian``, ...).  A refactor that drops one of
those attributes, or stops passing ``with_jacobian`` by keyword, would only
show up in a traced benchmark run; these tests catch it here.
"""

import importlib.util
from pathlib import Path

from conftest import interval, make_spec
from dpobstacle.catalog import reaction
from dpobstacle.solver import SolverConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_none_is_wrapped():
    tracing = _load_tracing()
    for module, path, _, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(module, path)
        assert callable(getattr(owner, attr)), f"{module}.{path}"
    assert tracing.installed_wrappers() == []


def test_recorder_sees_assembly_split():
    tracing = _load_tracing()
    from dpobstacle import solver

    spec = make_spec(interval(16), phi=0.02, react=reaction("constant", value=1.0))
    rec = tracing.Recorder()
    rec.install()
    try:
        report = solver.solve_penalized(spec, SolverConfig(rho=1e-4))
    finally:
        rec.uninstall()
    assert tracing.installed_wrappers() == []
    assert report.converged and report.iterations > 0
    names = [s[1] for s in rec.spans]
    for name in ("solver.solve", "assembly.jacobian", "assembly.residual",
                 "assembly.operator_jacobian", "assembly.reaction_term",
                 "solver.linsolve"):
        assert name in names, name
    # one Jacobian assembly and one linear solve per Newton step here
    assert names.count("assembly.jacobian") == report.iterations


ORACLE_CFG = """\
[mesh]
dim = 1
n = 12

[phase]
p = 2
q = 2

[obstacle]
phi = 0.1

[reaction]
name = constant
value = 1

[solver]
schedule = 1e-4
"""


def test_recorder_sees_study_trace_oracle_and_config(tmp_path):
    # the study, trace and oracle call sites that config, cli and lab share
    tracing = _load_tracing()
    from dpobstacle import cli, lab

    spec = make_spec(interval(16), phi=0.5, react=reaction("constant", value=8.0))
    cfg_path = tmp_path / "contact.cfg"
    cfg_path.write_text(ORACLE_CFG)
    rec = tracing.Recorder()
    rec.install()
    try:
        diag = lab.kuratowski_study(spec, [10.0 ** -k for k in range(7)],
                                    SolverConfig(), n_starts=2, seed=3,
                                    n_random_probes=2)
        trace = lab.nearest_point_trace(diag, diag.candidates[0].solution)
        code = cli.main(["oracle", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
    finally:
        rec.uninstall()
    assert tracing.installed_wrappers() == []
    assert code == 0 and len(trace) == 7
    names = [s[1] for s in rec.spans]
    for name in ("solver.vi", "musielak.luxemburg", "nonsmooth.project",
                 "nonsmooth.contains", "catalog.select", "lab.study",
                 "lab.trace", "lab.oracle", "config.load"):
        assert name in names, name
    assert names.count("lab.study") == 1
    assert names.count("solver.vi") == len(diag.candidates)
