"""Package exports resolve lazily, so a process imports only what it runs.

Every package ``__init__`` under ``src/repro`` takes its ``__all__`` from
its export table and resolves each exported name from its submodule on
first access, caching it in the package namespace.  These tests pin what
that buys: ``import repro`` and every package import load no submodule,
the CLI loads the parser and the campaign path but no other command's
modules, and a spawned serve-pool worker loads only what its sweep ran.
They also pin that every exported name still resolves.

The module imports nothing from ``repro`` at top level: a spawned pool
worker imports it to unpickle :func:`_loaded_repro_modules`.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)

#: Checks every package's exports in a fresh interpreter and prints each
#: problem found, by kind, as JSON.
EXPORTS_SCRIPT = """
import importlib, json, sys

packages = [importlib.import_module(name) for name in sys.argv[1:]]
problems = {kind: [] for kind in (
    "loaded_before_access", "unresolved", "uncached", "not_in_dir",
    "not_starred", "unknown_resolves", "submodule_unreachable",
)}
for package in packages:
    listed = dir(package)
    for name in package.__all__:
        # Dunder exports (``repro.__version__``) are plain attributes.
        if name in vars(package) and not name.startswith("__"):
            problems["loaded_before_access"].append(f"{package.__name__}.{name}")
        if name not in listed:
            problems["not_in_dir"].append(f"{package.__name__}.{name}")
for package in packages:
    for name in package.__all__:
        qualified = f"{package.__name__}.{name}"
        try:
            getattr(package, name)
        except AttributeError:
            problems["unresolved"].append(qualified)
            continue
        if name not in vars(package):
            problems["uncached"].append(qualified)
    starred = {}
    exec(f"from {package.__name__} import *", starred)
    problems["not_starred"] += [
        f"{package.__name__}.{name}"
        for name in package.__all__
        if name not in starred
    ]
    if hasattr(package, "no_such_export"):
        problems["unknown_resolves"].append(package.__name__)
for name, module in sorted(sys.modules.items()):
    parent, _, leaf = name.rpartition(".")
    if not parent.startswith("repro"):
        continue
    if getattr(sys.modules[parent], leaf, None) is not module:
        problems["submodule_unreachable"].append(name)
print(json.dumps(problems))
"""


def _run(script: str, *args: str) -> str:
    """``script``'s stdout in a fresh interpreter on this checkout."""
    from tests.helpers import child_env

    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=child_env(SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_after(statement: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter loads for ``statement``."""
    script = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return {
        name
        for name in json.loads(_run(script))
        if name == "repro" or name.startswith("repro.")
    }


def _loaded_repro_modules(_task) -> list[str]:
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))


def test_import_repro_loads_no_submodule():
    assert _loaded_after("import repro") == {"repro"}


def test_importing_every_package_loads_no_submodule():
    statement = "\n".join(f"import {name}" for name in PACKAGES)
    assert len(PACKAGES) == 17
    assert _loaded_after(statement) == set(PACKAGES)


def test_cli_and_its_parser_load_the_campaign_path_and_no_other_command():
    loaded = _loaded_after("import repro.cli\nrepro.cli.build_parser()")
    # What `sweep`, `chaos` and `serve` run is compiled before the
    # arguments are parsed, not inside the timed command.
    assert {
        "repro.analysis.experiment",
        "repro.obs.ledger",
        "repro.parallel.engine",
        "repro.resilience.checkpoint",
        "repro.workloads",
    } <= loaded
    assert not loaded & {
        "repro.obs.projections",
        "repro.analysis.benchgate",
        "repro.obs.report",
        "repro.obs.causality",
        "repro.universal",
        "repro.consensus.multivalued",
        "repro.serve",
        "repro.verify",
        "repro.batch",
    }


def test_every_export_resolves_on_first_access_and_is_cached():
    problems = json.loads(_run(EXPORTS_SCRIPT, *PACKAGES))
    assert problems == {kind: [] for kind in problems}


def test_a_spawned_pool_worker_loads_only_what_its_sweep_ran():
    from repro.parallel import WorkerPool, run_tasks
    from repro.resilience import RunPlan
    from repro.workloads import build_sweep

    pool = WorkerPool(2)
    try:
        # Four one-cell units start both workers.
        build_sweep(n_values=(2, 3), reps=2).execute(RunPlan(workers=pool))
        # Two tasks, so the probe runs on the pool's idle workers (a lone
        # unit would run in this process).
        loaded = run_tasks(_loaded_repro_modules, [0, 1], workers=pool)
    finally:
        pool.close()
    for modules in loaded:
        assert "repro.batch.engine" in modules  # it ran the sweep's lanes
        assert not {"repro.universal", "repro.obs.projections"} & set(modules)
