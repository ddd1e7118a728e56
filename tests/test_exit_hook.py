"""The CLI's exit hook: a process that ran ``repro.cli.main`` freezes its
heap at exit, so the interpreter's exit-time collections skip it, while
a process that calls ``main`` in-process keeps normal collection until
its own exit."""

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SWEEP = ["sweep", "--n-values", "2", "--reps", "2"]


def _run(script: str) -> str:
    """``script``'s stdout in a fresh interpreter on this checkout."""
    from tests.helpers import child_env

    done = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env(SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_an_exit_handler_registered_before_main_sees_a_frozen_heap():
    # atexit runs handlers last-in first-out, so this one runs after the
    # hook that main registered.
    out = _run(
        "import atexit, gc, sys\n"
        "atexit.register(\n"
        "    lambda: print('frozen at exit:', gc.get_freeze_count(), flush=True)\n"
        ")\n"
        "from repro.cli import main\n"
        f"sys.exit(main({SWEEP!r}))\n"
    )
    assert "steps vs n" in out  # the sweep ran and printed its table
    frozen = int(out.rsplit("frozen at exit:", 1)[1])
    assert frozen > 0


def test_main_registers_one_hook_and_keeps_normal_collection_in_process():
    out = _run(
        "import atexit, gc, json\n"
        "from repro.cli import main\n"
        "counts = [atexit._ncallbacks()]\n"
        f"main({SWEEP!r})\n"
        "counts.append(atexit._ncallbacks())\n"
        f"main({SWEEP!r})\n"
        "counts.append(atexit._ncallbacks())\n"
        "state = {'frozen': gc.get_freeze_count(), 'enabled': gc.isenabled()}\n"
        "print(json.dumps({'counts': counts, **state}))\n"
    )
    state = json.loads(out.splitlines()[-1])
    before, first, second = state["counts"]
    assert first == before + 1
    assert second == first
    assert state["frozen"] == 0
    assert state["enabled"] is True
