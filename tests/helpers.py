"""Shared helpers for the test-suite."""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.runtime import RandomScheduler, Simulation


def child_env(src: Any, **variables: str) -> dict[str, str]:
    """A minimal environment for a child interpreter that runs ``src``'s
    ``repro``: no ``REPRO_*`` variable leaks in from the caller, and
    ``PYTHONDONTWRITEBYTECODE`` carries over when set, so the child writes
    no bytecode into the checkout."""
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src), **variables}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def run_simulation(
    n: int,
    factory: Callable[[int], Any],
    scheduler=None,
    seed: int = 0,
    max_steps: int = 1_000_000,
    record_events: bool = False,
    **sim_kwargs,
):
    """Build, spawn and run a simulation; return (sim, outcome)."""
    sim = Simulation(
        n,
        scheduler=scheduler or RandomScheduler(seed=seed),
        seed=seed,
        record_events=record_events,
        **sim_kwargs,
    )
    sim.spawn_all(factory)
    outcome = sim.run(max_steps)
    return sim, outcome


def run_with_setup(
    n: int,
    setup: Callable[[Simulation], Callable[[int], Any]],
    scheduler=None,
    seed: int = 0,
    max_steps: int = 1_000_000,
    **sim_kwargs,
):
    """Like :func:`run_simulation` but ``setup(sim)`` builds the shared
    objects first and returns the program factory."""
    sim = Simulation(
        n, scheduler=scheduler or RandomScheduler(seed=seed), seed=seed, **sim_kwargs
    )
    sim.spawn_all(setup(sim))
    outcome = sim.run(max_steps)
    return sim, outcome


def counter_program(register):
    """Program factory: read-increment-write loop on one register."""

    def factory(pid: int):
        def body(ctx):
            for _ in range(3):
                value = yield from register.read(ctx)
                yield from register.write(ctx, value + 1)
            return ctx.pid

        return body

    return factory
