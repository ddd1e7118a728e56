"""Task functions for the WorkerPool tests.

A pool worker is a spawned interpreter that imports the task function by
its module path, so these live in a module that imports nothing heavy:
every replacement worker the tests provoke pays for this import.
"""

import os
import signal
import time


def square_and_pid(task):
    return task * task, os.getpid()


def pid(task):
    return os.getpid()


def chaos(task):
    """``(kind, value)``: ``ok`` returns ``value * 10``, ``raise`` raises,
    ``kill`` SIGKILLs its worker and ``hang`` sleeps past any deadline."""
    kind, value = task
    if kind == "raise":
        raise ValueError(f"boom {value}")
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "hang":
        time.sleep(60)
    return value * 10


def _refuse_to_load():
    raise ImportError("not importable in this worker")


class LoadsBadly:
    """Pickles fine in the parent, fails to unpickle in a worker."""

    def __call__(self, task):
        return task

    def __reduce__(self):
        return _refuse_to_load, ()
