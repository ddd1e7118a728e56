"""Code-version provenance: package version, git SHA, ledger schema.

Cross-run telemetry is only comparable when every record says *which
code* produced it.  This module is the single source of that identity:

- :func:`package_version` — the version of the ``repro`` code that is
  running (``repro.__version__``, which ``pyproject.toml`` pins too);
- :func:`git_sha` — the current commit, when the source tree is a git
  checkout and ``git`` is available (empty string otherwise — never an
  error: provenance is best-effort by design);
- :data:`LEDGER_SCHEMA` — the on-disk schema version of the run ledger
  (:mod:`repro.obs.ledger`), bumped only on incompatible record changes;
- :func:`code_version` — the composite string folded into every ledger
  fingerprint, so records from different code generations never collide
  (and never cache-hit each other);
- :func:`provenance` — the JSON-able stamp carried by every ledger
  record and every ``BENCH_*.json`` benchmark artifact, built once per
  process and code version.

``REPRO_CODE_VERSION`` overrides :func:`code_version` wholesale — used by
tests that need stable fingerprints and by deployments that version code
by something other than git (container digests, release tags).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
from functools import lru_cache

#: On-disk schema version of run-ledger records.  Bump on incompatible
#: changes to the record layout; readers refuse newer schemas loudly.
LEDGER_SCHEMA = 1

#: Environment override for :func:`code_version` (tests, release pinning).
CODE_VERSION_ENV = "REPRO_CODE_VERSION"


def package_version() -> str:
    """The version of the running ``repro`` code: ``repro.__version__``.

    Installed metadata is not consulted: it costs an
    ``importlib.metadata`` import per process, and a source tree on
    ``PYTHONPATH`` can shadow an older installed wheel whose metadata
    would misname the code that actually runs.
    """
    import repro

    return repro.__version__


@lru_cache(maxsize=1)
def git_sha() -> str:
    """The current commit SHA, or ``""`` when not in a usable git tree.

    Cached per process: provenance is stamped on every ledger append and
    must not pay a subprocess per record.
    """
    root = pathlib.Path(__file__).resolve().parents[2]
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    if proc.returncode != 0:
        return ""
    sha = proc.stdout.strip()
    return sha if len(sha) == 40 and all(c in "0123456789abcdef" for c in sha) else ""


def code_version() -> str:
    """The composite code identity folded into ledger fingerprints.

    ``<package>+<short git sha or "nogit">/schema<N>``, unless
    ``REPRO_CODE_VERSION`` pins it explicitly.
    """
    override = os.environ.get(CODE_VERSION_ENV, "").strip()
    if override:
        return override
    sha = git_sha()
    return (
        f"{package_version()}+{sha[:12] if sha else 'nogit'}"
        f"/schema{LEDGER_SCHEMA}"
    )


def provenance() -> dict[str, object]:
    """The JSON-able provenance stamp for artifacts and ledger records
    (a fresh copy: callers may extend it)."""
    return dict(_stamp(code_version()))


@lru_cache(maxsize=16)
def _stamp(code: str) -> dict[str, object]:
    """The provenance stamp, built once per process and code version."""
    return {
        "package": package_version(),
        "git_sha": git_sha(),
        "ledger_schema": LEDGER_SCHEMA,
        "code_version": code,
    }
