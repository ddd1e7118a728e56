"""Code-version provenance: package version, git SHA, ledger schema.

Cross-run telemetry is only comparable when every record says *which
code* produced it.  This module is the single source of that identity:

- :func:`package_version` — the installed ``repro`` distribution version
  (falling back to the version pinned in ``pyproject.toml`` when the
  package runs straight from a source tree);
- :func:`git_sha` — the current commit, when the source tree is a git
  checkout and ``git`` is available (empty string otherwise — never an
  error: provenance is best-effort by design);
- :data:`LEDGER_SCHEMA` — the on-disk schema version of the run ledger
  (:mod:`repro.obs.ledger`), bumped only on incompatible record changes;
- :func:`code_version` — the composite string folded into every ledger
  fingerprint, so records from different code generations never collide
  (and never cache-hit each other);
- :func:`provenance` — the JSON-able stamp carried by every ledger
  record and every ``BENCH_*.json`` benchmark artifact.

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

#: Fallback when package metadata is unavailable (source-tree runs).
_FALLBACK_VERSION = "1.0.0"


@lru_cache(maxsize=1)
def package_version() -> str:
    """The installed ``repro`` version, or the source-tree fallback.

    Cached per process, like :func:`git_sha`: every ledger record's
    provenance stamp and every fingerprint asks for it.
    """
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        return _FALLBACK_VERSION


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
    """The JSON-able provenance stamp for artifacts and ledger records."""
    return {
        "package": package_version(),
        "git_sha": git_sha(),
        "ledger_schema": LEDGER_SCHEMA,
        "code_version": code_version(),
    }
