"""Tests for the provenance helper (``repro.version``)."""

import os
import pathlib
import re
import subprocess
import sys

from repro.version import (
    CODE_VERSION_ENV,
    LEDGER_SCHEMA,
    code_version,
    git_sha,
    package_version,
    provenance,
)


def test_package_version_is_nonempty():
    assert package_version()


def test_git_sha_is_hex_or_empty():
    sha = git_sha()
    assert sha == "" or re.fullmatch(r"[0-9a-f]{40}", sha)


def test_code_version_embeds_package_and_schema():
    version = code_version()
    assert package_version() in version
    assert f"schema{LEDGER_SCHEMA}" in version


def test_code_version_env_override(monkeypatch):
    monkeypatch.setenv(CODE_VERSION_ENV, "pinned-for-tests")
    assert code_version() == "pinned-for-tests"


def test_provenance_payload_shape():
    payload = provenance()
    assert set(payload) == {"package", "git_sha", "ledger_schema", "code_version"}
    assert payload["ledger_schema"] == LEDGER_SCHEMA
    assert payload["code_version"] == code_version()


def test_package_version_is_the_running_source_version():
    import repro

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    pinned = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)
    assert pinned is not None
    assert package_version() == repro.__version__ == pinned.group(1)
    assert provenance()["package"] == repro.__version__


def test_ledger_recording_never_imports_package_metadata(tmp_path):
    """Stamping provenance reads ``repro.__version__``: a CLI sweep that
    writes ledger records loads no ``importlib.metadata``."""
    import repro

    script = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['sweep', '--n-values', '2', '--reps', '2',\n"
        f"                 '--ledger', {str(tmp_path / 'ledger.jsonl')!r}])\n"
        "print(code, 'importlib.metadata' in sys.modules)\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]
    assert len((tmp_path / "ledger.jsonl").read_text().splitlines()) == 2
