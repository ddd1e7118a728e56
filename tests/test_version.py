"""Tests for the provenance helper (``repro.version``)."""

import re

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


def test_package_version_is_looked_up_once_per_process(monkeypatch):
    import importlib.metadata

    lookups = []

    def counting_version(name):
        lookups.append(name)
        return "9.9.9"

    monkeypatch.setattr(importlib.metadata, "version", counting_version)
    package_version.cache_clear()
    try:
        first, second = provenance(), provenance()
    finally:
        package_version.cache_clear()
    assert first["package"] == second["package"] == "9.9.9"
    assert lookups == ["repro"]
