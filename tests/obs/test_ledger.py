"""Tests for the run ledger: fingerprints, round-trips, cache semantics."""

import json

import pytest

from repro.obs.ledger import (
    LedgerCorruption,
    LedgerRecord,
    RunLedger,
    canonical_json,
    compute_fingerprint,
    jsonable,
    ledger_from_env,
    make_record,
    read_records,
)
from repro.version import LEDGER_SCHEMA


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    """Pin the code version so fingerprints are stable across checkouts."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-code-v1")


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert canonical_json({"a": 2, "b": 1}) == '{"a":2,"b":1}'


def test_jsonable_coerces_tuples_sets_and_keys():
    out = jsonable({"t": (1, 2), "s": {3, 1}, 4: "x"})
    assert out == {"t": [1, 2], "s": [1, 3], "4": "x"}


def test_fingerprint_depends_on_all_three_components():
    base = compute_fingerprint(0, {"n": 2}, code="c1")
    assert compute_fingerprint(1, {"n": 2}, code="c1") != base
    assert compute_fingerprint(0, {"n": 3}, code="c1") != base
    assert compute_fingerprint(0, {"n": 2}, code="c2") != base
    assert compute_fingerprint(0, {"n": 2}, code="c1") == base


def test_fingerprint_ignores_config_key_order():
    assert compute_fingerprint(0, {"a": 1, "b": 2}) == compute_fingerprint(
        0, {"b": 2, "a": 1}
    )


def test_record_round_trips_through_its_line():
    record = make_record(
        kind="run",
        experiment="run",
        seed=7,
        config={"n": 2, "inputs": (0, 1)},
        outcome={"total_steps": 130, "safety_ok": True},
        metrics={"counters": {"runtime.steps": 130}},
        timings={"wall_seconds": 0.5},
    )
    parsed = LedgerRecord.from_payload(json.loads(record.to_line()))
    assert parsed == record
    assert parsed.identity() == record.identity()


def test_identity_excludes_timings():
    kwargs = dict(
        kind="bench",
        experiment="bench:p1",
        seed=0,
        config={"experiment": "p1"},
        outcome={"tables": []},
    )
    fast = make_record(timings={"wall_seconds": 0.1}, **kwargs)
    slow = make_record(timings={"wall_seconds": 9.9}, **kwargs)
    assert fast.fingerprint == slow.fingerprint
    assert fast.identity() == slow.identity()
    assert fast.to_line() != slow.to_line()


def test_newer_schema_is_rejected():
    record = make_record(
        kind="run", experiment="e", seed=0, config={}, outcome={}
    )
    payload = json.loads(record.to_line())
    payload["schema"] = LEDGER_SCHEMA + 1
    with pytest.raises(ValueError, match="newer"):
        LedgerRecord.from_payload(payload)


def _record(seed=0, value=1.0, config=None, code="test-code-v1"):
    return make_record(
        kind="sweep",
        experiment="sweep:test",
        seed=seed,
        config=config or {"n": 2},
        outcome={"value": value},
        code=code,
    )


def test_append_dedupes_identical_identities(tmp_path):
    ledger = RunLedger(tmp_path / "runs.jsonl")
    assert ledger.append(_record()) is True
    assert ledger.append(_record()) is False  # cache hit, not re-appended
    assert len(ledger) == 1
    assert len(read_records(ledger.path)) == 1


def test_append_keeps_conflicting_outcomes_as_evidence(tmp_path):
    ledger = RunLedger(tmp_path / "runs.jsonl")
    assert ledger.append(_record(value=1.0)) is True
    assert ledger.append(_record(value=2.0)) is True  # determinism violation
    assert len(ledger) == 2
    fingerprint = _record().fingerprint
    assert len(ledger.lookup(fingerprint)) == 2
    # A contested fingerprint must never be served from cache.
    assert ledger.cached(fingerprint) is None


def test_cached_round_trip(tmp_path):
    path = tmp_path / "runs.jsonl"
    RunLedger(path).append(_record(value=3.5))
    reopened = RunLedger(path)
    hit = reopened.cached(_record().fingerprint)
    assert hit is not None and hit.outcome["value"] == 3.5


def test_no_cache_records_but_never_serves(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = RunLedger(path, use_cache=False)
    ledger.append(_record())
    assert ledger.cached(_record().fingerprint) is None
    # Recording still deduped: identical identity is not appended twice.
    assert ledger.append(_record()) is False


def test_torn_trailing_line_is_tolerated(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(seed=0))
    ledger.append(_record(seed=1))
    with open(path, "a") as handle:
        handle.write('{"fingerprint": "torn-mid-wri')  # crash mid-append
    records = read_records(path)
    assert len(records) == 2
    # Appending over a torn tail keeps working (the append heals it).
    reopened = RunLedger(path)
    assert len(reopened) == 2
    reopened.append(_record(seed=2))
    assert [record.seed for record in read_records(path)] == [0, 1, 2]


def test_mid_file_corruption_raises(tmp_path):
    path = tmp_path / "runs.jsonl"
    good = _record().to_line()
    path.write_text("not json at all\n" + good + "\n")
    with pytest.raises(LedgerCorruption, match="corruption"):
        read_records(path)


def test_missing_file_is_an_empty_ledger(tmp_path):
    assert read_records(tmp_path / "absent.jsonl") == []
    assert len(RunLedger(tmp_path / "absent.jsonl")) == 0


def test_gc_drops_duplicates_keeps_conflicts(tmp_path):
    path = tmp_path / "runs.jsonl"
    dup = _record(value=1.0)
    conflict = _record(value=2.0)
    with open(path, "w") as handle:
        handle.write(dup.to_line() + "\n")
        handle.write(dup.to_line() + "\n")  # exact duplicate line
        handle.write(conflict.to_line() + "\n")  # evidence — must survive
    kept, dropped = RunLedger(path).gc()
    assert (kept, dropped) == (2, 1)
    records = read_records(path)
    assert len(records) == 2
    assert {r.outcome["value"] for r in records} == {1.0, 2.0}


def test_ledger_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    assert ledger_from_env() is None
    monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "env.jsonl"))
    ledger = ledger_from_env()
    assert ledger is not None and ledger.path == tmp_path / "env.jsonl"
    # An explicit path wins over the environment.
    explicit = ledger_from_env(tmp_path / "cli.jsonl")
    assert explicit is not None and explicit.path == tmp_path / "cli.jsonl"


def test_make_record_accepts_metrics_snapshot():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("runtime.steps").inc(42)
    record = make_record(
        kind="run",
        experiment="run",
        seed=0,
        config={},
        outcome={},
        metrics=registry.snapshot(),
    )
    assert record.metrics is not None
    assert record.metrics["counters"]["runtime.steps"] == 42


# -- refresh(): a long-lived handle indexes only what was appended since --


def _assert_in_sync(ledger, path):
    """The handle's index equals a fresh read, and it serves the same
    cache answers as a fresh handle."""
    assert ledger.records() == read_records(path)
    fresh = RunLedger(path)
    for record in read_records(path):
        mine = ledger.cached(record.fingerprint)
        theirs = fresh.cached(record.fingerprint)
        assert (mine is None) == (theirs is None)
        assert mine is None or mine.identity() == theirs.identity()


def test_refresh_indexes_interleaved_own_and_foreign_appends(tmp_path):
    path = tmp_path / "runs.jsonl"
    mine, other = RunLedger(path), RunLedger(path)
    mine.refresh()
    assert mine.records() == []
    mine.append(_record(seed=1))
    other.append(_record(seed=2))  # lands between this handle's appends
    mine.append(_record(seed=3))
    mine.refresh()
    assert [r.seed for r in mine.records()] == [1, 2, 3]
    _assert_in_sync(mine, path)
    mine.append(_record(seed=4))
    mine.refresh()  # only its own line is new: indexed once
    assert [r.seed for r in mine.records()] == [1, 2, 3, 4]
    _assert_in_sync(mine, path)
    # Another handle re-files a record this one holds: both lines count.
    other.append(_record(seed=4))
    mine.refresh()
    assert [r.seed for r in mine.records()] == [1, 2, 3, 4, 4]
    _assert_in_sync(mine, path)


def test_refresh_leaves_a_torn_tail_until_it_is_complete(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(seed=0))
    line = _record(seed=1).to_line() + "\n"
    with open(path, "a") as handle:
        handle.write(line[:25])  # a writer mid-append
    ledger.refresh()
    assert [r.seed for r in ledger.records()] == [0]
    _assert_in_sync(ledger, path)
    with open(path, "a") as handle:
        handle.write(line[25:])
    ledger.refresh()
    assert [r.seed for r in ledger.records()] == [0, 1]
    _assert_in_sync(ledger, path)


def test_refresh_reloads_after_a_gc_rewrite(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(seed=0))
    ledger.append(_record(seed=1))
    with open(path, "a") as handle:
        handle.write(_record(seed=0).to_line() + "\n")  # exact duplicate
    ledger.refresh()
    assert len(ledger) == 3
    assert RunLedger(path).gc() == (2, 1)  # another handle rewrites in place
    ledger.refresh()
    _assert_in_sync(ledger, path)
    ledger.append(_record(seed=2))
    with open(path, "a") as handle:
        handle.write(_record(seed=3).to_line() + "\n")
    ledger.refresh()
    assert [r.seed for r in ledger.records()] == [0, 1, 2, 3]
    _assert_in_sync(ledger, path)


def test_refresh_names_the_absolute_line_of_a_corrupt_append(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = RunLedger(path)
    for seed in range(3):
        ledger.append(_record(seed=seed))
    ledger.refresh()
    with open(path, "a") as handle:
        handle.write(_record(seed=3).to_line() + "\nnot json\n")
    with pytest.raises(LedgerCorruption, match=r"runs\.jsonl:5: unparsable"):
        ledger.refresh()
    assert [r.seed for r in ledger.records()] == [0, 1, 2]  # left as it was
