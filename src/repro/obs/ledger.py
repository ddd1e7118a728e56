"""The run ledger: an append-only, content-addressed cross-run store.

Every simulation entry point in this repository is deterministic per
(seed, configuration, code version) — that triple therefore *names* a
result.  The ledger makes the name concrete: a **fingerprint** is the
SHA-256 of the canonically-serialized triple, and a
:class:`LedgerRecord` files one run's outcome summary, metrics snapshot
(series included), wall-clock timings and code provenance under it.
Records append to a JSONL file (one canonical line per record, sorted
keys, compact separators), which buys three properties:

- **cache**: re-recording an identical result is a no-op (a *cache hit*
  — entry points use :meth:`RunLedger.cached` to skip recomputation
  outright unless asked not to);
- **byte-identity**: the deterministic entry points (sweeps, fuzz grids,
  mutation campaigns) write records containing no host measurements, and
  parents append after merging worker results in submission order — so a
  serial run and a ``workers=N`` run of the same workload produce
  byte-identical ledger files;
- **evidence**: a fingerprint that ever maps to *two different* payloads
  is a determinism violation — a strong alarm in a repository whose
  whole verification story rests on bit-identical replay — and the
  ledger keeps both records so :mod:`repro.obs.projections` can flag it.

The file format is crash-tolerant in the only way JSONL can be, by one
rule for every append-only JSONL store here (run ledger, serve job log,
job trace, access log).  Appends write whole lines under an exclusive
lock (:func:`locked_append`), so a killed writer leaves at most a *torn
tail* after the last newline: a line that lost only its newline when it
parses as JSON, which readers (:func:`read_jsonl`) keep, else a torn
append, which they drop; the next append heals the file the same way
under its lock.  A newline-terminated line that does not parse is
corruption wherever it sits, and raises.

Enable recording with ``--ledger PATH`` on the CLI commands or the
``REPRO_LEDGER`` environment variable; it is off by default.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Iterable, Mapping

try:  # POSIX advisory locks; absent on some platforms (documented below)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.version import LEDGER_SCHEMA, code_version, provenance

#: Environment variable enabling ledger recording process-wide (the CLI
#: ``--ledger`` flag takes precedence where both are given).
LEDGER_ENV = "REPRO_LEDGER"

#: The encoder behind :func:`canonical_json`, built once: ``json.dumps``
#: with these options would build a new one per call.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def canonical_json(payload: Any) -> str:
    """The one serialization fingerprints and ledger lines are built on:
    sorted keys, compact separators, no NaN — identical input, identical
    bytes, on every platform."""
    return _CANONICAL.encode(payload)


def jsonable(value: Any) -> Any:
    """Coerce a value into plain JSON types (mappings/sequences recursed,
    everything exotic collapsed to ``repr``) so configs with tuples or
    dataclasses still canonicalize deterministically."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # Plain dicts and lists first: most values are, and a type test is
    # about ten times cheaper than the Mapping ABC's isinstance check.
    if type(value) is dict:
        return {str(k): jsonable(v) for k, v in value.items()}
    if type(value) is list:
        return [jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    return repr(value)


def compute_fingerprint(
    seed: int, config: Mapping[str, Any], code: str | None = None
) -> str:
    """SHA-256 content address of one (seed, config, code-version) cell."""
    payload = canonical_json(
        {"seed": seed, "config": jsonable(dict(config)), "code": code or code_version()}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LedgerRecord:
    """One recorded run, filed under its content-address fingerprint.

    ``timings`` is the only host-dependent field: it never participates
    in :meth:`identity`, and the deterministic entry points leave it
    empty so their ledger files are byte-identical at any worker count.
    """

    fingerprint: str
    kind: str  # "run" | "sweep" | "fuzz" | "campaign" | "bench" | "profile"
    experiment: str  # human label, e.g. "sweep:ads:steps" or "bench:p1"
    seed: int
    config: dict[str, Any]
    code_version: str
    outcome: dict[str, Any]
    metrics: dict[str, Any] | None = None
    timings: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)
    schema: int = LEDGER_SCHEMA

    def identity(self) -> str:
        """Canonical bytes of everything *deterministic* about this record.

        Two records with equal fingerprints but unequal identities are a
        determinism violation; equal identities are the same result (the
        append path treats the second as a cache hit).  Encoded once per
        record: dedupe, cache probes and :meth:`to_line` reuse it."""
        return self._identity

    @functools.cached_property
    def _identity(self) -> str:
        return canonical_json(
            {
                "schema": self.schema,
                "fingerprint": self.fingerprint,
                "kind": self.kind,
                "experiment": self.experiment,
                "seed": self.seed,
                "config": self.config,
                "code_version": self.code_version,
                "outcome": self.outcome,
                "metrics": self.metrics,
                "provenance": self.provenance,
            }
        )

    def to_line(self) -> str:
        """The record's canonical JSONL line (no trailing newline): its
        identity with ``"timings"`` added, which sorts after every other
        key and so goes just before the closing brace."""
        timings = canonical_json(self.timings)
        return f'{self._identity[:-1]},"timings":{timings}}}'

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "LedgerRecord":
        schema = int(payload.get("schema", 0))
        if schema > LEDGER_SCHEMA:
            raise ValueError(
                f"ledger record schema {schema} is newer than this code's "
                f"schema {LEDGER_SCHEMA} — upgrade repro to read this ledger"
            )
        return cls(
            fingerprint=str(payload["fingerprint"]),
            kind=str(payload.get("kind", "run")),
            experiment=str(payload.get("experiment", "")),
            seed=int(payload.get("seed", 0)),
            config=dict(payload.get("config", {})),
            code_version=str(payload.get("code_version", "")),
            outcome=dict(payload.get("outcome", {})),
            metrics=payload.get("metrics"),
            timings=dict(payload.get("timings", {})),
            provenance=dict(payload.get("provenance", {})),
            schema=schema,
        )


def make_record(
    kind: str,
    experiment: str,
    seed: int,
    config: Mapping[str, Any],
    outcome: Mapping[str, Any],
    metrics: Any = None,
    timings: Mapping[str, Any] | None = None,
    code: str | None = None,
    fingerprint: str | None = None,
) -> LedgerRecord:
    """Build a record, computing its fingerprint and provenance stamp.

    ``metrics`` may be a :class:`~repro.obs.metrics.MetricsSnapshot` (its
    JSON payload — series included — is taken) or any JSON-able mapping.
    A caller that already holds the cell's :func:`compute_fingerprint`
    for ``seed``, ``config`` and ``code`` passes it as ``fingerprint``.
    """
    if metrics is not None and hasattr(metrics, "to_json"):
        metrics = json.loads(metrics.to_json())
    code = code or code_version()
    clean_config = jsonable(dict(config))
    return LedgerRecord(
        fingerprint=fingerprint or compute_fingerprint(seed, clean_config, code),
        kind=kind,
        experiment=experiment,
        seed=seed,
        config=clean_config,
        code_version=code,
        outcome=jsonable(dict(outcome)),
        metrics=jsonable(metrics) if metrics is not None else None,
        timings=jsonable(dict(timings)) if timings else {},
        provenance=provenance(),
    )


class LedgerCorruption(ValueError):
    """A newline-terminated ledger line does not parse, or parses but is
    not a record: damage beyond the torn tail the reader tolerates by
    design.

    The message always leads with ``<file>:<line>:`` so server-side
    ledger damage is diagnosable straight from a CI log or artifact."""


def _parses(tail: bytes) -> bool:
    """Whether the bytes after a store's last newline parse as JSON, so
    are a line that lost only its newline rather than a torn append.
    The reader, the heal and :meth:`RunLedger._reload` all ask this."""
    try:
        json.loads(tail)
    except ValueError:  # UnicodeDecodeError included
        return False
    return True


def _heal_and_append(handle: BinaryIO, data: bytes = b"") -> bool:
    """Under ``handle``'s exclusive advisory lock, heal its store's torn
    tail, then append ``data`` and flush; ``True`` when bytes were cut.

    Under the lock, a torn tail can only come from a writer that died
    holding it.  A store ending in a newline costs a seek and a 1-byte read.
    """
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        torn = False
        # A pipe or a terminal cannot seek, and has no tail to heal.
        if handle.seekable() and handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.seek(0)
                whole = handle.read()  # leaves the position at the end
                start = whole.rfind(b"\n") + 1
                torn = not _parses(whole[start:])
                if torn:
                    handle.truncate(start)
                else:
                    data = b"\n" + data
        handle.write(data)
        handle.flush()
        return torn
    finally:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def locked_append(path: pathlib.Path | str, text: str) -> None:
    """Append ``text`` to ``path`` under an exclusive advisory lock,
    healing a torn tail first (the rule of the module docstring).

    This is the one write path of every append-only JSONL store in the
    repository (run ledger, serve job log, job trace, access log).  The
    lock makes concurrent appends from multiple processes interleave as
    whole lines instead of tearing each other mid-record; within one
    process, callers serialize through their own handle locks.  On
    platforms without ``fcntl`` the append degrades to a plain buffered
    write (single-writer semantics, the pre-existing contract).
    """
    try:
        handle = open(path, "a+b")
    except FileNotFoundError:
        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "a+b")
    except io.UnsupportedOperation:  # "a+b" wants a seekable file
        handle = open(path, "ab")
    with handle:
        _heal_and_append(handle, text.encode("utf-8"))


def truncate_torn_tail(path: pathlib.Path | str) -> bool:
    """Heal a torn tail of ``path`` without appending; ``True`` when bytes
    were cut.  For callers that must leave a whole file even when they
    append nothing: ``repro serve`` at boot and ``--resume``."""
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return False
    with handle:
        return _heal_and_append(handle)


def _load_line(
    path: pathlib.Path, lineno: int, line: bytes, error: type[ValueError], label: str
) -> Any:
    """The JSON payload of one newline-terminated line; one that does not
    parse raises ``error`` naming ``path:lineno``."""
    try:
        return json.loads(line)
    except ValueError as exc:
        raise error(
            f"{path}:{lineno}: unparsable {label} line ({exc}); it ends in a "
            f"newline, so this is corruption, not a torn append; line starts "
            f"{line[:60].decode('utf-8', 'replace')!r}"
        ) from None


def read_jsonl(
    path: pathlib.Path | str, error: type[ValueError], label: str
) -> list[tuple[int, Any]]:
    """The ``(line number, payload)`` pairs of a JSONL store, blank lines
    skipped, by the module docstring's torn-tail rule: a missing file is
    empty, and a line that does not parse raises ``error`` naming
    ``<file>:<line>:`` and the store's ``label``."""
    path = pathlib.Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return []
    *lines, tail = data.split(b"\n")
    if _parses(tail):
        lines.append(tail)
    return [
        (lineno, _load_line(path, lineno, line, error, label))
        for lineno, line in enumerate(lines, start=1)
        if line.strip()
    ]


def _record(path: pathlib.Path, lineno: int, payload: Any) -> LedgerRecord:
    """A ledger line's payload as a record; :class:`LedgerCorruption`
    naming ``path:lineno`` when it is not one."""
    try:
        return LedgerRecord.from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise LedgerCorruption(
            f"{path}:{lineno}: ledger line parses as JSON but is not a "
            f"valid record ({type(exc).__name__}: {exc})"
        ) from None


def read_records(path: pathlib.Path | str) -> list[LedgerRecord]:
    """Every record of a ledger file, read by :func:`read_jsonl`; a line
    that is not a record also raises :class:`LedgerCorruption`."""
    path = pathlib.Path(path)
    return [
        _record(path, lineno, payload)
        for lineno, payload in read_jsonl(path, LedgerCorruption, "ledger")
    ]


def _read_bytes(path: pathlib.Path, start: int = 0) -> tuple[bytes, int | None]:
    """The file's bytes from ``start`` on, and its inode (``b"", None``
    when it does not exist)."""
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            return handle.read(), os.fstat(handle.fileno()).st_ino
    except FileNotFoundError:
        return b"", None


class RunLedger:
    """Append-only, content-addressed JSONL store of run records.

    Loads its index lazily on first use and keeps it in sync with its own
    appends.  A handle that lives across commands (the serve dispatcher's,
    one for the server's lifetime) calls :meth:`refresh` before each one
    to index what other writers appended meanwhile; a one-command handle
    (the CLI model) never needs to.  ``use_cache=False`` makes
    :meth:`cached` always miss, which is how ``--no-cache`` forces
    recomputation while still recording.
    """

    def __init__(self, path: pathlib.Path | str, use_cache: bool = True):
        self.path = pathlib.Path(path)
        self.use_cache = use_cache
        self._records: list[LedgerRecord] | None = None
        self._identities: set[str] | None = None
        self._by_fingerprint: dict[str, list[LedgerRecord]] = {}
        # Where refresh() resumes: the byte offset after the last line
        # read, that line's bytes (to notice a rewrite), the newlines
        # before the offset (for absolute line numbers) and the inode.
        self._offset = 0
        self._tail = b""
        self._lines = 0
        self._inode: int | None = None
        #: How many of the last ``_records`` this handle appended after
        #: the offset: refresh() meets their lines again and skips them.
        self._unread = 0
        #: While :meth:`append_all` runs, the records its :meth:`append`
        #: calls accepted, by identity, waiting for the batch's one write.
        self._batch: dict[str, LedgerRecord] | None = None
        #: Cache accounting for this handle's lifetime: how many
        #: :meth:`cached` probes were served vs missed.  Campaign resume
        #: reporting ("N cells served from checkpoint") reads these.
        self.hits = 0
        self.misses = 0

    # -- reading -------------------------------------------------------------

    def _load(self) -> None:
        if self._records is None:
            self._reload()

    def _reload(self) -> None:
        """Index the whole file through :func:`read_records`.

        The bytes are read first: the file only grows by whole lines
        between the two reads, so the records of those bytes' complete
        lines are a prefix of what :func:`read_records` returns, and
        :meth:`refresh` resumes right after them.
        """
        data, inode = _read_bytes(self.path)
        records = read_records(self.path)
        end = data.rfind(b"\n") + 1
        if _parses(data[end:]):
            end = len(data)  # read_records keeps a line missing its newline
        count = sum(1 for line in data[:end].split(b"\n") if line.strip())
        self._index(records[:count])
        self._lines = data.count(b"\n", 0, end)
        self._resume(data, end, 0, inode)

    def _index(self, records: list[LedgerRecord]) -> None:
        self._records = list(records)
        self._identities = {r.identity() for r in records}
        self._rebuild_fingerprints()
        self._unread = 0

    def _rebuild_fingerprints(self) -> None:
        assert self._records is not None
        self._by_fingerprint = {}
        for record in self._records:
            self._by_fingerprint.setdefault(record.fingerprint, []).append(record)

    def _resume(self, data: bytes, end: int, start: int, inode: int | None) -> None:
        """Record that the file was read up to ``start + end``, where
        ``data`` holds the file's bytes from ``start`` on."""
        self._offset = start + end
        self._tail = data[data.rfind(b"\n", 0, max(0, end - 1)) + 1 : end]
        self._inode = inode

    def refresh(self) -> None:
        """Index the complete lines appended since this handle last read
        the file.

        Lines this handle appended itself are already indexed and are
        skipped; a complete line that does not parse raises
        :class:`LedgerCorruption` with its absolute line number, leaving
        the index as it was; a trailing line without its newline is left
        for the next refresh.  When the file shrank, was replaced, or no
        longer holds the last line read at the stored offset (``repro
        history gc`` rewrites it in place), the index is rebuilt from the
        whole file.  Afterwards :meth:`records` equals
        :func:`read_records` of the file up to its last newline.
        """
        if self._records is None:
            self._reload()
            return
        start = self._offset - len(self._tail)
        data, inode = _read_bytes(self.path, start)
        if (
            (inode is None and (self._offset or self._unread))
            or (self._inode is not None and inode != self._inode)
            or not data.startswith(self._tail)
        ):
            self._reload()
            return
        end = data.rfind(b"\n") + 1
        if end <= len(self._tail):
            return
        consumed = len(self._records) - self._unread
        own = self._records[consumed:]
        own_lines = [record.to_line().encode("utf-8") for record in own]
        fresh: list[LedgerRecord] = []
        foreign: list[LedgerRecord] = []
        matched = 0
        lines = data[len(self._tail) : end].split(b"\n")[:-1]
        for lineno, line in enumerate(lines, start=self._lines + 1):
            if not line.strip():
                continue
            if matched < len(own) and line == own_lines[matched]:
                fresh.append(own[matched])
                matched += 1
                continue
            payload = _load_line(self.path, lineno, line, LedgerCorruption, "ledger")
            record = _record(self.path, lineno, payload)
            fresh.append(record)
            foreign.append(record)
        self._records[consumed:] = fresh + own[matched:]
        if foreign:
            assert self._identities is not None
            self._identities.update(record.identity() for record in foreign)
            if own:  # foreign lines may precede own ones: keep file order
                self._rebuild_fingerprints()
            else:
                for record in foreign:
                    self._by_fingerprint.setdefault(record.fingerprint, []).append(
                        record
                    )
        self._unread = len(own) - matched
        self._lines += len(lines)
        self._resume(data, end, start, inode)

    def records(self) -> list[LedgerRecord]:
        self._load()
        assert self._records is not None
        return list(self._records)

    def __len__(self) -> int:
        self._load()
        assert self._records is not None
        return len(self._records)

    def lookup(self, fingerprint: str) -> list[LedgerRecord]:
        """Every record filed under a fingerprint (order = append order)."""
        self._load()
        return list(self._by_fingerprint.get(fingerprint, []))

    def cached(self, fingerprint: str) -> LedgerRecord | None:
        """The cache-hit record for a fingerprint, or ``None``.

        Misses when caching is off, when the fingerprint is unknown, and
        — deliberately — when the fingerprint is *contested* (multiple
        distinct identities): contested results must be recomputed, not
        served from either side of a determinism violation.
        """
        if not self.use_cache:
            self.misses += 1
            return None
        records = self.lookup(fingerprint)
        if not records or len({r.identity() for r in records}) > 1:
            self.misses += 1
            return None
        self.hits += 1
        return records[0]

    # -- writing -------------------------------------------------------------

    def append(self, record: LedgerRecord) -> bool:
        """Append a record unless an identical one is already filed.

        Returns ``True`` when a line was written (within
        :meth:`append_all`: when the record joined the batch's write,
        which a second equal record in the batch does not).  A record whose
        :meth:`~LedgerRecord.identity` already exists is a cache hit and
        is *not* re-appended (append-only does not mean append-duplicates);
        a record whose fingerprint exists under a *different* identity IS
        appended — that conflict is determinism-violation evidence and
        must survive for :func:`repro.obs.projections.detect_violations`.
        """
        self._load()
        assert self._identities is not None
        identity = record.identity()
        if identity in self._identities:
            return False
        if self._batch is not None:
            if identity in self._batch:
                return False
            self._batch[identity] = record
            return True
        # Locked append: concurrent writers (serve dispatcher + a CLI run
        # sharing one ledger) interleave whole lines, never torn records.
        locked_append(self.path, record.to_line() + "\n")
        self._index_appended([record])
        return True

    def append_all(self, records: Iterable[LedgerRecord]) -> int:
        """Append many records in one locked write; returns how many
        lines were written.

        Each record still passes through :meth:`append` (so subclasses
        and instrumentation see every one), which only collects the new
        identities; the batch is then written at once, in order, and
        indexed only after the write succeeded.
        """
        self._batch = batch = {}
        try:
            for record in records:
                self.append(record)
        finally:
            self._batch = None
        if batch:
            fresh = list(batch.values())
            locked_append(
                self.path, "".join(record.to_line() + "\n" for record in fresh)
            )
            self._index_appended(fresh)
        return len(batch)

    def _index_appended(self, records: list[LedgerRecord]) -> None:
        """Index records this handle just wrote to the file."""
        assert self._records is not None and self._identities is not None
        for record in records:
            self._records.append(record)
            self._identities.add(record.identity())
            self._by_fingerprint.setdefault(record.fingerprint, []).append(record)
        self._unread += len(records)

    def gc(self) -> tuple[int, int]:
        """Rewrite the file dropping exact-duplicate identities.

        Distinct identities under one fingerprint are *kept* — they are
        evidence, and collecting them is the flakiness detector's job.
        Returns ``(kept, dropped)``.
        """
        records = read_records(self.path)
        seen: set[str] = set()
        kept: list[LedgerRecord] = []
        for record in records:
            identity = record.identity()
            if identity in seen:
                continue
            seen.add(identity)
            kept.append(record)
        data = "".join(record.to_line() + "\n" for record in kept).encode("utf-8")
        inode = None
        if self.path.exists() or kept:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_bytes(data)
            inode = self.path.stat().st_ino
        self._index(kept)
        self._lines = len(kept)
        self._resume(data, len(data), 0, inode)
        return len(kept), len(records) - len(kept)


def ledger_from_env(
    path: str | os.PathLike | None = None, use_cache: bool = True
) -> RunLedger | None:
    """The process's ledger, or ``None`` when recording is off.

    ``path`` (a CLI ``--ledger`` value) wins; otherwise the
    ``REPRO_LEDGER`` environment variable; otherwise recording is off —
    the default, so no entry point pays ledger I/O unasked.
    """
    resolved = str(path) if path else os.environ.get(LEDGER_ENV, "").strip()
    if not resolved:
        return None
    return RunLedger(resolved, use_cache=use_cache)
