"""Durable artifact store: spill :class:`PreparedPolygons` to disk.

An :class:`ArtifactStore` is a directory of ``(<key_id>.npz,
<key_id>.json)`` pairs, one per (geometry fingerprint, render spec) key.
It is the disk tier behind :class:`~repro.cache.session.QuerySession`:
artifacts demoted out of the in-memory byte budget land here, and a
fresh process pointed at a populated store answers its first repeated
query warm — no re-triangulation, no coverage rebuild.

**Patch journals** (PR 5): a delta-derived artifact — an edited polygon
set that reused most of a sibling's per-polygon state — persists as a
small record appended to its lineage root's ``<root_kid>.journal`` plus
a tiny ``<key_id>.ref`` manifest, instead of rewriting the whole pair.
Loading such a key replays the journal chain over the root pair (pure
per-polygon array work) and recomposes — bit-identical to a full save.
Journals **compact** automatically: once a lineage's journal outgrows
its base payload (or the chain gets long), the next edit is written as
a fresh full pair, and the LRU disk budget treats the root pair plus
its journal as one evictable group.  See ``docs/incremental_edits.md``.

Durability contract:

* **Atomic writes.**  Pair and ref files are written to temporary names
  and committed with :func:`os.replace`; the ``.npz`` is committed
  before the manifest, and loads read the manifest first, so a reader
  can never observe a half-written pair as valid.
* **Checksums.**  The manifest carries a digest of the ``.npz`` bytes;
  any mismatch (torn pair, bit rot, truncation) fails validation.
  Journal records are individually length-framed and checksummed: a
  truncated or corrupt trailing record (crash debris) is detected and
  dropped, falling back to the last consistent state.
* **Corruption tolerance.**  Every load failure — missing file, bad
  zip, bad JSON, version or key mismatch, checksum mismatch, broken
  journal chain — returns ``None`` instead of raising, so callers fall
  back to a rebuild.  The rebuilt artifact overwrites the bad state on
  the next save.
* **Disk budget.**  ``disk_budget`` caps the directory size; beyond it,
  the oldest groups by mtime are evicted (loads touch mtime, making
  this LRU-by-recency, not merely by write time).  A root pair and its
  journal share one group; refs are tiny groups of their own, and a ref
  whose root was evicted simply loads as a miss.

Nothing in this module imports the session — the store is a standalone
subsystem that later scaling work (sharding, multi-process serving) can
drive directly.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.cache.prepared import PreparedPolygons
from repro.errors import QueryError
from repro.obs import metrics
from repro.store import format as artifact_format
from repro.store.format import ArtifactFormatError

#: Directory of the shared artifact store; unset or empty disables it.
STORE_DIR_ENV_VAR = "REPRO_STORE_DIR"
#: On-disk size cap in bytes (suffixes K/M/G accepted); unset = unbounded.
STORE_BUDGET_ENV_VAR = "REPRO_STORE_BUDGET"

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


class ArtifactTooLargeError(QueryError):
    """A single artifact exceeds the store's whole disk budget.

    Such a pair is rejected *before* anything is written: admitting it
    would force the budget loop to evict every other artifact and still
    end over cap, wiping the warm-restart store for all other keys.
    Callers (the session) degrade to memory-only for that key.
    """


def parse_bytes(value: int | str | None) -> int | None:
    """Parse a byte budget: plain int, digit string, or ``"512M"`` style."""
    if value is None:
        return None
    if isinstance(value, int):
        budget = value
    else:
        text = str(value).strip().lower()
        if not text:
            return None
        multiplier = 1
        if text[-1] in _SIZE_SUFFIXES:
            multiplier = _SIZE_SUFFIXES[text[-1]]
            text = text[:-1]
        try:
            budget = int(float(text) * multiplier)
        except ValueError:
            raise QueryError(f"unparseable byte budget {value!r}") from None
    if budget < 1:
        raise QueryError(f"byte budget must be >= 1 byte, got {value!r}")
    return budget


class ArtifactStore:
    """A directory of persisted prepared-polygon artifacts.

    Safe to share between sessions, threads, and processes: writes are
    atomic renames and loads are checksum-validated, so concurrent use
    degrades (at worst) to a redundant rebuild, never to a wrong result.
    """

    def __init__(
        self,
        root: str | Path,
        disk_budget: int | str | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.disk_budget = parse_bytes(disk_budget)
        # Counters (per store instance, not per directory).
        self.saves = 0
        self.loads = 0
        self.load_failures = 0
        #: Incremented by callers (the session) that degrade a failed
        #: save to "stay dirty, retry later" instead of raising.
        self.save_failures = 0
        #: Saves refused because one artifact exceeds the whole budget.
        self.rejected_saves = 0
        #: Edits persisted as journal records instead of full pairs,
        #: journal replays served, patch attempts that fell back to a
        #: full save (compaction or an unpatchable parent), and corrupt
        #: or truncated journal records dropped by the checksum guard.
        self.patch_saves = 0
        self.patch_loads = 0
        self.patch_fallbacks = 0
        self.dropped_records = 0
        #: Distinct journal damage sites already counted, so repeated
        #: scans of the same debris don't inflate ``dropped_records``.
        self._damage_seen: set[tuple] = set()
        self.evictions = 0
        self.save_s = 0.0
        self.load_s = 0.0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> "ArtifactStore | None":
        """The store described by ``$REPRO_STORE_DIR`` (None when unset)."""
        root = os.environ.get(STORE_DIR_ENV_VAR)
        if not root:
            return None
        return cls(root, disk_budget=os.environ.get(STORE_BUDGET_ENV_VAR))

    @staticmethod
    def coerce(store) -> "ArtifactStore | None":
        """Normalize a ``store=`` argument.

        ``ArtifactStore`` instances pass through; a path creates a store
        there (honoring ``$REPRO_STORE_BUDGET``, like every other wiring
        path — pass an ``ArtifactStore`` to control the budget
        explicitly); ``None`` consults the environment; ``False``
        disables the disk tier even when the environment configures one.
        """
        if store is False:
            return None
        if store is None:
            return ArtifactStore.from_env()
        if isinstance(store, ArtifactStore):
            return store
        return ArtifactStore(
            store, disk_budget=os.environ.get(STORE_BUDGET_ENV_VAR)
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _paths(self, key: Sequence) -> tuple[Path, Path]:
        kid = artifact_format.key_id(key)
        return self.root / f"{kid}.npz", self.root / f"{kid}.json"

    def _paths_or_none(self, key: Sequence) -> tuple[Path, Path] | None:
        """Like :meth:`_paths`, but ``None`` for keys the format cannot
        address (a spec value JSON can't serialize).  Read-side methods
        treat such keys as simply not stored; only :meth:`save` raises,
        and the session marks the key unstorable."""
        try:
            return self._paths(key)
        except (TypeError, ValueError):
            return None

    def _tmp_name(self, final: Path) -> Path:
        return final.with_name(
            f"{final.name}.tmp-{os.getpid()}-{threading.get_ident()}-"
            f"{uuid.uuid4().hex[:8]}"
        )

    def _ref_path(self, kid: str) -> Path:
        return self.root / f"{kid}.ref"

    def _journal_path(self, kid: str) -> Path:
        return self.root / f"{kid}.journal"

    # ------------------------------------------------------------------
    # Journal framing
    # ------------------------------------------------------------------
    #: Per-record frame: magic, little-endian payload length, then a
    #: 32-hex checksum of the payload.  The payload is a 4-byte header
    #: length + JSON header + npz bytes.  Framing makes every record
    #: independently verifiable, so crash debris (a truncated or torn
    #: trailing record) is detected and dropped rather than misread.
    _RECORD_MAGIC = b"RJPJ"
    #: Compaction rules: stop appending once the journal outgrows the
    #: base payload by this factor (replaying would read more bytes than
    #: a full pair) or the record count passes the cap (replay latency);
    #: the next edit then writes a fresh full pair for its own key.
    JOURNAL_SIZE_FACTOR = 1.0
    JOURNAL_MAX_RECORDS = 16

    def _frame_record(self, header: dict, arrays: dict) -> bytes:
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload = (
            len(header_bytes).to_bytes(4, "little") + header_bytes
            + buffer.getvalue()
        )
        return (
            self._RECORD_MAGIC
            + len(payload).to_bytes(8, "little")
            + artifact_format.checksum(payload).encode("ascii")
            + payload
        )

    def _note_damage(self, journal_path: Path, offset: int) -> None:
        """Count a journal damage site once, however often it is
        re-scanned (loads and saves both walk journals repeatedly)."""
        site = (journal_path.name, offset)
        if site not in self._damage_seen:
            self._damage_seen.add(site)
            self.dropped_records += 1

    def _read_records(self, journal_path: Path) -> list[tuple[dict, bytes]]:
        """All intact records of a journal, in append order — see
        :meth:`_scan_journal`."""
        return self._scan_journal(journal_path)[0]

    def _scan_journal(
        self, journal_path: Path
    ) -> tuple[list[tuple[dict, bytes]], int, int]:
        """(intact records, valid-prefix end offset, file size).

        Stops at the first frame that fails any check — short header,
        short payload, bad magic, checksum mismatch — and counts the
        drop: everything before the damage is the last consistent state,
        everything after it is unreachable (readers stop there, so
        appenders must not add records past it — see
        :meth:`save_patch`).  The full-validation walk reads the whole
        journal, which compaction bounds to about the base payload size.
        """
        try:
            blob = journal_path.read_bytes()
        except (FileNotFoundError, OSError):
            return [], 0, 0
        records: list[tuple[dict, bytes]] = []
        offset = 0
        prefix = len(self._RECORD_MAGIC) + 8 + 32
        while offset < len(blob):
            if offset + prefix > len(blob):
                self._note_damage(journal_path, offset)  # truncated frame header
                break
            magic = blob[offset:offset + 4]
            if magic != self._RECORD_MAGIC:
                self._note_damage(journal_path, offset)
                break
            length = int.from_bytes(blob[offset + 4:offset + 12], "little")
            digest = blob[offset + 12:offset + prefix].decode(
                "ascii", "replace"
            )
            payload = blob[offset + prefix:offset + prefix + length]
            if len(payload) < length:
                self._note_damage(journal_path, offset)  # truncated trailing record
                break
            if artifact_format.checksum(payload) != digest:
                self._note_damage(journal_path, offset)
                break
            try:
                header_len = int.from_bytes(payload[:4], "little")
                header = json.loads(payload[4:4 + header_len])
                npz_bytes = payload[4 + header_len:]
            except Exception:
                self._note_damage(journal_path, offset)
                break
            records.append((header, npz_bytes))
            offset += prefix + length
        return records, offset, len(blob)

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------
    def save(self, key: Sequence, prepared: PreparedPolygons) -> int:
        """Persist an artifact atomically; returns bytes written.

        The npz payload is committed before the manifest, so a manifest
        on disk always describes a complete payload (modulo a concurrent
        writer replacing the pair, which the checksum catches).

        Raises :class:`ArtifactTooLargeError` — before writing anything —
        when the pair alone would exceed the disk budget; see the
        exception's docstring for why such pairs are never admitted.
        """
        start = time.perf_counter()
        arrays, manifest = artifact_format.encode(prepared, key)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload = buffer.getvalue()
        manifest["checksum"] = artifact_format.checksum(payload)
        manifest["payload_bytes"] = len(payload)
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
        if (
            self.disk_budget is not None
            and len(payload) + len(manifest_bytes) > self.disk_budget
        ):
            self.rejected_saves += 1
            raise ArtifactTooLargeError(
                f"artifact pair ({(len(payload) + len(manifest_bytes)) / 1e6:.1f}"
                f" MB) exceeds the store's disk budget "
                f"({self.disk_budget / 1e6:.1f} MB)"
            )

        npz_path, manifest_path = self._paths(key)
        tmp_npz = self._tmp_name(npz_path)
        tmp_manifest = self._tmp_name(manifest_path)
        try:
            tmp_npz.write_bytes(payload)
            os.replace(tmp_npz, npz_path)
            tmp_manifest.write_bytes(manifest_bytes)
            os.replace(tmp_manifest, manifest_path)
        finally:
            for leftover in (tmp_npz, tmp_manifest):
                try:
                    leftover.unlink(missing_ok=True)
                except OSError:
                    pass
        self.saves += 1
        elapsed = time.perf_counter() - start
        self.save_s += elapsed
        metrics.counter("store_saves", kind="prepared")
        metrics.counter("store_save_bytes",
                        len(payload) + len(manifest_bytes), kind="prepared")
        metrics.observe("store_save_seconds", elapsed, kind="prepared")
        # A full save supersedes any patch ref for the same key.
        try:
            self._ref_path(artifact_format.key_id(key)).unlink(missing_ok=True)
        except OSError:
            pass
        if self.disk_budget is not None:
            self.enforce_disk_budget(protect=artifact_format.key_id(key))
        return len(payload) + len(manifest_bytes)

    def save_patch(self, key: Sequence, prepared: PreparedPolygons) -> int:
        """Persist a delta-derived artifact as a journal record.

        Appends a per-polygon patch record (only the rebuilt polygons'
        arrays) to the lineage root's journal and commits a tiny
        ``<key_id>.ref`` manifest pointing at it — the "manifest bump"
        that makes the new key addressable.  Falls back to a full
        :meth:`save` (counted in ``patch_fallbacks``) whenever patching
        can't faithfully represent the artifact:

        * the parent key has no loadable state here (never persisted, or
          evicted);
        * the parent's stored fields lack something this artifact has
          (e.g. the parent was persisted stripped — replaying would
          silently lose coverage);
        * the journal carries crash debris or in-place corruption after
          its last valid record — a record appended there would be
          unreachable, so the full pair re-roots the lineage instead;
        * compaction: the journal would outgrow its base payload
          (``JOURNAL_SIZE_FACTOR``) or the record cap
          (``JOURNAL_MAX_RECORDS``) — the full pair *is* the compacted
          state, and the old lineage ages out via the LRU budget.
        """
        parent_key = prepared.delta_parent
        if parent_key is None:
            return self.save(key, prepared)
        root_kid = self._lineage_root(parent_key)
        if root_kid is None:
            self.patch_fallbacks += 1
            return self.save(key, prepared)
        parent_fields = self.describe(parent_key)
        if parent_fields is None:
            self.patch_fallbacks += 1
            return self.save(key, prepared)
        start = time.perf_counter()
        try:
            arrays, header = artifact_format.encode_patch(prepared, key)
        except artifact_format.ArtifactFormatError:
            self.patch_fallbacks += 1
            return self.save(key, prepared)
        missing = [
            f for f in header["fields"]
            if f not in parent_fields and f not in ("canvas", "tiles")
        ]
        if missing:
            self.patch_fallbacks += 1
            return self.save(key, prepared)
        journal_path = self._journal_path(root_kid)
        record = self._frame_record(header, arrays)
        records, valid_end, journal_size = self._scan_journal(journal_path)
        try:
            base_size = (self.root / f"{root_kid}.npz").stat().st_size
        except (FileNotFoundError, OSError):
            base_size = 0
        if valid_end < journal_size:
            # Debris or in-place corruption after the last fully valid
            # record: appending there would commit a ref no reader can
            # reach (readers stop at the first bad frame), and
            # truncating would race a concurrent appender whose record
            # we simply haven't validated.  A full pair sidesteps both —
            # and re-roots the lineage, so the damaged journal ages out.
            self.patch_fallbacks += 1
            return self.save(key, prepared)
        if (
            valid_end + len(record) > base_size * self.JOURNAL_SIZE_FACTOR
            or len(records) >= self.JOURNAL_MAX_RECORDS
        ):
            self.patch_fallbacks += 1
            return self.save(key, prepared)
        if (
            self.disk_budget is not None
            and len(record) > self.disk_budget
        ):
            self.rejected_saves += 1
            raise ArtifactTooLargeError(
                f"patch record ({len(record) / 1e6:.1f} MB) exceeds the "
                f"store's disk budget ({self.disk_budget / 1e6:.1f} MB)"
            )
        # Append the record first, then commit the ref atomically: a
        # crash in between leaves an unreferenced (harmless) record.
        # The append is one O_APPEND os.write of the whole frame, so
        # concurrent writers sharing the directory land whole records
        # (POSIX serializes the offset per write); a torn tail from a
        # signal or full disk is caught by the frame checksum.
        fd = os.open(
            journal_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, record)
        finally:
            os.close(fd)
        kid = artifact_format.key_id(key)
        ref = {
            "type": "patch-ref",
            "version": artifact_format.FORMAT_VERSION,
            "dtype": artifact_format.COORD_DTYPE,
            "fingerprint": key[0],
            "spec": artifact_format.canonical_spec(list(key)[1:]),
            "root": root_kid,
            "fields": header["fields"],
            "nbytes": header["nbytes"],
            "created": header["created"],
        }
        ref_bytes = json.dumps(ref, sort_keys=True).encode("utf-8")
        ref_path = self._ref_path(kid)
        tmp_ref = self._tmp_name(ref_path)
        try:
            tmp_ref.write_bytes(ref_bytes)
            os.replace(tmp_ref, ref_path)
        finally:
            try:
                tmp_ref.unlink(missing_ok=True)
            except OSError:
                pass
        self.patch_saves += 1
        self.saves += 1
        elapsed = time.perf_counter() - start
        self.save_s += elapsed
        metrics.counter("store_saves", kind="patch")
        metrics.counter("store_save_bytes",
                        len(record) + len(ref_bytes), kind="patch")
        metrics.observe("store_save_seconds", elapsed, kind="patch")
        if self.disk_budget is not None:
            self.enforce_disk_budget(protect=root_kid)
        return len(record) + len(ref_bytes)

    def _lineage_root(self, key: Sequence) -> str | None:
        """The key_id owning the journal a patch of ``key`` appends to:
        the key's own id when a full pair exists, else the root its ref
        points at, else ``None`` (nothing stored to patch against)."""
        paths = self._paths_or_none(key)
        if paths is None:
            return None
        npz_path, manifest_path = paths
        kid = artifact_format.key_id(key)
        if npz_path.exists() and manifest_path.exists():
            return kid
        ref = self._read_ref(kid)
        if ref is not None:
            root = ref.get("root")
            if isinstance(root, str) and (
                self.root / f"{root}.npz"
            ).exists():
                return root
        return None

    def _read_ref(self, kid: str) -> dict | None:
        try:
            ref = json.loads(self._ref_path(kid).read_bytes())
        except (FileNotFoundError, OSError, ValueError):
            return None
        if (
            isinstance(ref, dict)
            and ref.get("type") == "patch-ref"
            and ref.get("version") == artifact_format.FORMAT_VERSION
            and ref.get("dtype") == artifact_format.COORD_DTYPE
        ):
            return ref
        return None

    def load(self, key: Sequence, polygons) -> PreparedPolygons | None:
        """Load and validate the artifact for ``key``; ``None`` on any
        failure (missing, torn, corrupt, stale format) — the caller
        rebuilds, it never crashes.

        A key persisted as a patch (a ``.ref`` file) replays its journal
        chain over the lineage's base pair and recomposes — bit-identical
        to loading a full pair, by the determinism of the per-polygon
        composition.
        """
        start = time.perf_counter()
        paths = self._paths_or_none(key)
        if paths is None:
            return None
        npz_path, manifest_path = paths
        if not manifest_path.exists():
            return self._load_patched(key, polygons, start)
        try:
            manifest = json.loads(manifest_path.read_bytes())
            artifact_format.validate_manifest(manifest, key)
            payload = npz_path.read_bytes()
            if len(payload) != manifest.get("payload_bytes"):
                raise ArtifactFormatError("payload size mismatch")
            if artifact_format.checksum(payload) != manifest.get("checksum"):
                raise ArtifactFormatError("payload checksum mismatch")
            with np.load(io.BytesIO(payload), allow_pickle=False) as arrays:
                prepared = artifact_format.decode(
                    arrays, manifest, polygons, key
                )
        except FileNotFoundError:
            return None
        except Exception:
            # Anything else is a corrupt or torn pair: report a failure
            # and let the caller rebuild.  The next save overwrites it.
            self.load_failures += 1
            return None
        self._touch(npz_path, manifest_path)
        self.loads += 1
        elapsed = time.perf_counter() - start
        self.load_s += elapsed
        metrics.counter("store_loads", kind="prepared")
        metrics.counter("store_load_bytes", len(payload), kind="prepared")
        metrics.observe("store_load_seconds", elapsed, kind="prepared")
        return prepared

    def _load_patched(self, key: Sequence, polygons,
                      start: float) -> PreparedPolygons | None:
        """Replay a journaled key: base pair + patch-record chain."""
        kid = artifact_format.key_id(key)
        ref = self._read_ref(kid)
        if ref is None:
            return None
        fingerprint, *spec = key
        if (
            ref.get("fingerprint") != fingerprint
            or ref.get("spec") != artifact_format.canonical_spec(spec)
        ):
            self.load_failures += 1
            return None
        root_kid = ref.get("root")
        base_npz = self.root / f"{root_kid}.npz"
        base_manifest_path = self.root / f"{root_kid}.json"
        journal_path = self._journal_path(root_kid)
        try:
            manifest = json.loads(base_manifest_path.read_bytes())
            if (
                manifest.get("version") != artifact_format.FORMAT_VERSION
                or manifest.get("dtype") != artifact_format.COORD_DTYPE
            ):
                raise ArtifactFormatError("stale base pair")
            payload = base_npz.read_bytes()
            if len(payload) != manifest.get("payload_bytes"):
                raise ArtifactFormatError("base payload size mismatch")
            if artifact_format.checksum(payload) != manifest.get("checksum"):
                raise ArtifactFormatError("base payload checksum mismatch")
            base_fp = manifest.get("fingerprint")
            # Build the parent chain: target fp back to the base fp via
            # each record's parent pointer (undo/redo branches share one
            # journal, so records are chained by fingerprint, not by
            # append order).
            records = self._read_records(journal_path)
            by_fp: dict[str, tuple[dict, bytes]] = {}
            for header, blob in records:
                if (
                    header.get("version") == artifact_format.FORMAT_VERSION
                    and header.get("spec")
                    == artifact_format.canonical_spec(spec)
                ):
                    by_fp[header.get("fingerprint")] = (header, blob)
            chain: list[tuple[dict, bytes]] = []
            cursor = fingerprint
            while cursor != base_fp:
                node = by_fp.get(cursor)
                if node is None or len(chain) > len(records):
                    raise ArtifactFormatError("journal chain is broken")
                chain.append(node)
                cursor = node[0].get("parent_fingerprint")
            with np.load(io.BytesIO(payload), allow_pickle=False) as arrays:
                units, meta = artifact_format.decode_units_state(
                    arrays, manifest
                )
            for header, blob in reversed(chain):
                with np.load(io.BytesIO(blob), allow_pickle=False) as arrays:
                    units, meta = artifact_format.apply_patch(
                        units, meta, header, arrays
                    )
            prepared = artifact_format.compose_from_units(
                units, meta, polygons, key
            )
        except Exception:
            self.load_failures += 1
            return None
        self._touch(
            base_npz, base_manifest_path, journal_path, self._ref_path(kid)
        )
        self.loads += 1
        self.patch_loads += 1
        elapsed = time.perf_counter() - start
        self.load_s += elapsed
        metrics.counter("store_loads", kind="patch")
        metrics.counter("store_load_bytes", len(payload), kind="patch")
        metrics.observe("store_load_seconds", elapsed, kind="patch")
        return prepared

    @staticmethod
    def _touch(*paths: Path) -> None:
        now = time.time()
        for path in paths:
            try:
                os.utime(path, (now, now))  # recency for LRU eviction
            except OSError:
                pass

    def contains(self, key: Sequence) -> bool:
        """Whether (possibly invalid) stored state exists for ``key`` — a
        cheap existence probe used by dirty tracking, not a validation.

        A patch ref counts only while its lineage root pair still
        exists: an orphaned ref (the root was evicted) is *not*
        containment — dirty tracking uses this answer to decide whether
        demoting an entry without saving it loses data, and an orphaned
        ref cannot serve a load.
        """
        paths = self._paths_or_none(key)
        if paths is None:
            return False
        npz_path, manifest_path = paths
        if npz_path.exists() and manifest_path.exists():
            return True
        ref = self._read_ref(artifact_format.key_id(key))
        if ref is None:
            return False
        root = ref.get("root")
        return (
            isinstance(root, str)
            and (self.root / f"{root}.npz").exists()
            and (self.root / f"{root}.json").exists()
        )

    # ------------------------------------------------------------------
    # Aggregate pyramids — second artifact type, same pair layout
    # ------------------------------------------------------------------
    def save_pyramid(self, key: Sequence, pyramid) -> int:
        """Persist an aggregate pyramid atomically; returns bytes written.

        Same durability contract as :meth:`save` — tmp-and-rename pair
        commit with the npz first, checksum in the manifest, and an
        :class:`ArtifactTooLargeError` *before* writing anything when
        the pair alone would exceed the disk budget.  Pyramids never
        journal: a channel addition rewrites the (small) pair whole.
        """
        start = time.perf_counter()
        arrays, manifest = artifact_format.encode_pyramid(pyramid, key)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload = buffer.getvalue()
        manifest["checksum"] = artifact_format.checksum(payload)
        manifest["payload_bytes"] = len(payload)
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
        if (
            self.disk_budget is not None
            and len(payload) + len(manifest_bytes) > self.disk_budget
        ):
            self.rejected_saves += 1
            raise ArtifactTooLargeError(
                f"pyramid pair ({(len(payload) + len(manifest_bytes)) / 1e6:.1f}"
                f" MB) exceeds the store's disk budget "
                f"({self.disk_budget / 1e6:.1f} MB)"
            )
        npz_path, manifest_path = self._paths(key)
        tmp_npz = self._tmp_name(npz_path)
        tmp_manifest = self._tmp_name(manifest_path)
        try:
            tmp_npz.write_bytes(payload)
            os.replace(tmp_npz, npz_path)
            tmp_manifest.write_bytes(manifest_bytes)
            os.replace(tmp_manifest, manifest_path)
        finally:
            for leftover in (tmp_npz, tmp_manifest):
                try:
                    leftover.unlink(missing_ok=True)
                except OSError:
                    pass
        self.saves += 1
        elapsed = time.perf_counter() - start
        self.save_s += elapsed
        metrics.counter("store_saves", kind="pyramid")
        metrics.counter("store_save_bytes",
                        len(payload) + len(manifest_bytes), kind="pyramid")
        metrics.observe("store_save_seconds", elapsed, kind="pyramid")
        if self.disk_budget is not None:
            self.enforce_disk_budget(protect=artifact_format.key_id(key))
        return len(payload) + len(manifest_bytes)

    def load_pyramid(self, key: Sequence):
        """Load and validate the pyramid for ``key``; ``None`` on any
        failure — the caller rebuilds from points, it never crashes."""
        start = time.perf_counter()
        paths = self._paths_or_none(key)
        if paths is None:
            return None
        npz_path, manifest_path = paths
        try:
            manifest = json.loads(manifest_path.read_bytes())
            artifact_format.validate_pyramid_manifest(manifest, key)
            payload = npz_path.read_bytes()
            if len(payload) != manifest.get("payload_bytes"):
                raise ArtifactFormatError("payload size mismatch")
            if artifact_format.checksum(payload) != manifest.get("checksum"):
                raise ArtifactFormatError("payload checksum mismatch")
            with np.load(io.BytesIO(payload), allow_pickle=False) as arrays:
                pyramid = artifact_format.decode_pyramid(arrays, manifest)
        except FileNotFoundError:
            return None
        except Exception:
            self.load_failures += 1
            return None
        self._touch(npz_path, manifest_path)
        self.loads += 1
        elapsed = time.perf_counter() - start
        self.load_s += elapsed
        metrics.counter("store_loads", kind="pyramid")
        metrics.counter("store_load_bytes", len(payload), kind="pyramid")
        metrics.observe("store_load_seconds", elapsed, kind="pyramid")
        return pyramid

    def contains_pyramid(self, key: Sequence) -> bool:
        """Cheap existence probe for a persisted pyramid pair."""
        paths = self._paths_or_none(key)
        if paths is None:
            return False
        npz_path, manifest_path = paths
        return npz_path.exists() and manifest_path.exists()

    def describe(self, key: Sequence) -> list[str] | None:
        """The stored artifact's field list, without loading the payload.

        Reads and validates only the (small) manifest — cache-aware
        costing uses this to tell a *full* artifact (coverage present:
        the polygon pass replays) from a *partial* one (triangles/grid
        only: preparation is skipped but coverage re-rasterizes).
        Journaled keys answer from their ref manifest, equally cheaply.
        Returns ``None`` for missing or invalid state; never raises.
        """
        paths = self._paths_or_none(key)
        if paths is None:
            return None
        npz_path, manifest_path = paths
        try:
            manifest = json.loads(manifest_path.read_bytes())
            artifact_format.validate_manifest(manifest, key)
            # Truncation (the common corruption) is visible from the
            # size alone; deeper rot still surfaces at load time and
            # costs only a mispredicted-but-correct query.
            if npz_path.stat().st_size != manifest.get("payload_bytes"):
                return None
            return list(manifest.get("fields", ()))
        except FileNotFoundError:
            pass
        except Exception:
            return None
        kid = artifact_format.key_id(key)
        ref = self._read_ref(kid)
        if ref is None:
            return None
        fingerprint, *spec = key
        if (
            ref.get("fingerprint") != fingerprint
            or ref.get("spec") != artifact_format.canonical_spec(spec)
        ):
            return None
        root = ref.get("root")
        if not isinstance(root, str) or not (
            self.root / f"{root}.npz"
        ).exists():
            return None  # lineage base evicted: the key won't load
        return list(ref.get("fields", ()))

    def delete(self, key: Sequence) -> bool:
        """Drop the stored state for ``key``; True if anything was
        removed.  Removes the pair, the key's patch ref, and — when the
        key roots a lineage — its journal (derived refs then load as
        misses and rebuild)."""
        paths = self._paths_or_none(key)
        if paths is None:
            return False
        kid = artifact_format.key_id(key)
        removed = False
        for path in (*paths, self._ref_path(kid), self._journal_path(kid)):
            try:
                path.unlink()
                removed = True
            except FileNotFoundError:
                pass
        return removed

    def clear(self) -> int:
        """Remove every file in the store; returns artifacts removed.

        Also sweeps refs, journals, orphan payloads (a crash between the
        two commits of a save), and abandoned temporary files.
        """
        removed = 0
        for manifest_path in self.root.glob("*.json"):
            removed += 1
            manifest_path.unlink(missing_ok=True)
        for ref_path in self.root.glob("*.ref"):
            removed += 1
            ref_path.unlink(missing_ok=True)
        for leftover in (
            *self.root.glob("*.npz"),
            *self.root.glob("*.journal"),
            *self.root.glob("*.tmp-*"),
        ):
            leftover.unlink(missing_ok=True)
        return removed

    # ------------------------------------------------------------------
    # Disk budget
    # ------------------------------------------------------------------
    #: Temporary files younger than this are assumed to belong to a live
    #: writer; older ones are crash debris, accounted and evictable.
    TMP_GRACE_SECONDS = 300.0

    def _scan(self) -> dict[str, tuple[int, float, list[Path]]]:
        """group id -> (bytes, last-use mtime, paths) for everything the
        budget should see: artifact pairs (complete or torn) grouped by
        key_id — a lineage root's journal shares its pair's group, so a
        base and its patch records evict as one unit — patch refs as
        their own (tiny) groups, plus aged ``*.tmp-*`` crash debris, so
        the disk accounting never undercounts and eviction can reclaim
        any of it.  Fresh tmp files (a live writer) are left alone.
        """
        now = time.time()
        groups: dict[str, tuple[int, float, list[Path]]] = {}
        for path in self.root.iterdir():
            name = path.name
            if ".tmp-" in name:
                group = name
            elif (
                name.endswith(".json") or name.endswith(".npz")
                or name.endswith(".ref") or name.endswith(".journal")
            ):
                group = path.stem
            else:
                continue
            try:
                stat = path.stat()
            except (FileNotFoundError, OSError):
                continue  # racing a concurrent eviction
            if ".tmp-" in name and now - stat.st_mtime < self.TMP_GRACE_SECONDS:
                continue
            size, mtime, paths = groups.get(group, (0, 0.0, []))
            groups[group] = (size + stat.st_size,
                             max(mtime, stat.st_mtime), paths + [path])
        return groups

    def entries(self) -> list[tuple[str, int, float]]:
        """(group id, bytes, last-use mtime) per evictable unit — see
        :meth:`_scan` for what counts as a unit."""
        return [
            (group, size, mtime)
            for group, (size, mtime, _) in self._scan().items()
        ]

    @property
    def disk_bytes(self) -> int:
        """Current size of all complete pairs in the store."""
        return sum(size for _, size, _ in self.entries())

    def enforce_disk_budget(self, protect: str | None = None) -> int:
        """Evict oldest pairs until the directory fits the budget.

        ``protect`` names a key_id never evicted (the pair just written,
        so a single save can't evict its own artifact).  Returns the
        number of artifacts evicted.
        """
        if self.disk_budget is None:
            return 0
        groups = self._scan()
        order = sorted(groups.items(), key=lambda item: item[1][1])
        total = sum(size for size, _, _ in groups.values())
        evicted = 0
        for group, (size, _, paths) in order:
            if total <= self.disk_budget:
                break
            if group == protect:
                continue
            for path in paths:
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            total -= size
            evicted += 1
        self.evictions += evicted
        return evicted

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries())

    def __bool__(self) -> bool:
        # A store is a capability, not a container: an *empty* store is
        # still an attached store (len() would otherwise decide).
        return True

    def __repr__(self) -> str:
        budget = (
            f"{self.disk_budget / 1e6:.0f} MB cap"
            if self.disk_budget is not None else "uncapped"
        )
        return (
            f"ArtifactStore({self.root}, {len(self)} artifacts, "
            f"~{self.disk_bytes / 1e6:.1f} MB, {budget}, "
            f"{self.saves} saves, {self.loads} loads, "
            f"{self.load_failures} load failures, "
            f"{self.evictions} evictions)"
        )
