"""Durable artifact store: spill :class:`PreparedPolygons` to disk.

An :class:`ArtifactStore` is a directory of ``(<key_id>.npz,
<key_id>.json)`` pairs, one per (geometry fingerprint, render spec) key.
It is the disk tier behind :class:`~repro.cache.session.QuerySession`:
artifacts demoted out of the in-memory byte budget land here, and a
fresh process pointed at a populated store answers its first repeated
query warm — no re-triangulation, no coverage rebuild.

The pair is the only shape on disk and a prepared-polygon artifact the
only thing in one, and every save writes a whole one: an edited polygon
set persists under its own key exactly as a cold-built one does
(``docs/incremental_edits.md`` has the measured cost).  One writer
(:meth:`ArtifactStore.save`) and one reader (:meth:`ArtifactStore.load`)
hold the durability contract:

* **Atomic writes.**  Each file is written to a temporary name and
  committed with :func:`os.replace`; the ``.npz`` is committed before
  the manifest, and loads read the manifest first, so a reader can
  never observe a half-written pair as valid.  Temporary files are
  removed whether or not the commit succeeded.
* **Checksums.**  The manifest carries the size and a digest of the
  ``.npz`` bytes; any mismatch (torn pair, a new payload under an old
  manifest, bit rot, truncation) fails validation.
* **Corruption tolerance.**  Every load failure — missing file, bad
  zip, bad JSON, version or key mismatch, checksum mismatch — returns
  ``None`` instead of raising, so callers fall back to a rebuild.  The
  rebuilt artifact overwrites the bad state on the next save.
* **Disk budget.**  ``disk_budget`` caps the directory size.  A pair
  larger than the whole budget is refused before anything is written;
  otherwise the oldest pairs by mtime are evicted (loads touch mtime,
  making this LRU-by-recency, not merely by write time), never the one
  just written.

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

#: The two files of a pair, and everything the store accounts for and
#: sweeps: a directory written by an earlier version may also hold the
#: ``.ref`` / ``.journal`` files of a patch journal nothing reads any more.
_PAIR_SUFFIXES = (".npz", ".json")
_STORE_SUFFIXES = _PAIR_SUFFIXES + (".ref", ".journal")


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

    # ------------------------------------------------------------------
    # Save / load: the pair writer and the pair reader
    # ------------------------------------------------------------------
    def _commit(self, final: Path, data: bytes) -> None:
        """Write ``data`` under a temporary name and rename it into
        place; the temporary file is gone afterwards either way."""
        tmp = final.with_name(
            f"{final.name}.tmp-{os.getpid()}-{threading.get_ident()}-"
            f"{uuid.uuid4().hex[:8]}"
        )
        try:
            tmp.write_bytes(data)
            os.replace(tmp, final)
        finally:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def save(self, key: Sequence, prepared: PreparedPolygons) -> int:
        """Persist an artifact as the pair for ``key``; returns bytes
        written.

        The npz payload is committed before the manifest, so a manifest
        on disk always describes a complete payload (modulo a concurrent
        writer replacing the pair, or a failure between the two commits
        leaving a new payload under an old manifest — both of which the
        checksum catches).  An ``OSError`` anywhere propagates with no
        temporary file left behind; the caller decides what a failed
        save costs.

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
        written = len(payload) + len(manifest_bytes)
        if self.disk_budget is not None and written > self.disk_budget:
            self.rejected_saves += 1
            raise ArtifactTooLargeError(
                f"artifact pair ({written / 1e6:.1f} MB) exceeds the store's "
                f"disk budget ({self.disk_budget / 1e6:.1f} MB)"
            )
        npz_path, manifest_path = self._paths(key)
        self._commit(npz_path, payload)
        self._commit(manifest_path, manifest_bytes)
        self.saves += 1
        elapsed = time.perf_counter() - start
        self.save_s += elapsed
        metrics.counter("store_saves")
        metrics.counter("store_save_bytes", written)
        metrics.observe("store_save_seconds", elapsed)
        if self.disk_budget is not None:
            self.enforce_disk_budget(protect=npz_path.stem)
        return written

    def load(self, key: Sequence, polygons) -> PreparedPolygons | None:
        """The artifact stored for ``key``, rebuilt around the caller's
        live ``polygons``; ``None`` on any failure (missing, torn,
        corrupt, stale format) — the caller rebuilds, it never crashes.

        The manifest must carry this format version and this key, the
        payload the size and checksum the manifest records.  An absent
        pair is a plain miss; anything else that goes wrong is counted
        in ``load_failures``.
        """
        start = time.perf_counter()
        paths = self._paths_or_none(key)
        if paths is None:
            return None
        npz_path, manifest_path = paths
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
        now = time.time()
        for path in paths:
            try:
                os.utime(path, (now, now))  # recency for LRU eviction
            except OSError:
                pass
        self.loads += 1
        elapsed = time.perf_counter() - start
        self.load_s += elapsed
        metrics.counter("store_loads")
        metrics.counter("store_load_bytes", len(payload))
        metrics.observe("store_load_seconds", elapsed)
        return prepared

    def contains(self, key: Sequence) -> bool:
        """Whether a (possibly invalid) pair exists for ``key`` — a
        cheap existence probe used by dirty tracking, not a validation."""
        paths = self._paths_or_none(key)
        return paths is not None and all(path.exists() for path in paths)

    def describe(self, key: Sequence) -> list[str] | None:
        """The stored artifact's field list, without loading the payload.

        Reads and validates only the (small) manifest — cache-aware
        costing credits a stored artifact as warm only when ``coverage``
        is listed (the polygon pass replays it).  Returns ``None`` for
        missing or invalid state; never raises.
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
        except Exception:
            return None

    def delete(self, key: Sequence) -> bool:
        """Drop the pair stored for ``key``; True if anything was
        removed."""
        removed = False
        for path in self._paths_or_none(key) or ():
            try:
                path.unlink()
                removed = True
            except FileNotFoundError:
                pass
        return removed

    def clear(self) -> int:
        """Remove every file the store accounts for, live writers'
        temporaries included; returns artifacts (manifests) removed."""
        removed = 0
        for path in self.root.iterdir():
            if path.suffix in _STORE_SUFFIXES or ".tmp-" in path.name:
                if path.suffix == ".json":
                    removed += 1
                path.unlink(missing_ok=True)
        return removed

    # ------------------------------------------------------------------
    # Disk budget
    # ------------------------------------------------------------------
    #: Temporary files younger than this are assumed to belong to a live
    #: writer; older ones are crash debris, accounted and evictable.
    TMP_GRACE_SECONDS = 300.0

    def _scan(self) -> dict[str, tuple[int, float, list[Path]]]:
        """group id -> (bytes, last-use mtime, paths) for everything the
        budget should see, so the disk accounting never undercounts and
        eviction can reclaim any of it: pairs, complete or torn, grouped
        by key_id; and, each a group of its own, aged ``*.tmp-*`` crash
        debris and the ``.ref`` / ``.journal`` files a store directory
        written before the pair became the only shape may still hold
        (nothing reads them; never touched again, they are the oldest
        groups and the first to go).  Fresh tmp files (a live writer)
        are left alone.
        """
        now = time.time()
        groups: dict[str, tuple[int, float, list[Path]]] = {}
        for path in self.root.iterdir():
            aging = ".tmp-" in path.name
            if not aging and path.suffix not in _STORE_SUFFIXES:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # racing a concurrent eviction
            if aging and now - stat.st_mtime < self.TMP_GRACE_SECONDS:
                continue
            group = path.stem if path.suffix in _PAIR_SUFFIXES else path.name
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
        """Bytes of everything :meth:`_scan` accounts for: pairs, torn
        halves of pairs, aged temporary files and leftover files of an
        older store layout."""
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
