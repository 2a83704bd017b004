"""Engine-level execution configuration.

An :class:`EngineConfig` is the single knob callers (engine constructors,
the optimizer, the SQL planner) use to choose how tile tasks execute and
where prepared-state artifacts persist.  It is deliberately tiny — a
backend selector and worker count, an artifact-store location and cap,
and the process backend's dispatch mode (``shm``) — so it can be passed
through every layer unchanged and compared or hashed freely.  There is no
switch for *how* tiles render: every query runs the one tile pipeline
(:mod:`repro.core.tiles`) over the batched raster builders, and the
backend keeps its worker pool for as long as it lives.

Results never depend on it: every backend/worker/store combination
produces bit-identical grids (see ``docs/parallel_execution.md`` and
``docs/artifact_store.md``), so the config is purely a performance
decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.backend import ExecutionBackend, resolve_backend


@dataclass(frozen=True)
class EngineConfig:
    """How an engine executes: backend, workers, artifact persistence.

    ``backend`` is a name (``"serial"``, ``"thread"``, ``"process"``), an
    :class:`ExecutionBackend` instance, or ``None`` to consult
    ``$REPRO_EXEC_BACKEND`` and default to serial.  ``workers`` of
    ``None`` consults ``$REPRO_EXEC_WORKERS`` and defaults to the host's
    core count (always 1 for the serial backend).

    ``store_dir`` names the directory of a persistent
    :class:`~repro.store.ArtifactStore`; ``None`` leaves store selection
    to the session (which consults ``$REPRO_STORE_DIR``).  When set, an
    engine or planner constructed without a session creates one backed
    by that store, so cross-session persistence can be switched on from
    configuration alone.  ``store_budget`` caps that store's on-disk
    size (bytes, or a ``"512M"``-style string; ``None`` consults
    ``$REPRO_STORE_BUDGET``).

    ``shm`` makes the process backend resident — a spawned worker pool
    kept across queries, fed routed point batches the tile loop keeps in
    named shared-memory segments; it means nothing to the serial and
    thread backends (``None`` lets the process backend consult
    ``$REPRO_SHM``, defaulting to off).  Results never depend on it —
    like the backend choice it is purely a performance decision (see
    ``docs/parallel_execution.md``).  How points reach the tiles is not
    configured at all: it follows the input
    (:func:`repro.core.tiles.run_tiles`).
    """

    backend: str | ExecutionBackend | None = None
    workers: int | None = None
    store_dir: str | None = None
    store_budget: int | str | None = None
    shm: bool | None = None

    def make_backend(self) -> ExecutionBackend:
        """The backend instance this configuration describes."""
        return resolve_backend(
            self.backend, self.workers, shm_resident=self.shm
        )

    def with_pinned_backend(self) -> "EngineConfig":
        """This config with its backend resolved to a live instance.

        Components that construct many engines (the optimizer, the SQL
        planner) pin the backend once so every engine they build shares
        one instance — and therefore one worker pool — instead of
        respawning a pool per query.  Idempotent: an already
        pinned config is returned unchanged.
        """
        if isinstance(self.backend, ExecutionBackend):
            return self
        import dataclasses

        return dataclasses.replace(self, backend=self.make_backend())

    def make_store(self):
        """The artifact store this configuration describes (or ``None``).

        Explicit fields win over the environment independently: the
        directory comes from ``store_dir`` else ``$REPRO_STORE_DIR``,
        the disk cap from ``store_budget`` else ``$REPRO_STORE_BUDGET``.
        No directory from either source means no store.
        """
        import os

        from repro.store import (
            STORE_BUDGET_ENV_VAR,
            STORE_DIR_ENV_VAR,
            ArtifactStore,
        )

        root = self.store_dir or os.environ.get(STORE_DIR_ENV_VAR)
        if not root:
            return None
        budget = self.store_budget
        if budget is None:
            budget = os.environ.get(STORE_BUDGET_ENV_VAR)
        return ArtifactStore(root, disk_budget=budget)

    def default_session(self):
        """The session a session-less engine/optimizer should own, or
        ``None``.

        Only an *explicit* ``store_dir`` creates one: persistence needs
        a session to live in, and a bare ``$REPRO_STORE_DIR`` must not
        silently convert cache-free (session-less) construction into
        caching construction — the environment takes effect through
        whatever ``QuerySession()`` the caller does create.  This is the
        single gate for that decision; engines, the optimizer, and the
        planner all route through it.
        """
        if not self.store_dir:
            return None
        from repro.cache.session import QuerySession

        return QuerySession(store=self.make_store())
