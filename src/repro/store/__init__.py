"""Persistent artifact store: disk-spilled prepared polygon state.

PR 1's :class:`~repro.cache.session.QuerySession` makes repeated queries
warm *within* one process; this package makes them warm *across*
processes.  A :class:`~repro.store.store.ArtifactStore` is a directory
of ``(.npz, .json manifest)`` pairs — one per (geometry fingerprint,
render spec) key — with atomic writes, checksum validation,
corruption-tolerant loads, and an LRU-by-recency disk budget.  Attach
one to a session (or set ``$REPRO_STORE_DIR``) and a restarted server
answers its first repeated query without re-triangulating anything.

The pair is the only shape on disk and every save writes a whole one —
a cold-built polygon set and an edited one alike — through one writer
and one reader that hold the durability contract.

See ``docs/artifact_store.md`` for the format, the eviction tiers, and
the environment knobs, and ``docs/incremental_edits.md`` for what an
edit's write-through costs.
"""

from repro.store.format import (
    COORD_DTYPE,
    FORMAT_VERSION,
    ArtifactFormatError,
    key_id,
)
from repro.store.store import (
    STORE_BUDGET_ENV_VAR,
    STORE_DIR_ENV_VAR,
    ArtifactStore,
    ArtifactTooLargeError,
    parse_bytes,
)

__all__ = [
    "ArtifactFormatError",
    "ArtifactStore",
    "ArtifactTooLargeError",
    "COORD_DTYPE",
    "FORMAT_VERSION",
    "STORE_BUDGET_ENV_VAR",
    "STORE_DIR_ENV_VAR",
    "key_id",
    "parse_bytes",
]
