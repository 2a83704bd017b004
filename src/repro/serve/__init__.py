"""Concurrent serving layer: admission, coalescing, shared groups.

See ``docs/serving.md`` for the architecture,
:class:`~repro.serve.server.Server` for the API and
:func:`~repro.serve.group.execute_shared` for how statements queued
behind a busy pool share one execution.
"""

from repro.serve.group import execute_shared
from repro.serve.server import ServeConfig, Server

__all__ = ["ServeConfig", "Server", "execute_shared"]
