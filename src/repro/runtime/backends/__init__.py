"""Rank-runtime backends behind the Communicator API.

Selection order: an explicit ``backend=`` argument (``run_spmd``,
``AnalyticsEngine``, ``--backend`` on the CLI), else the
``REPRO_BACKEND`` environment variable, else ``threads``.

See :mod:`.base` for the contract, and DESIGN.md §12 for the semantics
each backend guarantees (bitwise-equivalent collectives and traces,
verifier and sanitizer behavior, buffer lifecycle).
"""

from __future__ import annotations

import os

from ..errors import SpmdLaunchError
from .base import (
    Backend,
    FnSpec,
    PICKLE_HINT,
    Session,
    SessionRun,
    find_unpicklable,
    resolve_fn_spec,
)
from .procs import ProcsBackend
from .threads import ThreadsBackend

__all__ = [
    "BACKEND_ENV",
    "Backend",
    "FnSpec",
    "PICKLE_HINT",
    "Session",
    "SessionRun",
    "backend_names",
    "find_unpicklable",
    "get_backend",
    "resolve_fn_spec",
]

#: Environment variable naming the default backend.
BACKEND_ENV = "REPRO_BACKEND"

_REGISTRY: dict[str, Backend] = {
    b.name: b for b in (ThreadsBackend(), ProcsBackend())
}


def backend_names() -> list[str]:
    """All registered backend names."""
    return list(_REGISTRY)


def get_backend(name: str | None = None) -> Backend:
    """Resolve a backend: explicit name, else ``$REPRO_BACKEND``, else threads.

    Raises
    ------
    SpmdLaunchError
        For an unknown backend, listing the registered ones so the error
        is actionable from the CLI.
    """
    source = "requested"
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or None
        source = f"${BACKEND_ENV}"
    if name is None:
        name = "threads"
    name = name.strip().lower()
    backend = _REGISTRY.get(name)
    if backend is None:
        raise SpmdLaunchError(
            f"unknown runtime backend {name!r} ({source}); available "
            f"backends: {', '.join(backend_names())}")
    return backend
