"""Pluggable execution-context backends for SIMIX actors.

See :mod:`repro.simix.contexts.base` for the model.  The public surface
is the backend registry (:func:`select_backend`, :func:`available_backends`)
plus the :class:`ContextBackend`/:class:`ExecutionContext` interfaces;
individual backends live in their own modules and are imported lazily.
"""

from .base import (
    CTX_ENV_VAR,
    AutoBackend,
    ContextBackend,
    CoroutineBackend,
    ExecutionContext,
    ThreadBackend,
    available_backends,
    drive_on_stack,
    run_blocking,
    select_backend,
)

__all__ = [
    "CTX_ENV_VAR",
    "AutoBackend",
    "ContextBackend",
    "CoroutineBackend",
    "ExecutionContext",
    "ThreadBackend",
    "available_backends",
    "drive_on_stack",
    "run_blocking",
    "select_backend",
]
