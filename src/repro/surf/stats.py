"""The engine's counter record (:class:`EngineStats`).

One instance rides on every :class:`~repro.surf.engine.Engine` as
``engine.stats``.  The kernel, the resource dynamics, the scheduler and
the pt2pt matcher all count into it; the speed evaluation (Figs. 17/18),
``--stats`` and the sweep memo cache read it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..errors import SimulationError

__all__ = ["EngineStats"]


@dataclass
class EngineStats:
    """Counters for the speed evaluation (Figs. 17/18).

    ``partial_shares`` counts the share calls that re-solved only a strict
    subset of the live flows (possibly none); ``flows_resolved`` is the
    total number of flow rates recomputed across all shares, and
    ``components_solved`` the number of connected components those
    re-solves covered.

    ``actions_touched`` counts per-action updates in the event loop: rate
    re-anchors plus heap-popped expiries.  ``heap_pops`` and
    ``stale_heap_entries`` instrument the completion heap itself.
    """

    steps: int = 0
    shares: int = 0
    actions_created: int = 0
    actions_completed: int = 0
    peak_concurrent: int = 0
    partial_shares: int = 0
    flows_resolved: int = 0
    components_solved: int = 0
    #: per-action updates performed by the event loop (see class docstring)
    actions_touched: int = 0
    #: completion-heap entries popped
    heap_pops: int = 0
    #: popped entries whose prediction was stale and skipped
    stale_heap_entries: int = 0
    #: utilization samples recorded on the attached timeline (0 unless
    #: :meth:`~repro.surf.engine.Engine.enable_timeline` was called)
    link_samples: int = 0
    #: capacity changes applied (availability profiles + set_availability)
    capacity_events: int = 0
    #: resources turned OFF (state profiles + fail_resource)
    resource_failures: int = 0
    #: resources turned back ON (state profiles + restore_resource)
    resource_restores: int = 0
    #: scheduler resumes of an actor execution context (any backend)
    ctx_switches: int = 0
    #: ctx_switches served by the sole-runnable drain fast path (the
    #: actor was resumed again directly, skipping a deque cycle)
    ctx_fast_resumes: int = 0
    #: progressive-filling rounds spent across all incremental shares (a
    #: direct measure of solver work)
    fill_rounds: int = 0
    #: always 0: every share is solved to the exact max-min fixed point.
    #: Kept only because the e2ebench golden counters pin it; it can go
    #: once that golden file is regenerated
    approx_events: int = 0
    #: pt2pt match-queue entries examined across all matching attempts
    #: (both ``index`` and ``scan`` modes count identically: one probe
    #: per entry looked at, minimum one per attempt) — the cost metric
    #: the matching ablation bench gates on
    match_probes: int = 0
    #: successful matches whose envelope carried no wildcard (the
    #: indexed queues serve these from an O(1) bucket popleft)
    match_fast_hits: int = 0
    #: matching attempts resolved through a wildcard pattern
    #: (ANY_SOURCE/ANY_TAG on either side)
    wildcard_scans: int = 0
    #: Request/Message/_PostedRecv objects served from a free-list pool
    #: instead of freshly allocated (see docs/performance.md)
    pooled_reuses: int = 0
    extra: dict = field(default_factory=dict)

    #: wire-format version stamped into :meth:`to_dict` payloads; bump it
    #: whenever a counter changes meaning (renames/removals/additions), so
    #: stale serialized stats — e.g. sweep memo-cache entries — are
    #: rejected instead of silently misread.  v2: added the match/alloc
    #: counters (match_probes, match_fast_hits, wildcard_scans,
    #: pooled_reuses).
    SCHEMA_VERSION = 2

    def to_dict(self) -> dict:
        """Serialize every counter to a plain-JSON-compatible dict.

        The payload carries a ``schema_version`` field (see
        :data:`SCHEMA_VERSION`) and round-trips exactly through
        :meth:`from_dict`; the sweep memo cache persists it under
        ``.repro-cache/``.
        """
        data = {"schema_version": self.SCHEMA_VERSION}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = dict(value) if spec.name == "extra" else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EngineStats":
        """Rebuild an :class:`EngineStats` from a :meth:`to_dict` payload.

        Raises :class:`~repro.errors.SimulationError` when the payload's
        ``schema_version`` is missing or different from
        :data:`SCHEMA_VERSION`, or when it carries counters this version
        does not know — both mean the serialized stats come from an
        incompatible build and must not be trusted.
        """
        payload = dict(data)
        version = payload.pop("schema_version", None)
        if version != cls.SCHEMA_VERSION:
            raise SimulationError(
                f"EngineStats schema_version {version!r} is not the "
                f"supported version {cls.SCHEMA_VERSION}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SimulationError(
                f"EngineStats payload carries unknown counters {unknown}"
            )
        return cls(**payload)
