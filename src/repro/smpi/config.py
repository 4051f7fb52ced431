"""SMPI runtime configuration.

Collects every tunable of the simulated MPI implementation in one
dataclass, mirroring SMPI's ``--cfg=smpi/...`` options:

* the **eager/rendezvous threshold** (64 KiB by default, where OpenMPI and
  MPICH2 switch protocol and where the piece-wise model places a segment
  boundary — paper section 7.1.1);
* per-message **CPU overheads** on the send and receive side (the os/or of
  LogP-style models; SMPI calls them smpi/os and smpi/or);
* **collective algorithm selection** — "auto" applies MPICH2-flavoured
  rules on message size and communicator size; naming an algorithm forces
  it (the paper implements one variant each and announces multiple
  selectable variants as future work, which we deliver);
* **host speed factor** scaling measured CPU-burst durations onto target
  nodes (paper section 3.1);
* the **memory limit** enforced on the simulated heap (Fig. 16's OM bars).

Outside values — ``repro run`` flags, sweep-spec axes and options —
become a config through one entry point, :meth:`SmpiConfig.from_options`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from ..errors import ConfigError
from ..units import parse_size

__all__ = ["SmpiConfig", "parse_options"]

#: fields holding a byte count: an int or a ``parse_size`` string
_SIZE_FIELDS = frozenset({"eager_threshold", "memory_limit"})

#: the value types each annotated field type accepts (an int is a float)
_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass
class SmpiConfig:
    """All SMPI knobs; defaults model OpenMPI on a TCP/GigE cluster."""

    #: messages strictly larger than this use the rendezvous protocol
    eager_threshold: int = 64 * 1024
    #: sender-side per-message CPU overhead, seconds
    send_overhead: float = 2e-6
    #: receiver-side per-message CPU overhead, seconds
    recv_overhead: float = 1e-6
    #: extra round-trips of route latency paid by the rendezvous handshake
    handshake_rtts: float = 1.0
    #: simulated duration of one MPI_Test/Iprobe poll (SMPI's smpi/test);
    #: non-zero so Test loops cannot stall the simulated clock
    test_delay: float = 1e-6
    #: fraction of the physical path bandwidth this implementation's
    #: transport actually achieves on large transfers (protocol chunking,
    #: copy pipelining); differentiates OpenMPI-like from MPICH2-like stacks
    wire_efficiency: float = 1.0
    #: effective bandwidth of the eager protocol's extra buffer copies
    #: (sender socket copy + receiver unexpected-buffer copy); ``inf``
    #: disables it.  This is what real implementations pay in buffered
    #: mode and why the eager regime has its own piece-wise segment.
    eager_copy_bandwidth: float = float("inf")

    #: multiply measured host burst durations by this factor when replaying
    #: them on the target platform (host/target performance ratio)
    speed_factor: float = 1.0

    #: per-collective algorithm choice; "auto" = built-in selection rules
    coll_algorithms: dict[str, str] = field(default_factory=dict)

    #: enforce the per-host memory budget on the simulated heap
    enforce_memory_limit: bool = False
    #: host memory available to the simulated heap (None = host.memory)
    memory_limit: int | None = None

    #: transport timing without moving payload bytes (the paper's RAM
    #: technique #2 applied to messages: data references removed, results
    #: erroneous, timing preserved).  Lets huge simulations run at
    #: model-solve speed — Fig. 17's large-message regime.
    zero_copy: bool = False

    #: record an event trace of every message and compute burst
    tracing: bool = False

    #: fold byte-identical packed message payloads into one interned,
    #: reference-counted copy (``SMPI_SHARED_MALLOC`` applied to the
    #: message plane — see :mod:`repro.smpi.intern`).  At 10k+ folded
    #: ranks every rank sends the same panel bytes, so the payload
    #: population collapses to a handful of arrays.  Timing-neutral.
    payload_interning: bool = True

    # -- fault semantics (dynamic platforms, docs/faults.md) -------------------
    #: automatic pt2pt retries after a transfer dies on a network failure
    #: (0 = fail fast with MPI_ERR_OTHER, the default)
    comm_retries: int = 0
    #: base delay before the first retry; doubles on each further attempt
    retry_backoff: float = 1e-3
    #: give up on a pt2pt transfer still in flight after this many simulated
    #: seconds (None = never); timeouts raise MPI_ERR_OTHER like failures
    comm_timeout: float | None = None
    #: what a host failure does to the ranks running on it: ``"raise"``
    #: fails their pending operations (fail-fast), ``"kill-rank"``
    #: terminates them silently and fails *peers* talking to them with
    #: MPI_ERR_PROC_FAILED (graceful degradation)
    on_host_down: str = "raise"

    def algorithm_for(self, collective: str) -> str:
        """Selected algorithm name for a collective ('auto' if unset)."""
        return self.coll_algorithms.get(collective, "auto")

    def with_options(self, **overrides) -> "SmpiConfig":
        """Return a copy with the given fields replaced."""
        unknown = set(overrides) - set(self.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown SMPI options: {sorted(unknown)}")
        return replace(self, **overrides)

    @classmethod
    def from_options(cls, options: Mapping[str, object],
                     tracing: bool = False) -> "SmpiConfig":
        """A config from outside values (CLI flags, sweep specs).

        :func:`parse_options` checks the values by kind, then the new
        config's own checks refuse out-of-range ones.
        """
        return cls(tracing=tracing, **parse_options(options))

    def __post_init__(self) -> None:
        if self.eager_threshold < 0:
            raise ConfigError("eager_threshold must be >= 0")
        if self.send_overhead < 0 or self.recv_overhead < 0:
            raise ConfigError("per-message overheads must be >= 0")
        if self.speed_factor <= 0:
            raise ConfigError("speed_factor must be > 0")
        if self.comm_retries < 0:
            raise ConfigError("comm_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ConfigError("retry_backoff must be >= 0")
        if self.comm_timeout is not None and self.comm_timeout <= 0:
            raise ConfigError("comm_timeout must be > 0 (or None)")
        if self.on_host_down not in ("raise", "kill-rank"):
            raise ConfigError(
                "on_host_down must be 'raise' or 'kill-rank'")


def parse_options(options: Mapping[str, object],
                  source: str = "option") -> dict:
    """Outside values as :class:`SmpiConfig` keyword arguments.

    Keys are field names or ``coll.<collective>`` (``"auto"`` or an
    algorithm of :data:`repro.smpi.coll.ALGORITHMS`).  Size fields take
    an int or a ``parse_size`` string (``"64KiB"``), other fields their
    annotated type (an int for a float, no bool for a number); numbers
    pass through unchanged.  Refusals raise :class:`ConfigError`.
    """
    from .coll import ALGORITHMS

    fields = SmpiConfig.__dataclass_fields__
    values: dict = {}
    for key, value in options.items():
        where = f"{source} {key!r}"
        if key.startswith("coll."):
            collective = key[len("coll."):]
            if collective not in ALGORITHMS:
                raise ConfigError(f"{where}: unknown collective; available: "
                                  f"{sorted(ALGORITHMS)}")
            table = ALGORITHMS[collective]
            if value not in ("auto", *table):
                raise ConfigError(f"{where}: unknown algorithm {value!r}; "
                                  f"available: {sorted(table)} or 'auto'")
            values.setdefault("coll_algorithms", {})[collective] = value
            continue
        if key in ("coll_algorithms", "tracing") or key not in fields:
            raise ConfigError(f"unknown {where}: expected an SmpiConfig field "
                              "or 'coll.<collective>' (tracing is the run's "
                              "trace switch)")
        kind, _, optional = fields[key].type.partition(" | ")
        if key in _SIZE_FIELDS and isinstance(value, str):
            try:
                value = parse_size(value)
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        elif not (value is None and optional) and (
                isinstance(value, bool) != (kind == "bool")
                or not isinstance(value, _KINDS[kind])):
            raise ConfigError(f"{where} takes {kind}, got {value!r}")
        values[key] = value
    return values
