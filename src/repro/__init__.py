"""repro — a Python reproduction of SMPI (Clauss et al., IPDPS 2011):
single-node on-line simulation of MPI applications.

Layering (mirrors the paper's Fig. 1):

* :mod:`repro.surf`   — simulation kernel: resources, max-min contention
  model, the piece-wise linear network model, platforms;
* :mod:`repro.simix`  — process layer: thread-per-rank actors driven
  strictly sequentially;
* :mod:`repro.smpi`   — the MPI API: point-to-point (eager/rendezvous),
  collectives as point-to-point sets, sampling macros, RAM folding;
* :mod:`repro.packetsim` / :mod:`repro.refcluster` — the packet-level
  testbed standing in for the paper's real clusters;
* :mod:`repro.calibration` — SKaMPI-campaign fitting of the affine and
  piece-wise linear models;
* :mod:`repro.platforms` — griffon and gdx;
* :mod:`repro.nas`    — the DT and EP benchmarks;
* :mod:`repro.metrics` — the logarithmic error metric.

Quickstart::

    import numpy as np
    from repro.smpi import smpirun
    from repro.surf import cluster

    def app(mpi):
        data = np.full(4, float(mpi.rank))
        out = np.empty(4)
        mpi.COMM_WORLD.Allreduce(data, out)
        return float(out[0])

    result = smpirun(app, 8, cluster("demo", 8))
    print(result.simulated_time, result.returns)
"""

import importlib as _importlib

from .errors import (
    ActorFailure,
    CalibrationError,
    ConfigError,
    DeadlockError,
    MpiError,
    OutOfMemoryError,
    PlatformError,
    ReproError,
    RoutingError,
    SimulationError,
)
from .smpi import Mpi, SmpiConfig, SmpiResult, smpirun
from .surf import Engine, Platform, cluster, multi_cabinet_cluster

__version__ = "1.0.0"

#: subpackages loaded on first attribute access (PEP 562), so a run pays
#: only for what it uses: calibration pulls in scipy, which no simulation
#: needs
_SUBPACKAGES = frozenset({
    "calibration", "metrics", "nas", "offline", "packetsim", "platforms",
    "refcluster", "simix", "smpi", "surf", "sweep",
})


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return _importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    helpers = {"_SUBPACKAGES", "_importlib", "__getattr__", "__dir__"}
    return sorted((set(globals()) - helpers) | _SUBPACKAGES)

__all__ = [
    "ActorFailure",
    "CalibrationError",
    "ConfigError",
    "DeadlockError",
    "Engine",
    "Mpi",
    "MpiError",
    "OutOfMemoryError",
    "Platform",
    "PlatformError",
    "ReproError",
    "RoutingError",
    "SimulationError",
    "SmpiConfig",
    "SmpiResult",
    "calibration",
    "cluster",
    "metrics",
    "multi_cabinet_cluster",
    "nas",
    "offline",
    "packetsim",
    "platforms",
    "refcluster",
    "simix",
    "smpi",
    "smpirun",
    "surf",
    "__version__",
]
