"""SURF — the simulation kernel (SimGrid's lowest layer, paper Fig. 1).

SURF owns the simulated clock and the *resources* (network links, host
CPUs).  Ongoing activities are *actions* (a data transfer, a computation)
that consume resource capacity.  At every scheduling point the kernel

1. solves a max-min fairness problem (:mod:`repro.surf.maxmin`) to find the
   instantaneous rate of every action,
2. advances the clock to the earliest action completion,
3. reports finished actions to the upper layer (SIMIX).

The network models of the paper — constant/no-contention, affine, best-fit
affine and the contributed piece-wise linear model — live in
:mod:`repro.surf.network_model`.
"""

from .action import Action, ActionState
from .cpu_model import CpuModel
from .engine import Engine
from .maxmin import IncrementalMaxMin
from .network_model import (
    AffineNetworkModel,
    ConstantNetworkModel,
    NetworkModel,
    PiecewiseLinearNetworkModel,
    PiecewiseSegment,
)
from .platform import Platform, cluster, multi_cabinet_cluster
from .profiles import Profile, load_profile, parse_profile
from .topologies import fat_tree, torus
from .platform_xml import load_platform_xml, save_platform_xml
from .resources import Host, Link, SharingPolicy
from .routing import Route
from .stats import EngineStats

__all__ = [
    "Action",
    "ActionState",
    "AffineNetworkModel",
    "ConstantNetworkModel",
    "CpuModel",
    "Engine",
    "EngineStats",
    "Host",
    "IncrementalMaxMin",
    "Link",
    "NetworkModel",
    "PiecewiseLinearNetworkModel",
    "PiecewiseSegment",
    "Platform",
    "Profile",
    "Route",
    "SharingPolicy",
    "cluster",
    "fat_tree",
    "load_platform_xml",
    "load_profile",
    "multi_cabinet_cluster",
    "parse_profile",
    "save_platform_xml",
    "torus",
]
