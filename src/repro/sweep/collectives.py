"""Size x ranks x algorithm collective sweeps (``repro coll sweep``).

The param-comms-style front end over the generic sweep engine: a
geometric message-size ladder (``--b/--e/--f``), a list of rank counts
and a list of algorithms expand into one :class:`~repro.sweep.spec.SweepSpec`
whose points run the ``coll`` builtin workload.  Because it is a plain
spec, the ProcessPool fan-out, content-hash memo cache and report
tooling apply unchanged; this module only adds the collective-flavoured
row shape (latency/bandwidth per (size, nprocs, algorithm)) and the
crossover analysis that ROADMAP item 4's auto-tuner will consume.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..units import parse_size
from .runner import SweepResult
from .spec import SweepSpec

__all__ = ["size_ladder", "coll_sweep_spec", "coll_rows", "best_algorithms",
           "crossovers"]


def size_ladder(begin, end, factor: float = 2.0) -> list[int]:
    """Geometric ladder of message sizes in bytes (param-comms ``--b/--e/--f``).

    ``begin``/``end`` accept ints or SimGrid-style strings (``"1KiB"``);
    ``factor`` is the multiplicative step.  The ladder always includes
    ``begin`` and stops at the last value ``<= end``.
    """
    lo = int(parse_size(begin))
    hi = int(parse_size(end))
    step = float(factor)
    if lo < 1:
        raise ConfigError("size ladder must start at >= 1 byte")
    if hi < lo:
        raise ConfigError(f"size ladder end {hi} below begin {lo}")
    if step <= 1.0:
        raise ConfigError("size ladder factor must be > 1")
    sizes = []
    current = lo
    while current <= hi:
        sizes.append(current)
        current = max(current + 1, int(round(current * step)))
    return sizes


def coll_sweep_spec(
    collective: str = "allreduce",
    sizes=(65536,),
    nprocs=(8,),
    algos=("auto",),
    platform: str = "griffon",
    warmup: int = 1,
    iters: int = 3,
    name: str | None = None,
) -> SweepSpec:
    """Build the sweep spec for a size x ranks x algorithm campaign.

    One ``coll``-builtin workload per (size, nprocs) pair, one
    ``coll.<collective>`` axis carrying the algorithms — so every
    (size, nprocs, algorithm) cell is a separately memoized point.
    The spec refuses a collective or an algorithm name that is not in
    the :data:`repro.smpi.coll.ALGORITHMS` registry when it is built.
    """
    workloads = [
        {
            "builtin": "coll",
            "n": int(n),
            "params": {
                "collective": collective,
                "size": int(size),
                "warmup": int(warmup),
                "iters": int(iters),
            },
        }
        for n in nprocs
        for size in sizes
    ]
    return SweepSpec.from_dict({
        "name": name or f"coll-{collective}",
        "platforms": [{"spec": platform}],
        "workloads": workloads,
        "axes": {f"coll.{collective}": list(algos)},
    })


def coll_rows(result: SweepResult) -> list[dict]:
    """Per-(size, nprocs, algorithm) latency/bandwidth rows.

    ``latency`` is the ``coll`` workload's per-iteration simulated
    seconds (rank 0's return value); ``bandwidth`` the per-rank payload
    bytes over that latency.  Rows keep cache status and errors so the
    CLI can surface both.
    """
    axis_keys = [k for k in result.spec.axes if k.startswith("coll.")]
    rows = []
    for point_result in result.points:
        point = point_result.point
        params = dict(point.workload.params)
        assignment = dict(point.assignment)
        algorithm = assignment.get(axis_keys[0]) if axis_keys else None
        size = int(params.get("size", 0))
        latency = point_result.rank0
        rows.append({
            "platform": point.platform.label(),
            "collective": params.get("collective", "?"),
            "size": size,
            "n": point.workload.n,
            "algorithm": algorithm,
            "latency": latency,
            "bandwidth": (size / latency) if latency and size else None,
            "cached": point_result.cached,
            "error": point_result.error,
        })
    return rows


def best_algorithms(rows: list[dict]) -> list[dict]:
    """The lowest-latency algorithm per (platform, n, size) cell.

    The decision-table shape the future ``repro tune`` consumes: one row
    per cell with the winning algorithm and its margin over the
    runner-up (``margin = runner_up_latency / best_latency``).
    """
    cells: dict = {}
    for row in rows:
        if row["error"] or row["latency"] is None:
            continue
        key = (row["platform"], row["n"], row["size"])
        cells.setdefault(key, []).append(row)
    table = []
    for (platform, n, size) in sorted(cells):
        # break exact-latency ties by name so degenerate pairs (e.g.
        # two_level collapsing to recursive_doubling on a flat cluster)
        # don't read as crossovers
        contenders = sorted(cells[(platform, n, size)],
                            key=lambda r: (r["latency"], r["algorithm"]))
        best = contenders[0]
        margin = (contenders[1]["latency"] / best["latency"]
                  if len(contenders) > 1 and best["latency"] > 0 else None)
        table.append({
            "platform": platform, "n": n, "size": size,
            "best": best["algorithm"], "latency": best["latency"],
            "margin": margin,
        })
    return table


def crossovers(rows: list[dict]) -> list[dict]:
    """Size thresholds where the winning algorithm changes.

    For each (platform, n) series, walks the size ladder in order and
    reports every point where the best algorithm differs from the
    previous size — the crossover points an auto-tuner turns into
    selection rules.
    """
    best = best_algorithms(rows)
    series: dict = {}
    for row in best:
        series.setdefault((row["platform"], row["n"]), []).append(row)
    found = []
    for (platform, n), cells in sorted(series.items()):
        cells.sort(key=lambda r: r["size"])
        for prev, cell in zip(cells, cells[1:]):
            if cell["best"] != prev["best"]:
                found.append({
                    "platform": platform, "n": n,
                    "below_size": prev["size"], "below_best": prev["best"],
                    "above_size": cell["size"], "above_best": cell["best"],
                })
    return found
