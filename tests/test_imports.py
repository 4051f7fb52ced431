"""Import hygiene: a simulation run imports neither scipy nor networkx,
and the simulation kernel ``repro.surf`` imports no numpy.

Each check runs in a fresh interpreter, since this test process has
long since imported both.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: the subpackages ``repro`` exposes as attributes
SUBPACKAGES = ("calibration", "metrics", "nas", "offline", "packetsim",
               "platforms", "refcluster", "simix", "smpi", "surf", "sweep")

HEAVY = ("scipy", "networkx")


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def loaded(names=HEAVY) -> str:
    """Code that prints which of ``names`` are in ``sys.modules``."""
    return f"import json; print(json.dumps({{n: n in sys.modules for n in {names!r}}}))"


def test_simulation_imports_load_neither_scipy_nor_networkx():
    out = run_python(
        "import repro, repro.smpi, repro.platforms, repro.offline, repro.trace, repro.nas\n"
        + loaded())
    assert out == {"scipy": False, "networkx": False}


def test_surf_loads_no_numpy():
    """The simulation kernel keeps its state in plain records: importing
    ``repro.surf`` alone, without the package ``__init__`` (whose eager
    ``repro.smpi`` import needs numpy for payloads), loads no numpy."""
    out = run_python(
        "import types\n"
        "package = types.ModuleType('repro')\n"
        f"package.__path__ = [{str(Path(repro.__file__).parent)!r}]\n"
        "sys.modules['repro'] = package\n"
        "import repro.surf\n"
        "assert repro.surf.IncrementalMaxMin is not None\n"
        + loaded(("numpy",)))
    assert out == {"numpy": False}


def test_cluster_run_loads_neither():
    out = run_python(
        "from repro.platforms.griffon import griffon\n"
        "from repro.smpi import smpirun\n"
        "def app(mpi):\n"
        "    yield from mpi.COMM_WORLD.co.Barrier()\n"
        "smpirun(app, 4, griffon())\n"
        + loaded())
    assert out == {"scipy": False, "networkx": False}


def test_calibration_and_sweep_import_on_first_use():
    out = run_python(
        "import repro\n"
        "from repro import calibration, sweep\n"
        "from repro.surf.network_model import RouteParams\n"
        "assert calibration is repro.calibration and sweep is repro.sweep\n"
        "model = repro.calibration.fit_affine_best(\n"
        "    [1, 1e3, 1e6], [1e-4, 1.1e-4, 8e-3], RouteParams(1e-4, 125e6))\n"
        "assert model.beta > 0\n"
        + loaded())
    assert out["scipy"] is True


def test_graph_topology_loads_networkx_on_first_edge():
    out = run_python(
        "from repro.surf import Host, Link, Platform\n"
        "p = Platform('g')\n"
        "for name in 'abc':\n"
        "    p.add_host(Host(name, 1e9))\n"
        "before = 'networkx' in sys.modules\n"
        "p.connect('a', 'b', Link('ab', 1e8))\n"
        "p.connect('b', 'c', Link('bc', 1e8))\n"
        "assert [l.name for l in p.route('a', 'c').links] == ['ab', 'bc']\n"
        "import json; print(json.dumps({'before': before,"
        " 'after': 'networkx' in sys.modules}))")
    assert out == {"before": False, "after": True}


def test_public_names_and_dir():
    out = run_python(
        "import repro, json\n"
        "print(json.dumps({'all': repro.__all__, 'dir': dir(repro)}))")
    names = set(out["dir"])
    assert set(out["all"]) <= names
    assert set(SUBPACKAGES) <= names
    assert not names & {"__getattr__", "__dir__", "_SUBPACKAGES", "_importlib"}
    for name in out["all"]:
        assert getattr(repro, name) is not None
    for name in SUBPACKAGES:
        assert getattr(repro, name).__name__ == f"repro.{name}"


def test_unknown_attribute_raises_attribute_error():
    try:
        repro.no_such_subpackage
    except AttributeError as exc:
        assert "no_such_subpackage" in str(exc)
    else:
        raise AssertionError("expected AttributeError")
