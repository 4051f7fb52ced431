"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import faulthandler
import os
import sys
from contextlib import nullcontext

import pytest
from hypothesis import settings

from repro.smpi import SmpiConfig, smpirun
from repro.surf import cluster
from tests.oracles import matching, thread_contexts

#: tier-1 runs draw the same hypothesis examples every time, so an
#: equivalence failure reproduces run to run; the CI fuzz steps select
#: the randomized profile through HYPOTHESIS_PROFILE to keep exploring
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))

#: ``REPRO_MATCH=scan`` runs every test on the linear-scan matching
#: oracle instead of the indexed match queues
MATCH_ENV_VAR = "REPRO_MATCH"

#: ``REPRO_CTX=thread`` runs every actor of every test on the thread
#: oracle, generator functions included; a test marked
#: ``coroutine_contexts`` pins what the product picks and keeps it
CTX_ENV_VAR = "REPRO_CTX"

#: a test still running after this many seconds is taken to hang: every
#: thread's stack is printed and the run exits instead of stalling CI
HANG_TIMEOUT_S = 300

#: a copy of the terminal's stderr: while a test runs, fd 2 points into
#: pytest's capture file, which a process exiting from the watchdog
#: never shows
_terminal_stderr: int | None = None


def pytest_configure(config):
    global _terminal_stderr
    mode = os.environ.get(CTX_ENV_VAR, "")
    if mode not in ("", "thread"):
        raise pytest.UsageError(
            f"unknown {CTX_ENV_VAR}={mode!r}; expected 'thread' or unset")
    config.addinivalue_line(
        "markers", "coroutine_contexts: runs on the contexts the product "
        f"picks even under {CTX_ENV_VAR}=thread")
    _terminal_stderr = os.dup(sys.stderr.fileno())  # capture is off here


def pytest_unconfigure(config):
    if _terminal_stderr is not None:
        os.close(_terminal_stderr)


@pytest.fixture(autouse=True)
def _dump_stacks_on_hang():
    """Arm a per-test watchdog that turns a silent hang into a traceback."""
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True,
                                      file=_terminal_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _match_oracle():
    """Swap the scan matcher in for the whole test under REPRO_MATCH=scan."""
    with matching(os.environ.get(MATCH_ENV_VAR) or "index"):
        yield


@pytest.fixture(autouse=True)
def _context_oracle(request):
    """Run every actor on a thread under REPRO_CTX=thread."""
    oracle = (os.environ.get(CTX_ENV_VAR) == "thread"
              and request.node.get_closest_marker("coroutine_contexts") is None)
    with thread_contexts() if oracle else nullcontext():
        yield


@pytest.fixture
def small_cluster():
    """A fresh 8-node GigE cluster with a 10G backbone."""
    return cluster("test", 8)


@pytest.fixture
def crossbar_cluster():
    """A 8-node cluster without a shared backbone (ideal crossbar)."""
    return cluster("xbar", 8, backbone_bandwidth=None)


@pytest.fixture
def run_app():
    """Run an MPI app on a fresh cluster; returns the SmpiResult."""

    def runner(app, n_ranks=4, app_args=(), config=None, n_hosts=None, **kwargs):
        platform = cluster("run", n_hosts or n_ranks)
        return smpirun(
            app, n_ranks, platform, app_args=app_args,
            config=config or SmpiConfig(), **kwargs,
        )

    return runner
