"""Affine (α + s/β) model instantiation, the two ways the paper compares.

* :func:`fit_affine_default` — "the standard method for instantiating the
  affine model": α is the measured time of a 1-byte message, β is 92 % of
  the nominal peak bandwidth (the typical TCP payload efficiency).  This
  is what most prior MPI simulators do (paper section 7.1.1).
* :func:`fit_affine_best` — the strongest possible affine model: (α, β)
  minimising the *average logarithmic error* against the measurements,
  found with Nelder-Mead in log-parameter space.  The paper includes it
  to show the affine family is inherently inaccurate, not merely badly
  instantiated.
"""

from __future__ import annotations

import numpy as np

from ..errors import CalibrationError
from ..surf.network_model import AffineNetworkModel, RouteParams

__all__ = ["fit_affine_default", "fit_affine_best"]


def fit_affine_default(
    sizes, times, route: RouteParams, tcp_efficiency: float = 0.92
) -> AffineNetworkModel:
    """1-byte latency + 92 % of nominal peak bandwidth."""
    s = np.asarray(sizes, dtype=float)
    t = np.asarray(times, dtype=float)
    if len(s) == 0:
        raise CalibrationError("no measurements")
    alpha = float(t[np.argmin(s)])
    beta = tcp_efficiency * route.bandwidth
    return AffineNetworkModel(alpha, beta, route, label="default-affine")


def fit_affine_best(sizes, times, route: RouteParams) -> AffineNetworkModel:
    """(α, β) minimising the mean log error over all measurements."""
    s = np.asarray(sizes, dtype=float)
    t = np.asarray(times, dtype=float)
    if len(s) < 3:
        raise CalibrationError("best-fit affine needs at least 3 measurements")
    log_t = np.log(t)

    def objective(params: np.ndarray) -> float:
        log_alpha, log_beta = params
        predicted = np.exp(log_alpha) + s / np.exp(log_beta)
        return float(np.mean(np.abs(np.log(predicted) - log_t)))

    # scipy is imported here, not at module level: it takes longer to
    # import than a simulation run needs to start
    from scipy import optimize

    # start from the naive instantiation
    x0 = np.array([np.log(max(t.min(), 1e-9)), np.log(route.bandwidth)])
    result = optimize.minimize(objective, x0, method="Nelder-Mead",
                               options={"xatol": 1e-4, "fatol": 1e-6,
                                        "maxiter": 2000})
    log_alpha, log_beta = result.x
    return AffineNetworkModel(
        float(np.exp(log_alpha)), float(np.exp(log_beta)), route,
        label="best-fit-affine",
    )
