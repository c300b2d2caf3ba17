"""The risk-cost function of Section 3.1.

The probability of SLA violation ``Pr[z < lambda]`` is intractable in
general, so the paper substitutes the proxy

    rho(z, sigma_hat, L) = P * xi,
    P  = (Lambda - z) / (Lambda - lambda_hat)      in [0, 1],
    xi = sigma_hat * L                             in (0, L],

where ``P`` measures how aggressively the reservation under-provisions the
SLA relative to the forecast and ``xi`` scales the risk by the forecast
uncertainty and the slice duration.  The expected instantaneous cost of a
slice is then ``K * rho - R``.  This module holds ``P``; ``xi`` (with ``L``
in days) and the cost are the AC-RR problem's own
(``ACRRProblem._bind_forecasts`` and ``evaluate_objective``).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ensure_positive


def deficit_probability_proxy(
    reservation_mbps: float, lambda_hat_mbps: float, sla_mbps: float
) -> float:
    """The P term: risk of resource deficit due to under-provisioning.

    Equals 1 when the reservation is only the forecast (maximum overbooking)
    and 0 when the full SLA is reserved (no overbooking).  Values outside the
    admissible reservation range are clipped to [0, 1].
    """
    ensure_positive(sla_mbps, "sla_mbps")
    if lambda_hat_mbps >= sla_mbps:
        # No overbooking headroom: any reservation below the SLA is maximal risk.
        return 0.0 if reservation_mbps >= sla_mbps else 1.0
    raw = (sla_mbps - reservation_mbps) / (sla_mbps - lambda_hat_mbps)
    return min(1.0, max(0.0, raw))


def deficit_probability_proxies(
    reservation_mbps: np.ndarray, lambda_hat_mbps: np.ndarray, sla_mbps: np.ndarray
) -> np.ndarray:
    """:func:`deficit_probability_proxy` of every element, bit for bit: the
    same quotient, clipped the way ``min(1.0, max(0.0, raw))`` clips it (a
    NaN quotient and ``-0.0`` become ``0.0``)."""
    if not (sla_mbps > 0).all():
        raise ValueError(f"sla_mbps must be > 0, got {sla_mbps[~(sla_mbps > 0)][0]!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (sla_mbps - reservation_mbps) / (sla_mbps - lambda_hat_mbps)
    clipped = np.where(raw > 0.0, raw, 0.0)
    clipped = np.where(clipped < 1.0, clipped, 1.0)
    # No overbooking headroom: any reservation below the SLA is maximal risk.
    no_headroom = np.where(reservation_mbps >= sla_mbps, 0.0, 1.0)
    return np.where(lambda_hat_mbps >= sla_mbps, no_headroom, clipped)
