"""Per-tenant forecast inputs consumed by the AC-RR problem.

The Forecasting block (Section 2.2.2) provides, for each tenant, an estimate
``lambda_hat`` of the peak load expected during the next decision epoch and a
normalised uncertainty ``sigma_hat`` in (0, 1].  The AC-RR problem only needs
those two numbers (per tenant), so this small value object decouples the
optimisation layer from the forecasting implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import ensure_in_range, ensure_non_negative

#: Smallest admissible forecast uncertainty; the paper requires sigma_hat > 0.
MIN_SIGMA_HAT = 1e-3
#: Fraction of the SLA that lambda_hat is clamped to, to keep the risk-cost
#: denominator (Lambda - lambda_hat) strictly positive.
MAX_LAMBDA_FRACTION = 0.999


@dataclass(frozen=True)
class ForecastInput:
    """Forecasted peak load and its uncertainty for one tenant."""

    lambda_hat_mbps: float
    sigma_hat: float

    def __post_init__(self) -> None:
        ensure_non_negative(self.lambda_hat_mbps, "lambda_hat_mbps")
        ensure_in_range(self.sigma_hat, 0.0, 1.0, "sigma_hat")

    @classmethod
    def pessimistic(cls, sla_mbps: float) -> "ForecastInput":
        """Forecast used for tenants with no monitoring history yet.

        Assuming the tenant will use its full SLA with maximal uncertainty
        means the orchestrator initially reserves (almost) the full SLA: new
        slices are effectively not overbooked until their load pattern has
        been learnt, which reproduces the behaviour described in Section 5.
        """
        return cls(
            lambda_hat_mbps=sla_mbps * MAX_LAMBDA_FRACTION,
            sigma_hat=1.0,
        )

    def clamped(self, sla_mbps: float) -> "ForecastInput":
        """Clamp the forecast into the range the risk model requires.

        The paper imposes ``lambda_hat <= z <= Lambda``; for the risk cost
        ``(Lambda - z) / (Lambda - lambda_hat)`` to stay well defined the
        forecast must stay strictly below the SLA, and the uncertainty must be
        strictly positive.
        """
        lam = min(self.lambda_hat_mbps, sla_mbps * MAX_LAMBDA_FRACTION)
        lam = max(lam, 0.0)
        sigma = min(max(self.sigma_hat, MIN_SIGMA_HAT), 1.0)
        if lam == self.lambda_hat_mbps and sigma == self.sigma_hat:
            return self  # already in range (the value is immutable)
        return ForecastInput(lambda_hat_mbps=lam, sigma_hat=sigma)
