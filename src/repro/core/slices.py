"""Network slice templates, requests and SLAs.

Table 1 of the paper defines three end-to-end slice templates following the
3GPP NSSAI slice types:

=========  ======  ========  ==========  ===============  ==================
Type       R       Delta     Lambda      sigma            s = {a, b} (CPUs)
=========  ======  ========  ==========  ===============  ==================
(x)eMBB    1       30 ms     50 Mb/s     variable         {0, 0}
mMTC       1 + b   30 ms     10 Mb/s     0                {0, 2}
uRLLC      2 + b   5 ms      25 Mb/s     variable         {0, 0.2}
=========  ======  ========  ==========  ===============  ==================

``R`` is the admission reward, ``Delta`` the end-to-end latency tolerance,
``Lambda`` the SLA bitrate at each radio site, and ``s = {a, b}`` the linear
service model that maps carried bitrate into CPU cores (``cpus = a + b *
mbps``).  A slice request :class:`SliceRequest` instantiates a template with
a duration, a penalty factor ``m`` (the paper's K = m * R / Lambda) and an
arrival epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.utils.validation import (
    ensure_finite,
    ensure_non_negative,
    ensure_positive,
    ensure_probability,
    ensure_text,
)


@dataclass(frozen=True)
class SliceTemplate:
    """An end-to-end network-slice template (one row of Table 1)."""

    name: str
    reward: float
    latency_tolerance_ms: float
    sla_mbps: float
    compute_baseline_cpus: float
    compute_cpus_per_mbps: float
    default_relative_std: float = 0.25

    def __post_init__(self) -> None:
        # Each field keeps the float its rule returns: a template decoded
        # from a wire payload equals the catalogue one.
        ensure_text(self.name, "name")
        for name, rule in _TEMPLATE_FIELD_RULES:
            value = rule(ensure_finite(getattr(self, name), name), name)
            object.__setattr__(self, name, value)

    def compute_cpus(self, carried_mbps: float) -> float:
        """CPU cores consumed when carrying ``carried_mbps`` (the s_tau map)."""
        ensure_non_negative(carried_mbps, "carried_mbps")
        return self.compute_baseline_cpus + self.compute_cpus_per_mbps * carried_mbps


#: The rule of each number of a :class:`SliceTemplate` (all also finite).
_TEMPLATE_FIELD_RULES = (
    ("reward", ensure_positive),
    ("latency_tolerance_ms", ensure_positive),
    ("sla_mbps", ensure_positive),
    ("compute_baseline_cpus", ensure_non_negative),
    ("compute_cpus_per_mbps", ensure_non_negative),
    ("default_relative_std", ensure_probability),
)


def _template_reward(base: float, compute_cpus_per_mbps: float) -> float:
    """Table 1 expresses mMTC/uRLLC rewards as (1 + b) and (2 + b)."""
    return base + compute_cpus_per_mbps


EMBB_TEMPLATE = SliceTemplate(
    name="eMBB",
    reward=1.0,
    latency_tolerance_ms=30.0,
    sla_mbps=50.0,
    compute_baseline_cpus=0.0,
    compute_cpus_per_mbps=0.0,
)

MMTC_TEMPLATE = SliceTemplate(
    name="mMTC",
    reward=_template_reward(1.0, 2.0),
    latency_tolerance_ms=30.0,
    sla_mbps=10.0,
    compute_baseline_cpus=0.0,
    compute_cpus_per_mbps=2.0,
    default_relative_std=0.0,
)

URLLC_TEMPLATE = SliceTemplate(
    name="uRLLC",
    reward=_template_reward(2.0, 0.2),
    latency_tolerance_ms=5.0,
    sla_mbps=25.0,
    compute_baseline_cpus=0.0,
    compute_cpus_per_mbps=0.2,
)

TEMPLATES: dict[str, SliceTemplate] = {
    "eMBB": EMBB_TEMPLATE,
    "mMTC": MMTC_TEMPLATE,
    "uRLLC": URLLC_TEMPLATE,
}


@dataclass(frozen=True)
class SliceRequest:
    """A tenant's slice request Phi_tau = {s, Delta, Lambda, L}.

    Attributes
    ----------
    name:
        Unique tenant / slice identifier.
    template:
        The slice template describing latency, SLA bitrate, compute model and
        reward.
    duration_epochs:
        Slice lifetime ``L_tau`` measured in decision epochs.
    penalty_factor:
        The paper's ``m``: the per-unit SLA-violation penalty is
        ``K = m * R / Lambda`` so that failing to serve 10 % of the SLA costs
        ``10 % * m`` of the reward.
    arrival_epoch:
        Decision epoch at which the request was issued (0 for requests known
        up-front, as in the Fig. 5 / Fig. 6 scenarios).
    committed:
        True once the slice has been admitted in a previous epoch; committed
        slices must remain admitted until they expire (constraint (13)).
    """

    name: str
    template: SliceTemplate
    duration_epochs: int = 24
    penalty_factor: float = 1.0
    arrival_epoch: int = 0
    committed: bool = False
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.duration_epochs <= 0:
            raise ValueError("duration_epochs must be positive")
        ensure_finite(self.penalty_factor, "penalty_factor")
        ensure_non_negative(self.penalty_factor, "penalty_factor")
        if self.arrival_epoch < 0:
            raise ValueError("arrival_epoch must be non-negative")

    # -- SLA shortcuts ---------------------------------------------------- #
    @property
    def sla_mbps(self) -> float:
        """The SLA bitrate Lambda_tau requested at every radio site."""
        return self.template.sla_mbps

    @property
    def latency_tolerance_ms(self) -> float:
        return self.template.latency_tolerance_ms

    @property
    def reward(self) -> float:
        """Reward R_tau earned per decision epoch while the slice is served."""
        return self.template.reward

    @property
    def penalty_rate_per_mbps(self) -> float:
        """K_tau = m * R / Lambda: cost per Mb/s of unserved SLA traffic."""
        return self.penalty_factor * self.reward / self.sla_mbps

    def compute_cpus(self, carried_mbps: float) -> float:
        """CPU cores the slice's network service needs at ``carried_mbps``."""
        return self.template.compute_cpus(carried_mbps)

    @property
    def compute_baseline_cpus(self) -> float:
        return self.template.compute_baseline_cpus

    @property
    def compute_cpus_per_mbps(self) -> float:
        return self.template.compute_cpus_per_mbps

    def expires_at(self) -> int:
        """First epoch at which the slice is no longer active."""
        return self.arrival_epoch + self.duration_epochs

    def is_active(self, epoch: int) -> bool:
        """True while the slice, if admitted, must be provisioned."""
        return self.arrival_epoch <= epoch < self.expires_at()

    def as_committed(self) -> "SliceRequest":
        """Return a copy marked as already admitted (constraint (13)).

        The metadata dict is copied too: callers annotate the committed copy
        (e.g. the orchestrator pins ``preferred_compute_unit``), and a
        ``dataclasses.replace`` alone would alias the original's dict --
        mutating state that crash-consistent epochs must be able to roll
        back.
        """
        return replace(self, committed=True, metadata=dict(self.metadata))


def make_requests(
    template: SliceTemplate,
    count: int,
    prefix: str | None = None,
    duration_epochs: int = 24,
    penalty_factor: float = 1.0,
    arrival_epoch: int = 0,
) -> list[SliceRequest]:
    """Create ``count`` identical slice requests (the homogeneous scenarios)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    prefix = prefix if prefix is not None else template.name
    return [
        SliceRequest(
            name=f"{prefix}-{i}",
            template=template,
            duration_epochs=duration_epochs,
            penalty_factor=penalty_factor,
            arrival_epoch=arrival_epoch,
        )
        for i in range(count)
    ]
