"""Sectored antenna model, beam-grid bookkeeping, and optimal pair selection.

Both nodes sweep non-overlapping sector beams spanning the full 360 degree
azimuth.  Under the sectored approximation a beam of half-power beamwidth
``theta`` has main-lobe gain 360/theta and zero side-lobe gain, so a node
with M beams has per-beam gain exactly M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, LinkBudget


@dataclass(frozen=True)
class BeamGrid:
    """Beam counts per node; beamwidths and sectored gains follow from them.

    ``requested_hpbw_*`` records the beamwidth the caller asked for when
    the grid was built from hardware HPBW values; the effective values are
    computed from the rounded beam counts, so the grid invariants
    (b = m_t * m_r, gain = 360/hpbw = beam count) hold exactly.
    """

    m_t: int
    m_r: int
    requested_hpbw_t: float | None = None
    requested_hpbw_r: float | None = None

    def __post_init__(self) -> None:
        if self.m_t < 1 or self.m_r < 1:
            raise ValueError(f"beam counts must be >= 1, got {self.m_t!r}, {self.m_r!r}")

    @property
    def b(self) -> int:
        """Number of transmit/receive beam pairs."""
        return self.m_t * self.m_r

    @property
    def hpbw_t(self) -> float:
        return 360.0 / self.m_t

    @property
    def hpbw_r(self) -> float:
        return 360.0 / self.m_r

    @property
    def gain_t(self) -> float:
        return float(self.m_t)

    @property
    def gain_r(self) -> float:
        return float(self.m_r)

    @classmethod
    def from_counts(cls, m_t: int, m_r: int) -> "BeamGrid":
        return cls(m_t=int(m_t), m_r=int(m_r))


@dataclass(frozen=True)
class BeamSelection:
    """Result of the joint beam sweep: argmax pair and its received power."""

    pair_index: int
    opt_power: float


def _count_from_hpbw(hpbw: float) -> int:
    if not 0.0 < hpbw <= 360.0:
        raise ValueError(f"HPBW must lie in (0, 360] degrees, got {hpbw!r}")
    return max(1, round(360.0 / hpbw))


def beam_grid(hpbw_t: float, hpbw_r: float) -> BeamGrid:
    """Build a grid from hardware beamwidths.

    Beam counts are formed as round(360/hpbw) per side; when an HPBW does
    not divide 360 the effective beamwidth/gain are recomputed from the
    rounded count and the requested values are kept on the grid for
    inspection (e.g. a 33 degree antenna maps to 11 beams of 32.73
    degrees).
    """
    return BeamGrid(
        m_t=_count_from_hpbw(hpbw_t),
        m_r=_count_from_hpbw(hpbw_r),
        requested_hpbw_t=float(hpbw_t),
        requested_hpbw_r=float(hpbw_r),
    )


def pair_power_coefficient(link: LinkBudget, grid: BeamGrid) -> float:
    """Linear watts per unit of normalized fading power for an aligned pair."""
    return link.path_gain / link.lambda0 * grid.gain_t * grid.gain_r


def pair_received_power(
    realization: ChannelRealization,
    pair_index: int,
    link: LinkBudget,
    grid: BeamGrid,
) -> float:
    """Received power of beam pair ``pair_index`` for one realization.

    Equals c d^(-alpha) / lambda0 * G_t * G_r * (sum of the pair's
    normalized path powers); 0 when the pair holds no paths.
    """
    if realization.num_pairs != grid.b:
        raise ValueError(
            f"realization has {realization.num_pairs} pairs, grid expects {grid.b}"
        )
    if not 0 <= pair_index < grid.b:
        raise IndexError(f"pair_index {pair_index!r} out of range [0, {grid.b})")
    return pair_power_coefficient(link, grid) * float(
        realization.per_pair_powers[pair_index].sum()
    )


def select_optimal_pair(
    realization: ChannelRealization, link: LinkBudget, grid: BeamGrid
) -> BeamSelection:
    """Exhaustive sweep over all pairs; ties break toward the lowest index."""
    if realization.num_pairs != grid.b:
        raise ValueError(
            f"realization has {realization.num_pairs} pairs, grid expects {grid.b}"
        )
    powers = pair_power_coefficient(link, grid) * realization.pair_sums()
    idx = int(np.argmax(powers))
    return BeamSelection(pair_index=idx, opt_power=float(powers[idx]))
