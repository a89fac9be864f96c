"""Beam grid construction and optimal pair selection."""

import dataclasses

import numpy as np
import pytest

from beamsim.beam import (
    BeamGrid,
    beam_grid,
    pair_received_power,
    select_optimal_pair,
)
from beamsim.channel import ChannelRealization, FadingModel, LinkBudget, realize_channel
from beamsim.rng import substream


def manual_realization(path_lists):
    powers = tuple(np.asarray(p, dtype=float) for p in path_lists)
    counts = np.array([len(p) for p in powers])
    return ChannelRealization(per_pair_powers=powers, counts=counts)


class TestBeamGrid:
    def test_square_36deg(self):
        g = beam_grid(36.0, 36.0)
        assert (g.m_t, g.m_r, g.b) == (10, 10, 100)
        assert g.gain_t == 10.0 and g.gain_r == 10.0

    def test_omni_degenerate(self):
        g = beam_grid(360.0, 360.0)
        assert g.b == 1
        assert g.gain_t == 1.0 and g.gain_r == 1.0

    def test_625_pairs(self):
        g = beam_grid(14.4, 14.4)
        assert (g.m_t, g.b) == (25, 625)

    def test_rounding_reported(self):
        # a 33-degree antenna rounds to 11 beams of 32.727 degrees
        g = beam_grid(33.0, 33.0)
        assert g.m_t == 11 and g.b == 121
        assert g.hpbw_t == pytest.approx(360.0 / 11.0)
        assert g.requested_hpbw_t == 33.0

    def test_counts_constructor(self):
        g = BeamGrid.from_counts(25, 40)
        assert g.b == 1000
        assert g.gain_t * g.gain_r == 1000.0

    def test_only_counts_are_stored(self):
        # pair count, beamwidths and gains follow from the counts, so no
        # constructor can make them disagree
        names = [f.name for f in dataclasses.fields(BeamGrid)]
        assert names == ["m_t", "m_r", "requested_hpbw_t", "requested_hpbw_r"]
        g = BeamGrid(m_t=4, m_r=9)
        assert (g.b, g.hpbw_t, g.hpbw_r, g.gain_t, g.gain_r) == (36, 90.0, 40.0, 4.0, 9.0)
        for bad in ((0, 3), (3, -1)):
            with pytest.raises(ValueError, match="beam counts must be >= 1"):
                BeamGrid(*bad)

    @pytest.mark.parametrize("bad", [0.0, -10.0, 361.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            beam_grid(bad, 36.0)


LINK = LinkBudget(intercept_c=0.01, distance_d=1.0, alpha=2.0, noise_power=1.0, lambda0=1.9)
GRID_121 = BeamGrid.from_counts(11, 11)


class TestPairReceivedPower:
    def test_empty_pair(self):
        real = manual_realization([[]] * 121)
        assert pair_received_power(real, 5, LINK, GRID_121) == 0.0

    def test_single_unit_path(self):
        paths = [[] for _ in range(121)]
        paths[17] = [1.0]
        real = manual_realization(paths)
        # c d^-alpha / lambda0 * Gt * Gr = 0.01 * 121 / 1.9
        assert pair_received_power(real, 17, LINK, GRID_121) == pytest.approx(
            0.636842, abs=1e-6
        )

    def test_linearity(self):
        paths = [[] for _ in range(121)]
        paths[3] = [0.7, 1.8]
        two = pair_received_power(manual_realization(paths), 3, LINK, GRID_121)
        paths_a = [[] for _ in range(121)]
        paths_a[3] = [0.7]
        paths_b = [[] for _ in range(121)]
        paths_b[3] = [1.8]
        a = pair_received_power(manual_realization(paths_a), 3, LINK, GRID_121)
        b = pair_received_power(manual_realization(paths_b), 3, LINK, GRID_121)
        assert two == pytest.approx(a + b, rel=1e-12)

    def test_index_error(self):
        real = manual_realization([[]] * 121)
        with pytest.raises(IndexError):
            pair_received_power(real, 121, LINK, GRID_121)


class TestSelectOptimalPair:
    def test_all_empty_tie(self):
        sel = select_optimal_pair(manual_realization([[]] * 121), LINK, GRID_121)
        assert sel.pair_index == 0 and sel.opt_power == 0.0

    def test_single_occupied(self):
        paths = [[] for _ in range(121)]
        paths[42] = [0.3]
        sel = select_optimal_pair(manual_realization(paths), LINK, GRID_121)
        assert sel.pair_index == 42

    def test_matches_exhaustive_scan(self):
        rng = substream(5150, 0)
        for _ in range(50):
            real = realize_channel(3.0, 121, FadingModel.nakagami(2.0), rng)
            sel = select_optimal_pair(real, LINK, GRID_121)
            brute = [
                pair_received_power(real, i, LINK, GRID_121) for i in range(121)
            ]
            assert sel.opt_power == pytest.approx(max(brute), rel=1e-12)
            assert sel.pair_index == int(np.argmax(brute))
            assert all(sel.opt_power >= p for p in brute)

    def test_scaling_invariance(self):
        rng = substream(51, 0)
        real = realize_channel(3.0, 121, FadingModel.rayleigh(), rng)
        sel = select_optimal_pair(real, LINK, GRID_121)
        scaled_link = LinkBudget(
            intercept_c=LINK.intercept_c * 7.5,
            distance_d=LINK.distance_d,
            alpha=LINK.alpha,
            noise_power=LINK.noise_power,
            lambda0=LINK.lambda0,
        )
        sel2 = select_optimal_pair(real, scaled_link, GRID_121)
        assert sel2.pair_index == sel.pair_index
        assert sel2.opt_power == pytest.approx(7.5 * sel.opt_power, rel=1e-12)

    def test_b1_degenerates(self):
        grid = BeamGrid.from_counts(1, 1)
        link = LinkBudget(intercept_c=0.01, distance_d=1.0, alpha=2.0, noise_power=1.0, lambda0=2.0)
        real = manual_realization([[0.4, 1.1]])
        sel = select_optimal_pair(real, link, grid)
        assert sel.pair_index == 0
        assert sel.opt_power == pytest.approx(pair_received_power(real, 0, link, grid))
