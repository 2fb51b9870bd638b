"""Tests for floorplan, area and frequency models."""

import pytest

from repro.fabric import AWS_F1_FLOORPLAN, AreaModel, Floorplan, FrequencyModel
from repro.fabric.design import (
    MOMS_PRIVATE,
    MOMS_SHARED,
    MOMS_TRADITIONAL,
    MOMS_TWO_LEVEL,
    DesignDescription,
)
from repro.fabric.frequency import MIN_FREQ_MHZ, TARGET_FREQ_MHZ


def design(**kwargs):
    defaults = dict(n_pes=16, n_banks=16, organization=MOMS_TWO_LEVEL)
    defaults.update(kwargs)
    return DesignDescription(**defaults)


class TestFloorplan:
    def test_aws_f1_channel_placement(self):
        plan = AWS_F1_FLOORPLAN
        assert [plan.die_of_channel(c) for c in range(4)] == [0, 1, 1, 2]

    def test_pe_assignment_respects_fractions(self):
        plan = AWS_F1_FLOORPLAN
        dies = plan.assign_pes(20)
        counts = [dies.count(d) for d in range(3)]
        assert sum(counts) == 20
        # 30/15/55 split of 20 -> 6/3/11.
        assert counts == [6, 3, 11]

    def test_assignment_always_complete(self):
        plan = AWS_F1_FLOORPLAN
        for n in range(1, 33):
            dies = plan.assign_pes(n)
            assert len(dies) == n
            assert all(0 <= d < 3 for d in dies)

    def test_hops_linear_stack(self):
        plan = AWS_F1_FLOORPLAN
        assert plan.hops(0, 2) == 2
        assert plan.hops(1, 1) == 0

    def test_bank_to_channel_die(self):
        plan = AWS_F1_FLOORPLAN
        # 16 banks over 4 channels: 4 banks per channel.
        assert plan.die_of_bank(0, 16, 4) == 0
        assert plan.die_of_bank(15, 16, 4) == 2

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            Floorplan(pe_fraction=(0.5, 0.5, 0.5))


class TestDesignDescription:
    def test_label_formats(self):
        d = design(n_pes=16, n_banks=16, organization=MOMS_TWO_LEVEL,
                   private_cache_kib=64)
        assert d.label == "16/16 64k two-level"

    def test_private_only_has_no_shared_level(self):
        d = design(organization=MOMS_PRIVATE, n_banks=0)
        assert d.has_private_level and not d.has_shared_level

    def test_invalid_organization_rejected(self):
        with pytest.raises(ValueError):
            design(organization="magic")

    def test_shared_needs_banks(self):
        with pytest.raises(ValueError):
            design(organization=MOMS_SHARED, n_banks=0)

    def test_negative_mshr_kick_bound_rejected(self):
        with pytest.raises(ValueError, match="mshr_max_kicks"):
            design(mshr_max_kicks=-1)
        assert design(mshr_max_kicks=0).mshr_max_kicks == 0

    def test_traditional_without_mshrs_rejected(self):
        with pytest.raises(ValueError, match="traditional_mshrs must be"):
            design(organization=MOMS_TRADITIONAL, n_pes=2, n_banks=2,
                   algorithm="bfs", traditional_mshrs=0)

    def test_traditional_below_one_subentry_row_rejected(self):
        with pytest.raises(ValueError, match="less than one row"):
            design(organization=MOMS_TRADITIONAL, n_pes=2, n_banks=2,
                   algorithm="bfs", traditional_subentries_per_mshr=0)
        with pytest.raises(ValueError, match="less than one row"):
            design(organization=MOMS_TRADITIONAL, traditional_mshrs=1,
                   traditional_subentries_per_mshr=3)
        # Exactly one row is a buildable (if tiny) design, and the
        # traditional knobs do not constrain the MOMS organizations.
        assert design(organization=MOMS_TRADITIONAL, traditional_mshrs=1,
                      traditional_subentries_per_mshr=4)
        assert design(traditional_mshrs=0)


class TestAreaModel:
    def test_more_pes_use_more_area(self):
        model = AreaModel()
        small = model.design_total(design(n_pes=4, n_banks=4))
        big = model.design_total(design(n_pes=20, n_banks=16))
        assert big.lut > small.lut
        assert big.uram > small.uram

    def test_cacheless_bank_uses_less_uram(self):
        model = AreaModel()
        with_cache = model.moms_bank(4096, 32768, 256)
        without = model.moms_bank(4096, 32768, 0)
        assert without.uram < with_cache.uram

    def test_pagerank_uses_dsps(self):
        model = AreaModel()
        pr = model.pe(design(algorithm="pagerank", node_bits=64))
        scc = model.pe(design(algorithm="scc"))
        assert pr.dsp > 0 and scc.dsp == 0

    def test_weighted_pe_has_state_memory(self):
        model = AreaModel()
        sssp = model.pe(design(algorithm="sssp", weighted=True))
        scc = model.pe(design(algorithm="scc", weighted=False))
        assert sssp.bram > scc.bram

    def test_utilization_fractions_sane(self):
        model = AreaModel()
        util = model.utilization(design(n_pes=16, n_banks=16))
        assert set(util) == {"LUT", "FF", "BRAM", "URAM", "DSP"}
        assert all(0.0 <= v <= 1.2 for v in util.values())
        # LUT-heavy interconnect + BRAM-heavy MOMS per Fig. 17.
        assert util["DSP"] < util["LUT"]

    def test_crossing_kbits_grow_with_channels(self):
        model = AreaModel()
        few = model.crossing_kbits(design(n_channels=1))
        many = model.crossing_kbits(design(n_channels=4))
        assert many > few


class TestFrequencyModel:
    def test_small_design_hits_target(self):
        model = FrequencyModel()
        d = design(n_pes=2, n_banks=2, n_channels=1)
        assert model.frequency_mhz(d) == pytest.approx(TARGET_FREQ_MHZ, abs=30)

    def test_large_design_degrades_but_meets_timing(self):
        model = FrequencyModel()
        d = design(n_pes=16, n_banks=16, n_channels=4)
        freq = model.frequency_mhz(d)
        assert MIN_FREQ_MHZ <= freq < TARGET_FREQ_MHZ

    def test_weighted_runs_slower(self):
        model = FrequencyModel()
        base = design(n_pes=16, n_banks=16, algorithm="scc")
        weighted = design(n_pes=16, n_banks=16, algorithm="sssp",
                          weighted=True)
        assert model.frequency_mhz(weighted) < model.frequency_mhz(base)

    def test_more_channels_more_crossings_lower_freq(self):
        """Paper: 4-channel systems clock below 2-channel ones."""
        model = FrequencyModel()
        two = design(n_pes=16, n_banks=16, n_channels=2)
        four = design(n_pes=16, n_banks=16, n_channels=4)
        assert model.frequency_mhz(four) <= model.frequency_mhz(two)

    def test_monotone_in_pe_count(self):
        model = FrequencyModel()
        freqs = [
            model.frequency_mhz(design(n_pes=n, n_banks=8))
            for n in (4, 12, 24)
        ]
        assert freqs[0] >= freqs[1] >= freqs[2]
