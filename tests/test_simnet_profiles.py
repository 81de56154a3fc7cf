"""Tests for the measurement-network profiles."""

import pytest

from repro.simnet import (
    ACADEMIC,
    CLIENT_IP,
    HOME,
    PROFILE_ORDER,
    PROFILES,
    RESEARCH,
    RESIDENCE,
    SERVER_IP,
    BernoulliLoss,
    GilbertElliottLoss,
    NoLoss,
    build_client_server,
    get_profile,
)


class TestProfileRegistry:
    def test_four_networks_registered(self):
        assert set(PROFILES) == {"Research", "Residence", "Academic", "Home"}
        assert PROFILE_ORDER == ("Research", "Residence", "Academic", "Home")

    def test_lookup_case_insensitive(self):
        assert get_profile("research") is RESEARCH
        assert get_profile("HOME") is HOME

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            get_profile("Office")

    def test_paper_capacities(self):
        """Section 4.2's published numbers."""
        assert RESEARCH.down_bps == 100e6       # 100 Mbps wired
        assert RESIDENCE.down_bps == 7.7e6      # ADSL download
        assert RESIDENCE.up_bps == 1.2e6        # ADSL upload
        assert HOME.down_bps == 20e6            # cable download
        assert HOME.up_bps == 3e6               # cable upload

    def test_geography(self):
        assert RESEARCH.country == "France"
        assert RESIDENCE.country == "France"
        assert ACADEMIC.country == "USA"
        assert HOME.country == "USA"

    def test_lossy_networks_use_bursty_loss(self):
        assert RESIDENCE.bursty_loss
        assert ACADEMIC.bursty_loss
        assert not RESEARCH.bursty_loss


class TestProfileDerivation:
    def test_with_loss(self):
        derived = RESIDENCE.with_loss(0.02)
        assert derived.loss_down == 0.02
        assert derived.down_bps == RESIDENCE.down_bps
        assert RESIDENCE.loss_down != 0.02  # original untouched


class TestPathConstruction:
    def test_bursty_profile_builds_gilbert_elliott(self):
        import random

        path = RESIDENCE.build_path(_scheduler(), random.Random(1))
        assert isinstance(path.forward.loss_model, GilbertElliottLoss)
        # calibration: the long-run rate matches the profile's loss_down
        assert path.forward.loss_model.steady_state_loss == pytest.approx(
            RESIDENCE.loss_down, rel=0.05)

    def test_smooth_profile_builds_bernoulli(self):
        import random

        path = RESEARCH.build_path(_scheduler(), random.Random(1))
        assert isinstance(path.forward.loss_model, BernoulliLoss)

    def test_lossless_direction_builds_noloss(self):
        import random

        path = RESEARCH.build_path(_scheduler(), random.Random(1))
        assert isinstance(path.reverse.loss_model, NoLoss)

    def test_asymmetry_applied(self):
        import random

        path = RESIDENCE.build_path(_scheduler(), random.Random(1))
        assert path.forward.rate_bps == 7.7e6
        assert path.reverse.rate_bps == 1.2e6
        assert path.forward.prop_delay + path.reverse.prop_delay == \
            pytest.approx(RESIDENCE.rtt)


class TestBuildClientServer:
    def test_topology_wiring(self):
        net, client, server, path = build_client_server(RESEARCH, seed=1)
        assert client.ip == CLIENT_IP
        assert server.ip == SERVER_IP
        # download direction = forward link
        assert path.forward.rate_bps == RESEARCH.down_bps

    def test_same_seed_same_loss_draws(self):
        import random

        def draws(seed):
            net, _c, _s, path = build_client_server(RESIDENCE, seed=seed)
            model = path.forward.loss_model
            return [model.should_drop() for _ in range(200)]

        assert draws(9) == draws(9)
        assert draws(9) != draws(10)


def _scheduler():
    from repro.simnet import EventScheduler

    return EventScheduler()
