"""Tests for rail geometry, travel timing and dual-rail selection."""

import pytest

from repro.core.params import DhlParams
from repro.core.physics import launch_energy, motion_profile, trip_time
from repro.dhlsim.track import (
    Endpoint,
    Track,
    build_tracks,
    default_endpoints,
    pick_track,
)
from repro.dhlsim.scheduler import DhlSystem
from repro.errors import SchedulingError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestEndpoints:
    def test_default_two_endpoints(self):
        endpoints = default_endpoints(DhlParams())
        assert len(endpoints) == 2
        assert endpoints[0].is_library
        assert endpoints[0].position_m == 0.0
        assert endpoints[1].position_m == 500.0

    def test_multi_stop_layout(self):
        endpoints = default_endpoints(DhlParams(), n_racks=3)
        assert len(endpoints) == 4
        positions = [endpoint.position_m for endpoint in endpoints[1:]]
        assert positions == sorted(positions)
        assert positions[0] == pytest.approx(250.0)
        assert positions[-1] == pytest.approx(500.0)

    def test_rejects_zero_racks(self):
        with pytest.raises(SchedulingError):
            default_endpoints(DhlParams(), n_racks=0)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            Endpoint(0, "x", -1.0)


class TestTrack:
    def test_distance(self, env):
        track = Track(env, DhlParams(), default_endpoints(DhlParams()))
        assert track.distance(0, 1) == 500.0
        assert track.distance(1, 0) == 500.0

    def test_distance_same_endpoint_rejected(self, env):
        track = Track(env, DhlParams(), default_endpoints(DhlParams()))
        with pytest.raises(SchedulingError):
            track.distance(0, 0)

    def test_unknown_endpoint_rejected(self, env):
        track = Track(env, DhlParams(), default_endpoints(DhlParams()))
        with pytest.raises(SchedulingError, match="unknown endpoint"):
            track.endpoint(42)

    def test_travel_time_matches_motion_profile(self, env):
        params = DhlParams()
        track = Track(env, params, default_endpoints(params))
        assert track.travel_time(0, 1) == pytest.approx(
            motion_profile(params).motion_time
        )

    def test_hop_energy_matches_launch_energy(self, env):
        params = DhlParams()
        track = Track(env, params, default_endpoints(params))
        assert track.hop_energy(0, 1) == pytest.approx(launch_energy(params))

    def test_short_hop_cheaper_than_full_speed(self, env):
        # Between two nearby stops the cart cannot reach top speed, so the
        # hop costs less energy than a full-length launch.
        params = DhlParams()
        endpoints = (
            Endpoint(0, "library", 0.0, is_library=True),
            Endpoint(1, "near", 10.0),
            Endpoint(2, "far", 500.0),
        )
        track = Track(env, params, endpoints)
        assert track.hop_energy(0, 1) < track.hop_energy(0, 2)

    def test_traversal_accounting(self, env):
        track = Track(env, DhlParams(), default_endpoints(DhlParams()))
        track.record_traversal(0, 1)
        track.record_traversal(1, 0)
        assert track.traversals == 2
        assert track.metres_travelled == 1000.0

    def test_needs_two_endpoints(self, env):
        with pytest.raises(SchedulingError):
            Track(env, DhlParams(), (Endpoint(0, "solo", 0.0),))

    def test_duplicate_ids_rejected(self, env):
        endpoints = (Endpoint(0, "a", 0.0), Endpoint(0, "b", 1.0))
        with pytest.raises(SchedulingError, match="duplicate"):
            Track(env, DhlParams(), endpoints)


class TestBuildAndPick:
    def test_single_rail(self, env):
        tracks = build_tracks(env, DhlParams())
        assert len(tracks) == 1
        assert tracks[0].name == "rail-0"

    def test_dual_rail(self, env):
        tracks = build_tracks(env, DhlParams(dual_rail=True))
        assert len(tracks) == 2
        assert tracks[0].name == "rail-outbound"

    def test_pick_single(self, env):
        tracks = build_tracks(env, DhlParams())
        assert pick_track(tracks, 0, 1) is tracks[0]
        assert pick_track(tracks, 1, 0) is tracks[0]

    def test_pick_dual_by_direction(self, env):
        tracks = build_tracks(env, DhlParams(dual_rail=True))
        assert pick_track(tracks, 0, 1) is tracks[0]  # outbound
        assert pick_track(tracks, 1, 0) is tracks[1]  # inbound

    def test_pick_empty_rejected(self):
        with pytest.raises(SchedulingError):
            pick_track([], 0, 1)


class TestHopMemo:
    """Memoised hop physics equals the uncached physics, bit for bit."""

    @pytest.mark.parametrize("params,n_racks", [
        (DhlParams(), 1),
        (DhlParams(dual_rail=True), 1),
        (DhlParams(), 3),
        (DhlParams(dual_rail=True), 4),
    ])
    def test_cached_hops_equal_uncached_physics(self, env, params, n_racks):
        for track in build_tracks(env, params, n_racks):
            ids = [endpoint.endpoint_id for endpoint in track.endpoints]
            pairs = [(src, dst) for src in ids for dst in ids if src != dst]
            for _ in range(2):  # the first pass fills the memo, the second hits it
                for src, dst in pairs:
                    hop = params.with_(track_length=track.distance(src, dst))
                    for profile in ("paper", "exact"):
                        assert track.travel_time(src, dst, profile).hex() == (
                            motion_profile(hop, profile).motion_time.hex()
                        )
                    assert track.hop_energy(src, dst).hex() == (
                        launch_energy(hop).hex()
                    )
            assert len(track._travel_times) == 2 * len(pairs)
            assert len(track._hop_energies) == len(pairs)

    def test_memo_keeps_rejecting_bad_hops(self, env):
        track = Track(env, DhlParams(), default_endpoints(DhlParams()))
        track.travel_time(0, 1)
        with pytest.raises(SchedulingError):
            track.travel_time(1, 1)
        with pytest.raises(SchedulingError):
            track.hop_energy(0, 7)

    def test_degraded_lim_still_stretches_a_memoised_transit(self, env):
        system = DhlSystem(env)
        track = system.tracks[0]
        travel = track.travel_time(0, 1)
        assert (0, 1, "paper") in track._travel_times
        track.health.degrade_lim(2.0)
        cart = system.make_cart()
        system.library.admit(cart)
        env.run(until=system.shuttle(system.library.checkout(cart.cart_id), dst=1))
        assert env.now == pytest.approx(trip_time(DhlParams()) + travel)
