"""The perf guard's workload gate: a wall-clock floor on simulated users
per second, a deterministic cap on kernel events per issued request."""

from repro.perfsnap import check_against


def _workload(events, issued=1000, users_per_wall_s=10_000, events_per_wall_s=100_000):
    return {"workload": {
        "events": events,
        "issued": issued,
        "users_per_wall_s": users_per_wall_s,
        "events_per_wall_s": events_per_wall_s,
        "schedule_digest": "d",
    }}


def test_fewer_events_at_a_lower_event_rate_passes():
    # removing dead events lowers events/s while wall time improves
    base = _workload(60_000)
    snap = _workload(47_500, users_per_wall_s=11_000, events_per_wall_s=60_000)
    assert check_against(snap, base) == []


def test_events_per_request_capped_at_five_percent():
    base = _workload(47_500)
    assert check_against(_workload(49_875), base) == []  # exactly +5%
    (failure,) = check_against(_workload(50_000), base)
    assert failure.startswith("workload.events_per_request: 50.00 > baseline 47.50")


def test_users_per_wall_s_floor_kept():
    base = _workload(47_500)
    (failure,) = check_against(_workload(47_500, users_per_wall_s=6_000), base)
    assert failure.startswith("workload.users_per_wall_s")
