"""Open-loop workload engine: determinism, aggregation exactness,
samplers, and the payload cache."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs.cluster import build_testbed
from repro.workloads import payload_bytes
from repro.workloads.openloop import (
    _REQ_PACK,
    ArrivalSpec,
    OpenLoopSpec,
    PopularitySpec,
    SizeSpec,
    WorkloadClass,
    ZipfSampler,
    _class_tables,
    _first_arrivals,
    _make_stepper,
    open_loop_write_load,
    sample_size,
)
from repro.workloads.streams import (
    TAG_CLASS,
    TAG_GAP,
    TAG_OBJ,
    TAG_SIZE,
    TAG_STATE,
    u01,
    u01_array,
)


# ------------------------------------------------------------------ streams
def test_u01_open_interval_and_pure():
    vals = [u01(3, c, k, TAG_GAP) for c in range(50) for k in range(20)]
    assert all(0.0 < v < 1.0 for v in vals)
    # pure function: same key -> same draw, in any evaluation order
    assert u01(3, 7, 11, TAG_GAP) == u01(3, 7, 11, TAG_GAP)
    # distinct tags decorrelate the same (seed, client, k) triple
    assert u01(3, 7, 11, TAG_GAP) != u01(3, 7, 11, TAG_OBJ)
    # roughly uniform: the mean of 1000 draws is near 1/2
    assert abs(sum(vals) / len(vals) - 0.5) < 0.05


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                   st.integers(0, 2**64 - 1)),
    cids=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16),
    k=st.one_of(st.integers(0, 64), st.integers(0, 2**64 - 1)),
    tag=st.sampled_from([TAG_GAP, TAG_OBJ, TAG_SIZE, TAG_STATE, TAG_CLASS]),
)
def test_u01_array_bit_identical_to_scalar(seed, cids, k, tag):
    """The vectorized draw reproduces the scalar draw bit for bit."""
    vec = u01_array(seed, np.array(cids, dtype=np.uint64), k, tag)
    ref = np.array([u01(seed, c, k, tag) for c in cids], dtype=np.float64)
    assert vec.dtype == np.float64
    assert (vec.view(np.uint64) == ref.view(np.uint64)).all()


def test_zipf_sampler_skew_and_bounds():
    z = ZipfSampler(100, alpha=1.2)
    assert z.mass[0] > z.mass[1] > z.mass[50]
    assert z.pick(1e-12) == 0
    assert z.pick(1.0 - 1e-12) == 99
    # alpha=0 degenerates to uniform mass
    u = ZipfSampler(10, alpha=0.0)
    assert abs(u.mass[0] - 0.1) < 1e-12 and abs(u.mass[9] - 0.1) < 1e-12


@pytest.mark.parametrize("dist", ["lognormal", "pareto"])
def test_sample_size_clamped_and_quantized(dist):
    s = SizeSpec(dist=dist, median_bytes=4096, sigma=1.5, alpha=1.1,
                 min_bytes=1024, max_bytes=32768, quantum=512)
    for k in range(500):
        size = sample_size(u01(1, 5, k, TAG_OBJ), s)
        assert 1024 <= size <= 32768
        assert size % 512 == 0 or size == s.min_bytes


def test_sample_size_fixed():
    s = SizeSpec(dist="fixed", fixed_bytes=9999)
    assert sample_size(0.5, s) == 9999


# ---------------------------------------------------------------- validation
def test_burst_requires_jitter():
    with pytest.raises(ValueError, match="jitter"):
        ArrivalSpec(kind="burst", burst_jitter_ns=0.0).validate()


def test_spec_validation():
    with pytest.raises(ValueError):
        OpenLoopSpec(n_users=0).validate()
    with pytest.raises(ValueError):
        OpenLoopSpec(arrival=ArrivalSpec(kind="nope")).validate()
    with pytest.raises(ValueError):
        OpenLoopSpec(size=SizeSpec(min_bytes=0)).validate()
    with pytest.raises(ValueError):
        OpenLoopSpec(
            classes=(WorkloadClass("a", 0.5), WorkloadClass("b", 0.9)),
        ).validate()


# ------------------------------------------------------- engine differential
def _spec(kind: str, n_users: int, seed: int = 11) -> OpenLoopSpec:
    return OpenLoopSpec(
        n_users=n_users,
        arrival=ArrivalSpec(
            kind=kind, rate_hz=2000.0,
            on_min_ns=20_000.0, off_min_ns=50_000.0,
            burst_period_ns=100_000.0, burst_jitter_ns=10_000.0,
            burst_join=0.4,
        ),
        popularity=PopularitySpec(n_objects=32, alpha=1.2),
        size=SizeSpec(dist="lognormal", median_bytes=4096, sigma=0.6,
                      min_bytes=1024, max_bytes=8192),
        warmup_ns=100_000.0,
        measure_ns=1_000_000.0,
        seed=seed,
    )


def _run(engine: str, kind: str, n_users: int, record: bool = False):
    tb = build_testbed(n_storage=4, n_clients=2)
    res, nodes = open_loop_write_load(
        tb, _spec(kind, n_users), protocol="raw", engine=engine, record=record
    )
    tb.finish()
    return res, nodes


@pytest.mark.parametrize("kind", ["poisson", "onoff", "burst"])
@pytest.mark.parametrize("n_users", [1, 4, 32])
def test_aggregated_matches_explicit(kind, n_users):
    """The exactness gate: the aggregated heap-merge generator must
    produce the byte-identical request schedule — and therefore the
    identical completions — of the per-client reference engine."""
    a, na = _run("aggregated", kind, n_users)
    b, nb = _run("explicit", kind, n_users)
    assert a.schedule_digest == b.schedule_digest
    assert a.issued == b.issued
    assert (a.ops, a.failures, a.bytes) == (b.ops, b.failures, b.bytes)
    assert a.latency == b.latency
    assert a.obj_counts == b.obj_counts
    assert na == nb


def test_schedule_deterministic_across_runs():
    a, _ = _run("aggregated", "poisson", 16)
    b, _ = _run("aggregated", "poisson", 16)
    assert a.schedule_digest == b.schedule_digest
    assert a.latency == b.latency


def test_seed_changes_schedule():
    tb1 = build_testbed(n_storage=4, n_clients=2)
    r1, _ = open_loop_write_load(tb1, _spec("poisson", 16, seed=1), protocol="raw")
    tb2 = build_testbed(n_storage=4, n_clients=2)
    r2, _ = open_loop_write_load(tb2, _spec("poisson", 16, seed=2), protocol="raw")
    assert r1.schedule_digest != r2.schedule_digest


def test_recorded_schedule_matches_digest():
    res, _ = _run("aggregated", "poisson", 8, record=True)
    assert res.schedule is not None
    assert len(res.schedule) == res.issued
    # timestamps ascend and the digest re-derives from the entries
    ts = [e[0] for e in res.schedule]
    assert ts == sorted(ts)
    h = hashlib.sha256()
    for entry in res.schedule:
        h.update(_REQ_PACK.pack(*entry))
    assert h.hexdigest() == res.schedule_digest


def test_workload_classes_differential():
    """Mixed populations (per-class arrival + size) stay exact."""
    spec = OpenLoopSpec(
        n_users=24,
        arrival=ArrivalSpec(kind="poisson", rate_hz=1000.0),
        popularity=PopularitySpec(n_objects=16, alpha=1.0),
        size=SizeSpec(dist="fixed", fixed_bytes=2048),
        classes=(
            WorkloadClass("small", 0.7),
            WorkloadClass(
                "bulk", 0.3,
                arrival=ArrivalSpec(kind="poisson", rate_hz=200.0),
                size=SizeSpec(dist="fixed", fixed_bytes=8192),
            ),
        ),
        warmup_ns=0.0,
        measure_ns=2_000_000.0,
        seed=5,
    )

    def go(engine):
        tb = build_testbed(n_storage=4, n_clients=2)
        res, nodes = open_loop_write_load(tb, spec, protocol="raw", engine=engine)
        return res

    a, b = go("aggregated"), go("explicit")
    assert a.schedule_digest == b.schedule_digest
    assert a.latency == b.latency
    # both class sizes actually occur
    assert a.bytes % 2048 != 0 or a.bytes >= 8192


SPARSE_USERS = 2000


def _sparse_spec(kind: str) -> OpenLoopSpec:
    """~5% of SPARSE_USERS clients arrive inside the 1 ms horizon, so
    most of the population is rejected before its first ``step``."""
    arrivals = {
        "poisson": ArrivalSpec(kind="poisson", rate_hz=50.0),
        # P(first OFF gap < horizon) = 1 - 0.95**1.5, about 7%
        "onoff": ArrivalSpec(kind="onoff", rate_hz=20_000.0,
                             on_min_ns=100_000.0, off_min_ns=950_000.0),
        # bursts at 0, 0.4 and 0.8 ms, each joined with p = 0.02
        "burst": ArrivalSpec(kind="burst", burst_period_ns=400_000.0,
                             burst_jitter_ns=20_000.0, burst_join=0.02),
    }
    classes = ()
    if kind == "classes":
        classes = (
            WorkloadClass("steady", 0.6, arrival=arrivals["poisson"]),
            WorkloadClass("bursty", 0.4, arrival=arrivals["onoff"],
                          size=SizeSpec(dist="fixed", fixed_bytes=8192)),
        )
    return OpenLoopSpec(
        n_users=SPARSE_USERS,
        arrival=arrivals.get(kind, arrivals["poisson"]),
        popularity=PopularitySpec(n_objects=32, alpha=1.2),
        size=SizeSpec(dist="lognormal", median_bytes=4096, sigma=0.6,
                      min_bytes=1024, max_bytes=8192),
        classes=classes,
        warmup_ns=100_000.0,
        measure_ns=900_000.0,
        seed=13,
    )


@pytest.mark.parametrize("kind", ["poisson", "onoff", "burst", "classes"])
def test_sparse_population_matches_explicit(kind):
    """The exactness gate where the first-arrival prefilter does the
    work: fewer than 10% of the clients ever arrive."""
    spec = _sparse_spec(kind)

    def go(engine):
        tb = build_testbed(n_storage=4, n_clients=2)
        res, nodes = open_loop_write_load(tb, spec, protocol="raw", engine=engine)
        tb.finish()
        return res, nodes

    (a, na), (b, nb) = go("aggregated"), go("explicit")
    assert 0 < a.active_users < SPARSE_USERS // 10
    assert a.schedule_digest == b.schedule_digest
    assert a.issued == b.issued
    assert a.latency == b.latency
    assert a.obj_counts == b.obj_counts
    assert a.active_users == b.active_users
    assert na == nb


@pytest.mark.parametrize("kind", ["poisson", "onoff"])
@pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
def test_first_arrival_at_horizon_edge(kind, ulps):
    """The client with the earliest first arrival, its arrival a few ulps
    from the horizon, is heaped exactly when the scalar ``step`` puts it
    before the horizon.  For ``onoff`` the ON-phase rate is so high that
    the first arrival follows the first OFF gap within picoseconds, so
    the horizon also sits right at the prefilter's threshold."""
    arrival = ArrivalSpec(kind=kind, rate_hz=2000.0 if kind == "poisson" else 1e12,
                          on_min_ns=400_000.0, off_min_ns=20_000.0)
    n_users, seed = 64, 3
    init, step, _ = _make_stepper(arrival, seed, 1e9)
    t_first, cid = min((step(c, 0.0, init)[0], c) for c in range(n_users))
    horizon = t_first
    for _ in range(abs(ulps)):
        horizon = math.nextafter(horizon, math.copysign(math.inf, ulps))
    spec = OpenLoopSpec(n_users=n_users, arrival=arrival, measure_ns=horizon,
                        seed=seed)
    init, step, _ = _make_stepper(arrival, seed, spec.horizon_ns)
    expect = [cid] if step(cid, 0.0, init)[0] < spec.horizon_ns else []
    assert bool(expect) == (ulps > 0)  # the scalar path itself sits on the edge

    _, cum, arrivals, _ = _class_tables(spec)
    steppers = [_make_stepper(a, seed, spec.horizon_ns) for a in arrivals]
    heaped = [c for first in _first_arrivals(spec, steppers, cum)
              for _, c, _ in first]
    assert heaped == expect
    tb = build_testbed(n_storage=2, n_clients=1)
    res, _ = open_loop_write_load(tb, spec, protocol="raw", record=True)
    tb.finish()
    assert [e[1] for e in res.schedule] == expect


def test_quiet_client_beyond_horizon():
    """A rate so low that no arrival lands inside the horizon issues
    nothing — and the run still quiesces cleanly."""
    spec = OpenLoopSpec(
        n_users=4,
        arrival=ArrivalSpec(kind="poisson", rate_hz=1e-6),
        measure_ns=1_000.0,
        seed=9,
    )
    tb = build_testbed(n_storage=2, n_clients=1)
    res, _ = open_loop_write_load(tb, spec, protocol="raw")
    assert res.issued == 0
    assert res.quiesced
    assert res.active_users == 0


def test_inflight_gauge_when_telemetry_on():
    tb = build_testbed(n_storage=4, n_clients=2, telemetry=True)
    res, _ = open_loop_write_load(tb, _spec("poisson", 8), protocol="raw")
    g = tb.telemetry.metrics.gauges.get("workload.openloop.inflight")
    assert g is not None
    assert res.inflight_peak >= 1
    assert res.phase_latency is not None
    assert "end_to_end" in res.phase_latency


# ------------------------------------------------------------- payload cache
def test_payload_cache_identity_and_immutability():
    a = payload_bytes(4096, seed=3)
    b = payload_bytes(4096, seed=3)
    assert a is b  # cached: no allocator churn per request
    assert not a.flags.writeable
    c = payload_bytes(4096, seed=4)
    assert c is not a and not (a == c).all()
    with pytest.raises(ValueError):
        a[0] = 1


def test_payload_cache_slices_are_views():
    base = payload_bytes(16384, seed=0)
    view = base[:4096]
    assert view.base is base
    assert not view.flags.writeable
