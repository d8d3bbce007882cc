"""Fleet chaos: kill a replica mid-run, the router answers everything.

In-process twin of ``benchmarks/smoke_fleet.py`` (which SIGKILLs real
processes): two real :class:`ThermalServer` replicas behind a
:class:`FleetRouter`, a closed-loop client stream, one replica torn down
mid-stream and later rebooted on the same port.  Asserts the contract of
the issue: every request answered, answers bitwise-identical to a
single-host solve, the fleet degrades then heals, and re-admission runs
the warm-up replay before traffic.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api.session import ThermalSession
from repro.cluster.membership import DOWN, HEALTHY, WARMING
from repro.cluster.router import FleetRouter
from repro.serving.backends import build_backends
from repro.serving.engine import MicroBatchEngine
from repro.serving.server import ThermalServer

RES = 10


def _post(url, body, timeout=60):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _boot_replica(port=0):
    session = ThermalSession()
    engine = MicroBatchEngine(build_backends(session=session))
    server = ThermalServer(engine, port=port, session=session)
    return server.start_background()


def _payloads(member_names):
    """Mixed traffic guaranteed to put group keys on *every* replica.

    Walks candidate ``(chip, resolution, backend)`` keys and keeps the
    first few owned by each member — without this the rendezvous hash can
    (with small membership) place every key on one replica and the drain
    assertions would be vacuous.
    """
    from repro.cluster.hashing import owner

    per_owner = {name: [] for name in member_names}
    for resolution in range(8, 33, 2):
        for chip, backend in (("chip1", "fvm"), ("chip2", "hotspot")):
            key = (chip, resolution, backend)
            own = owner(key, member_names)
            if len(per_owner[own]) < 3:
                per_owner[own].append({
                    "chip": chip,
                    "total_power": 30.0 + resolution,
                    "resolution": resolution,
                    "backend": backend,
                })
        if all(len(group) >= 3 for group in per_owner.values()):
            break
    assert all(per_owner.values()), "candidate keys did not cover the fleet"
    return [case for group in per_owner.values() for case in group]


@pytest.fixture
def fleet():
    """Two real replicas behind a router; tears everything down."""
    replicas = [_boot_replica(), _boot_replica()]
    router = FleetRouter(
        [replica.url for replica in replicas],
        port=0,
        probe_interval_s=30.0,  # probed manually for determinism
        failure_threshold=2,
    )
    router.start_background()
    try:
        yield router, replicas
    finally:
        router.shutdown()
        for replica in replicas:
            try:
                replica.shutdown()
            except Exception:
                pass


def test_replica_death_mid_run_loses_no_request(fleet):
    router, replicas = fleet
    payloads = _payloads(router.membership.healthy_names())
    baseline = {}
    for payload in payloads:
        status, body, _ = _post(router.url + "/solve", payload)
        assert status == 200
        baseline[json.dumps(payload, sort_keys=True)] = body["max_K"]

    # Kill replica 0 the way a SIGKILL presents to the router: its listener
    # and connections go away, so proxied hops see connection errors.
    victim_url = replicas[0].url
    victim_port = replicas[0].port
    victim_name = f"{replicas[0].host}:{victim_port}"
    replicas[0].shutdown()
    router.membership.by_name(victim_name).client.close()

    # Every request is still answered — the victim's slice remaps, the
    # in-flight hop retries on the survivor — and answers stay identical.
    for payload in payloads:
        status, body, headers = _post(router.url + "/solve", payload)
        assert status == 200, body
        assert headers["X-Repro-Replica"] != victim_name
        assert body["max_K"] == baseline[json.dumps(payload, sort_keys=True)]

    health = router.health()
    assert health["status"] == "degraded"
    assert health["healthy_count"] == 1
    victim = router.membership.by_name(victim_name)
    assert victim.state == DOWN

    # Reboot on the same port; the next probe warms it, then re-admits.
    reborn = _boot_replica(port=victim_port)
    try:
        router.membership.probe_once()
        assert victim.state == HEALTHY
        assert [s for _, s in victim.transitions] == [
            HEALTHY, DOWN, WARMING, HEALTHY,
        ]
        # Warm-up ran before re-admission: the rejoined replica's session
        # pools already hold its slice of the seen keys.
        warmed_slice = router._keys_for(victim_name)
        pools = reborn.session.stats()["pools"]
        warm_entries = sum(pool["entries"] for pool in pools.values())
        assert warm_entries >= min(len(warmed_slice), 1)
        health = router.health()
        assert health["status"] == "ok"
        assert health["recoveries"] == 1

        # Traffic flows to the rejoined replica again for its keys.
        seen = set()
        for payload in payloads:
            status, body, headers = _post(router.url + "/solve", payload)
            assert status == 200
            seen.add(headers["X-Repro-Replica"])
            assert body["max_K"] == baseline[json.dumps(payload, sort_keys=True)]
        assert victim_name in seen
    finally:
        reborn.shutdown()


def test_router_solves_match_direct_replica_solves(fleet):
    """Proxying is transparent: byte-for-byte the replica's own answer."""
    router, replicas = fleet
    payload = {"chip": "chip1", "total_power": 42.5, "resolution": RES,
               "include_maps": True}
    status, via_router, headers = _post(router.url + "/solve", payload)
    assert status == 200
    direct_url = next(
        r.url for r in replicas
        if f"{r.host}:{r.port}" == headers["X-Repro-Replica"]
    )
    status, direct, _ = _post(direct_url + "/solve", payload)
    assert status == 200
    for field in ("max_K", "min_K", "mean_K", "backend", "layers"):
        assert via_router.get(field) == direct.get(field)
