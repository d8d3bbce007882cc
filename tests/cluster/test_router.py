"""Router behaviour against scriptable stub replicas: admission, placement,
retry-on-failure, warm-up fan-out, stats/metrics aggregation."""

import json
import urllib.error
import urllib.request

import pytest

from repro.cluster.hashing import owner
from repro.cluster.router import FleetRouter, _relabel


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read()


@pytest.fixture
def router(stub_replicas):
    """A background router over the three stub replicas (prober off-tempo)."""
    fleet = FleetRouter(
        [stub.url for stub in stub_replicas],
        port=0,
        probe_interval_s=30.0,  # probe manually in the tests
        failure_threshold=2,
    )
    with fleet as running:
        yield running


class TestAdmission:
    def test_malformed_body_bounces_at_the_edge(self, router, stub_replicas):
        status, body, _ = _post(router.url + "/solve", {"chip": "not-a-chip"})
        assert status == 400
        assert "chip" in body["error"]
        # JSON integers past the float range: float() raises OverflowError.
        huge = 10**400
        transient = {"chip": "chip1", "duration_s": 0.01, "dt_s": 0.002}
        for path, bad in [
            ("/solve", {"chip": "chip1", "total_power": huge}),
            ("/solve", {"chip": "chip1", "total_power": 10, "deadline_ms": huge}),
            ("/solve", {"chip": "chip1", "powers": {"core_layer/Core": huge}}),
            ("/solve_transient", {**transient, "duration_s": huge}),
            ("/solve_transient", {**transient, "dt_s": huge}),
            ("/solve_transient", {**transient, "schedule": [{"t_s": huge}]}),
        ]:
            status, body, _ = _post(router.url + path, bad)
            assert status == 400, (path, bad)
            assert body["error"]
        # An integer literal past Python's 4300-digit parsing limit.
        request = urllib.request.Request(
            router.url + "/solve", method="POST",
            data=b'{"chip": "chip1", "total_power": ' + b"9" * 5000 + b"}",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        for stub in stub_replicas:
            assert stub.post_count("/solve") == 0
            assert stub.post_count("/solve_transient") == 0

    def test_unknown_backend_bounces(self, router):
        status, body, _ = _post(
            router.url + "/solve",
            {"chip": "chip1", "total_power": 50, "backend": "quantum"},
        )
        assert status == 400

    def test_unknown_path_is_404(self, router):
        status, body, _ = _post(router.url + "/nothing", {"x": 1})
        assert status == 404

    def test_generate_is_404_and_contacts_no_replica(self, router, stub_replicas):
        status, body, _ = _post(router.url + "/generate", {"shard": {"index": 0}})
        assert status == 404
        assert "unknown path" in body["error"]
        for stub in stub_replicas:
            assert stub.post_count("/generate") == 0


class TestPlacement:
    def test_same_key_lands_on_the_same_replica(self, router):
        names = set()
        for _ in range(4):
            _, body, headers = _post(
                router.url + "/solve",
                {"chip": "chip1", "total_power": 50, "resolution": 16},
            )
            names.add(headers["X-Repro-Replica"])
        assert len(names) == 1

    def test_placement_follows_rendezvous_owner(self, router):
        member_names = router.membership.healthy_names()
        _, body, headers = _post(
            router.url + "/solve",
            {"chip": "chip2", "total_power": 40, "resolution": 24},
        )
        assert headers["X-Repro-Replica"] == owner(
            ("chip2", 24, "fvm"), member_names
        )

    def test_transient_routes_by_its_own_key(self, router):
        status, body, headers = _post(
            router.url + "/solve_transient",
            {"chip": "chip1", "resolution": 16, "duration_s": 0.01,
             "dt_s": 0.005, "total_power": 30},
        )
        assert status == 200
        assert headers["X-Repro-Replica"] == owner(
            ("chip1", 16, "transient"), router.membership.healthy_names()
        )


class TestFailover:
    def test_dead_owner_drains_and_retries_on_peer(self, router, stub_replicas):
        payload = {"chip": "chip1", "total_power": 50, "resolution": 16}
        _, _, headers = _post(router.url + "/solve", payload)
        owner_name = headers["X-Repro-Replica"]
        victim = next(s for s in stub_replicas if s.name == owner_name)
        victim.stop()
        # A graceful stub shutdown leaves pooled keep-alive connections
        # draining; drop the router's pool so the next hop dials fresh and
        # sees connection-refused (what a SIGKILLed replica produces —
        # the process-level chaos test covers that path for real).
        router.membership.by_name(owner_name).client.close()
        status, body, headers = _post(router.url + "/solve", payload)
        assert status == 200
        assert headers["X-Repro-Replica"] != owner_name
        # The dead owner was drained on the traffic path, not left healthy.
        assert owner_name not in router.membership.healthy_names()
        stats = router.stats()
        assert stats["router"]["retries"] >= 1
        assert stats["membership"]["status"] == "degraded"

    def test_no_healthy_replicas_is_503(self, router, stub_replicas):
        for replica in router.membership.replicas:
            router.membership.mark_failed(replica)
        status, body, _ = _post(
            router.url + "/solve",
            {"chip": "chip1", "total_power": 50, "resolution": 16},
        )
        assert status == 503


class TestWarmUp:
    def test_warm_fleet_splits_keys_by_owner(self, router, stub_replicas):
        keys = [
            {"chip": "chip1", "resolution": 16, "backend": "fvm"},
            {"chip": "chip2", "resolution": 24, "backend": "fvm"},
            {"chip": "chip3", "resolution": 32, "backend": "hotspot"},
            {"chip": "chip1", "resolution": 40, "backend": "fvm"},
        ]
        status, body, _ = _post(router.url + "/warm_up", {"keys": keys})
        assert status == 200
        assert body["warmed"] == len(keys)
        assert sum(r["keys"] for r in body["replicas"].values()) == len(keys)
        member_names = router.membership.healthy_names()
        for entry in keys:
            key = (entry["chip"], entry["resolution"], entry["backend"])
            expected_owner = owner(key, member_names)
            stub = next(s for s in stub_replicas if s.name == expected_owner)
            assert entry in stub.warmed_keys

    def test_warm_up_body_must_carry_keys_list(self, router):
        status, body, _ = _post(router.url + "/warm_up", {"nope": 1})
        assert status == 400
        # An integer literal past Python's 4300-digit parsing limit.
        request = urllib.request.Request(
            router.url + "/warm_up", method="POST",
            data=b'{"keys": [], "n": ' + b"9" * 5000 + b"}",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "raw_key, named",
        [
            (b'{"chip": "chip1", "resolution": "abc", "backend": "fvm"}', "'abc'"),
            # JSON parses 1e400 as infinity, which int() cannot convert.
            (b'{"chip": "chip1", "resolution": 1e400, "backend": "fvm"}', "inf"),
            (b'"chip1/16/fvm"', "'chip1/16/fvm'"),
        ],
        ids=["string-resolution", "overflowing-resolution", "non-object-key"],
    )
    def test_malformed_key_is_400_and_contacts_no_replica(
        self, router, stub_replicas, raw_key, named
    ):
        valid = b'{"chip": "chip1", "resolution": 16, "backend": "fvm"}'
        request = urllib.request.Request(
            router.url + "/warm_up", method="POST",
            data=b'{"keys": [' + valid + b", " + raw_key + b"]}",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert "warm-up key" in error and named in error
        assert all(stub.post_count("/warm_up") == 0 for stub in stub_replicas)

    def test_rejoin_replays_the_seen_slice(self, router, stub_replicas):
        # Make the router see keys, then drain + recover each stub's owner.
        for resolution in (16, 24, 32, 40, 48):
            _post(router.url + "/solve",
                  {"chip": "chip1", "total_power": 50, "resolution": resolution})
        victim_name = owner(("chip1", 16, "fvm"),
                            router.membership.healthy_names())
        victim_stub = next(s for s in stub_replicas if s.name == victim_name)
        victim = router.membership.by_name(victim_name)
        router.membership.mark_failed(victim)
        before = len(victim_stub.warmed_keys)
        router.membership.probe_once()  # stub alive -> warm then re-admit
        assert victim.state == "healthy"
        replayed = victim_stub.warmed_keys[before:]
        assert {"chip": "chip1", "resolution": 16, "backend": "fvm"} in replayed
        # Only keys this replica owns come back through its warm-up.
        member_names = router.membership.healthy_names()
        for entry in replayed:
            key = (entry["chip"], entry["resolution"], entry["backend"])
            assert owner(key, member_names) == victim_name


class TestAggregation:
    def test_stats_merge_sums_replicas(self, router, stub_replicas):
        stats = router.stats()
        assert stats["total_requests"] == 3  # one canned request per stub
        assert stats["backends"]["fvm"]["requests"] == 3
        assert set(stats["replicas"]) == {s.name for s in stub_replicas}
        assert stats["membership"]["healthy_count"] == 3

    def test_metrics_relabels_and_dedupes(self, router, stub_replicas):
        status, body = _get(router.url + "/metrics")
        text = body.decode()
        assert status == 200
        # HELP/TYPE once per metric even with three replicas contributing.
        assert text.count("# HELP repro_requests_total") == 1
        for stub in stub_replicas:
            assert f'repro_requests_total{{replica="{stub.name}"}} 1' in text
            # Pre-labelled samples get the replica label injected first.
            assert (
                f'repro_requests_total{{replica="{stub.name}",chip="chip1"'
                in text
            )
        assert "repro_router_replicas_healthy 3" in text
        assert "repro_router_replicas_total 3" in text

    def test_healthz_summarizes_fleet(self, router):
        status, body = _get(router.url + "/healthz")
        payload = json.loads(body)
        assert payload["role"] == "router"
        assert payload["status"] == "ok"
        assert payload["member_count"] == 3
        assert len(payload["replicas"]) == 3

    def test_reads_proxy_to_a_replica(self, router):
        status, body = _get(router.url + "/chips")
        assert status == 200
        assert json.loads(body)["chips"]


class TestRelabel:
    def test_bare_sample_gets_wrapped(self):
        lines = _relabel("metric_a 4\n", "r:1", set())
        assert lines == ['metric_a{replica="r:1"} 4']

    def test_labelled_sample_gets_replica_prepended(self):
        lines = _relabel('metric_a{x="y"} 4\n', "r:1", set())
        assert lines == ['metric_a{replica="r:1",x="y"} 4']

    def test_help_type_deduped_across_replicas(self):
        declared = set()
        first = _relabel("# HELP m h\n# TYPE m counter\nm 1\n", "a:1", declared)
        second = _relabel("# HELP m h\n# TYPE m counter\nm 2\n", "b:2", declared)
        assert sum(1 for line in first + second if line.startswith("# HELP")) == 1
        assert sum(1 for line in first + second if line.startswith("# TYPE")) == 1
