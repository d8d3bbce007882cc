"""Fleet smoke check: boot two real CLI replicas behind the real CLI router,
kill one replica mid-stream, lose nothing, watch it rejoin warm.

Launched by ``benchmarks/run_benchmarks.sh --smoke``.  Starts two
``repro-thermal serve`` replicas and one ``repro-thermal route`` router as
subprocesses on free ports, then:

* runs a mixed ``/solve`` stream whose group keys are guaranteed (via the
  rendezvous ``owner`` function) to place work on *both* replicas, and
  records the answers;
* SIGKILLs one replica — the real thing, not a graceful stop — and replays
  the stream: every request must answer 200 through the router with
  answers identical to the baseline, and ``/healthz`` must go
  ``degraded``;
* reboots the victim on its old port and waits for the router's prober to
  warm it (``POST /warm_up`` replay) and re-admit it: ``/healthz`` back to
  ``ok`` with ``recoveries >= 1``, and traffic reaches the victim again;
* renders ``repro-thermal watch --once`` against the router (the dashboard
  must show the ``fleet:`` membership line) and shuts everything down with
  SIGINT, asserting clean exit 0 from router and replicas.

This is the process-level twin of ``tests/cluster/test_fleet_chaos.py``:
same contract, but through the actual CLI wiring, actual sockets, and an
actual SIGKILL.
"""

import json
import re
import select
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

STARTUP_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 120
RECOVERY_TIMEOUT_S = 60


def _spawn(argv):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _boot_url(process):
    """Read the boot announcement line and extract the base URL."""
    ready, _, _ = select.select([process.stdout], [], [], STARTUP_TIMEOUT_S)
    assert ready, f"process printed nothing within {STARTUP_TIMEOUT_S}s"
    line = process.stdout.readline()
    match = re.search(r"listening on (http://\S+)", line)
    assert match, f"no URL announced; first line: {line!r}"
    return match.group(1)


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


def _get(url):
    with urllib.request.urlopen(url, timeout=REQUEST_TIMEOUT_S) as response:
        return json.loads(response.read())


def _payloads(member_names):
    """Mixed /solve bodies whose keys place work on every replica."""
    from repro.cluster.hashing import owner

    per_owner = {name: [] for name in member_names}
    for resolution in range(8, 33, 2):
        for chip, backend in (("chip1", "fvm"), ("chip2", "hotspot")):
            name = owner((chip, resolution, backend), member_names)
            if len(per_owner[name]) < 3:
                per_owner[name].append({
                    "chip": chip, "resolution": resolution,
                    "backend": backend, "total_power": 30.0 + resolution,
                })
        if all(len(group) >= 3 for group in per_owner.values()):
            break
    assert all(per_owner.values()), "keys did not cover the fleet"
    return [case for group in per_owner.values() for case in group]


def _stream(router_url, payloads, baseline=None, forbid=None):
    """Send every payload; return {payload-json: max_K, ...} and replica set."""
    answers, replicas = {}, set()
    for payload in payloads:
        status, body, headers = _post(router_url + "/solve", payload)
        assert status == 200, (payload, body)
        key = json.dumps(payload, sort_keys=True)
        answers[key] = body["max_K"]
        replicas.add(headers["X-Repro-Replica"])
        if baseline is not None:
            assert answers[key] == baseline[key], (payload, body)
        if forbid is not None:
            assert headers["X-Repro-Replica"] != forbid, payload
    return answers, replicas


def _wait_for_recovery(router_url):
    deadline = time.monotonic() + RECOVERY_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            health = _get(router_url + "/healthz")
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
            continue
        if health["status"] == "ok":
            return health
        time.sleep(0.2)
    raise AssertionError(f"fleet did not recover within {RECOVERY_TIMEOUT_S}s")


def _assert_watch_shows_fleet(router_url):
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "watch", router_url, "--once"],
        capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr
    assert "fleet:" in result.stdout, result.stdout[:400]
    assert "backend" in result.stdout, result.stdout[:400]


def _sigint_and_reap(process, what):
    if process.poll() is not None:
        return
    process.send_signal(signal.SIGINT)
    returncode = process.wait(timeout=STARTUP_TIMEOUT_S)
    assert returncode == 0, f"{what} exited {returncode} on SIGINT"


def main() -> int:
    processes = []
    try:
        replica_a = _spawn(["serve", "--port", "0"])
        processes.append(replica_a)
        replica_b = _spawn(["serve", "--port", "0"])
        processes.append(replica_b)
        url_a, url_b = _boot_url(replica_a), _boot_url(replica_b)

        router = _spawn([
            "route", "--replica", url_a, "--replica", url_b,
            "--port", "0", "--probe-interval", "0.3",
            "--failure-threshold", "2",
        ])
        processes.append(router)
        router_url = _boot_url(router)

        health = _get(router_url + "/healthz")
        assert health["role"] == "router" and health["status"] == "ok", health
        member_names = [replica["name"] for replica in health["replicas"]]
        payloads = _payloads(member_names)

        baseline, replicas_seen = _stream(router_url, payloads)
        assert len(replicas_seen) == 2, replicas_seen

        # SIGKILL replica A: no goodbye, no FIN from the handler threads —
        # the router sees raw connection failures and must drain + retry.
        victim_name = url_a.split("//", 1)[1].rstrip("/")
        victim_port = int(victim_name.rsplit(":", 1)[1])
        replica_a.kill()
        replica_a.wait(timeout=10)

        _, survivors = _stream(router_url, payloads, baseline=baseline,
                               forbid=victim_name)
        assert survivors == {url_b.split("//", 1)[1].rstrip("/")}, survivors
        health = _get(router_url + "/healthz")
        assert health["status"] == "degraded", health
        assert health["healthy_count"] == 1, health
        assert health["drains"] >= 1, health

        # Reboot the victim on its old port; the prober warms and re-admits.
        reborn = _spawn(["serve", "--port", str(victim_port)])
        processes.append(reborn)
        _boot_url(reborn)
        health = _wait_for_recovery(router_url)
        assert health["healthy_count"] == 2, health
        assert health["recoveries"] >= 1, health

        _, replicas_seen = _stream(router_url, payloads, baseline=baseline)
        assert victim_name in replicas_seen, replicas_seen

        _assert_watch_shows_fleet(router_url)

        _sigint_and_reap(router, "router")
        _sigint_and_reap(replica_b, "replica")
        _sigint_and_reap(reborn, "rebooted replica")
        total = 3 * len(payloads)
        print(f"fleet smoke ok: {total}/{total} requests answered across a "
              "SIGKILLed replica, degraded->ok recovery with warm-up, "
              "watch + clean shutdown")
        return 0
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
