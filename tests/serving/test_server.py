"""End-to-end tests of the HTTP JSON API (stdlib client, real sockets)."""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.chip.designs import get_chip
from repro.data.generation import DatasetSpec, generate_dataset
from repro.operators.factory import build_operator, save_operator
from repro.serving import server as server_module
from repro.serving.backends import Backend, build_backends
from repro.serving.engine import MicroBatchEngine
from repro.serving.request import ThermalResult
from repro.serving.server import ThermalServer
from repro.solvers.fvm import FVMSolver
from repro.training.trainer import Trainer, TrainingConfig

RES = 10

#: Serving metadata that legitimately differs between two solves of the
#: same physical query (ids, wall-clock, cache provenance).
VOLATILE_KEYS = {
    "request_id", "solve_seconds", "latency_seconds",
    "trace", "cached", "provenance",
}


def _stable(body):
    """The physically meaningful slice of one solve answer."""
    return {key: value for key, value in body.items() if key not in VOLATILE_KEYS}


def _get(url):
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.status, json.loads(response.read())


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def trained_model_path(tmp_path_factory):
    """A tiny FNO surrogate trained for chip1 at the test resolution."""
    dataset = generate_dataset(
        DatasetSpec(chip_name="chip1", resolution=RES, num_samples=8, seed=7)
    )
    model = build_operator(
        "fno",
        dataset.num_input_channels,
        dataset.num_output_channels,
        {"width": 8, "modes1": 3, "modes2": 3},
        np.random.default_rng(0),
    )
    trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=4, seed=0))
    trainer.fit(dataset)
    path = tmp_path_factory.mktemp("models") / "fno_chip1.npz"
    save_operator(
        model,
        str(path),
        input_normalizer=trainer.input_normalizer,
        output_normalizer=trainer.output_normalizer,
        chip_name=dataset.chip_name,
        resolution=dataset.resolution,
    )
    return str(path)


@pytest.fixture(scope="module")
def server(trained_model_path):
    engine = MicroBatchEngine(build_backends(model_paths=[trained_model_path]))
    with ThermalServer(engine, port=0) as running:
        yield running


class TestInfoEndpoints:
    def test_healthz(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["engine_running"] is True
        assert set(body["backends"]) == {"fvm", "operator", "hotspot", "transient"}

    def test_chips_lists_blocks(self, server):
        status, body = _get(server.url + "/chips")
        assert status == 200
        names = [chip["name"] for chip in body["chips"]]
        assert names == ["chip1", "chip2", "chip3"]
        assert all(chip["blocks"] for chip in body["chips"])

    def test_models_lists_registered_surrogate(self, server, trained_model_path):
        status, body = _get(server.url + "/models")
        assert status == 200
        [model] = body["models"]
        assert model["operator"] == "fno"
        assert model["chip"] == "chip1"
        assert model["resolution"] == RES
        assert model["path"] == trained_model_path

    def test_stats_counts_solves(self, server):
        _post(server.url + "/solve", {"chip": "chip1", "total_power": 25, "resolution": RES})
        status, body = _get(server.url + "/stats")
        assert status == 200
        assert body["total_requests"] >= 1
        assert "fvm" in body["backends"]

    def test_stats_surfaces_result_cache_hits(self, server):
        """Repeated same-power-map solves hit the session result cache."""
        body = {"chip": "chip3", "total_power": 33.5, "resolution": RES}
        status, first = _post(server.url + "/solve", body)
        assert status == 200 and "cached" not in first
        status, second = _post(server.url + "/solve", body)
        assert status == 200
        assert second["cached"] is True
        assert second["max_K"] == first["max_K"]
        _, stats = _get(server.url + "/stats")
        cache = stats["session"]["result_cache"]
        assert cache["hits"] >= 1
        assert cache["misses"] >= 1
        # The session-wide cache is reported once, not duplicated per backend.
        assert "result_cache" not in stats["backends"]["fvm"]

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404


class TestSolveEndpoint:
    def test_concurrent_requests_two_chips_two_backends(self, server):
        """Acceptance: concurrent /solve for >=2 chips and >=2 backends."""
        bodies = []
        for chip in ("chip1", "chip2"):
            for backend in ("fvm", "hotspot"):
                for index in range(3):
                    bodies.append(
                        {
                            "chip": chip,
                            "backend": backend,
                            "resolution": RES,
                            "total_power": 20.0 + 5.0 * index,
                        }
                    )
        with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
            responses = list(pool.map(lambda b: _post(server.url + "/solve", b), bodies))
        assert all(status == 200 for status, _ in responses)
        for body, (_, answer) in zip(bodies, responses):
            assert answer["chip"] == body["chip"]
            assert answer["backend"] == body["backend"]
            assert answer["max_K"] > 300.0
            if body["backend"] == "fvm":
                reference = FVMSolver(get_chip(body["chip"]), nx=RES).solve(
                    {
                        name: body["total_power"] / len(get_chip(body["chip"]).flat_block_names())
                        for name in get_chip(body["chip"]).flat_block_names()
                    }
                )
                assert abs(answer["max_K"] - reference.max_K) <= 1e-6  # JSON rounds to 1e-6

    def test_explicit_powers_and_maps(self, server):
        status, body = _post(
            server.url + "/solve",
            {
                "chip": "chip1",
                "resolution": RES,
                "powers": {"core_layer/Core": 20.0},
                "include_maps": True,
            },
        )
        assert status == 200
        maps = body["layer_maps"]
        assert set(maps) == set(get_chip("chip1").power_layer_names)
        assert np.asarray(maps["core_layer"]).shape == (RES, RES)

    def test_transient_backend_answers(self, server):
        status, body = _post(
            server.url + "/solve",
            {"chip": "chip1", "resolution": 8, "backend": "transient", "total_power": 30},
        )
        assert status == 200
        assert body["backend"] == "transient"
        assert body["max_K"] > 300.0

    def test_session_registered_custom_chip_is_servable(self, server):
        """/chips and /solve agree on the session's chip registry."""
        import dataclasses

        custom = dataclasses.replace(get_chip("chip1"), name="custom_stack")
        server.session.register_chip(custom)
        _, chips = _get(server.url + "/chips")
        assert "custom_stack" in [chip["name"] for chip in chips["chips"]]
        status, body = _post(
            server.url + "/solve",
            {"chip": "custom_stack", "resolution": RES, "total_power": 20},
        )
        assert status == 200
        assert body["chip"] == "custom_stack"
        assert body["max_K"] > 300.0

    def test_operator_backend_answers(self, server):
        status, body = _post(
            server.url + "/solve",
            {"chip": "chip1", "resolution": RES, "backend": "operator", "total_power": 30},
        )
        assert status == 200
        assert body["backend"] == "operator"
        assert np.isfinite(body["max_K"])

    def test_operator_without_model_is_400(self, server):
        status, body = _post(
            server.url + "/solve",
            {"chip": "chip2", "resolution": RES, "backend": "operator", "total_power": 30},
        )
        assert status == 400
        assert "no operator model registered" in body["error"]

    def test_operator_without_model_is_not_a_backend_error(self, server):
        """The missing model is refused before admission: a client error the
        engine never sees, so no backend counter or group records it."""
        status, body = _post(
            server.url + "/solve",
            {"chip": "chip3", "resolution": RES, "backend": "operator", "total_power": 30},
        )
        assert status == 400
        assert "no operator model registered" in body["error"]
        _, stats = _get(server.url + "/stats")
        assert stats["backends"]["operator"]["errors"] == 0
        assert not any(
            group["chip"] == "chip3" and group["backend"] == "operator"
            for group in stats["groups"]
        )

    def test_validation_errors_are_400(self, server):
        cases = [
            {"total_power": 10},  # missing chip
            {"chip": "chip9", "total_power": 10},
            {"chip": "chip1", "backend": "comsol", "total_power": 10},
            {"chip": "chip1", "powers": {"bogus/block": 1.0}},
            {"chip": "chip1", "powers": {"core_layer/Core": -5.0}},
            {"chip": "chip1", "resolution": 2, "total_power": 10},
            # JSON integers past the float range: float() raises OverflowError.
            {"chip": "chip1", "total_power": 10**400},
            {"chip": "chip1", "total_power": 10, "deadline_ms": 10**400},
            {"chip": "chip1", "powers": {"core_layer/Core": 10**400}},
        ]
        for body in cases:
            status, answer = _post(server.url + "/solve", body)
            assert status == 400, body
            assert answer["error"]
        steady = {"chip": "chip1", "resolution": 8, "duration_s": 0.01, "dt_s": 0.002}
        transient_cases = [
            {**steady, "duration_s": 10**400},
            {**steady, "dt_s": 10**400},
            {**steady, "total_power": 10**400},
            {**steady, "deadline_ms": 10**400},
            # Finite operands whose step count overflows to infinity.
            {**steady, "duration_s": 1e308, "dt_s": 1e-10},
            {**steady, "schedule": [{"t_s": 10**400, "total_power": 10}]},
            {**steady, "schedule": [{"t_s": 0, "total_power": 10**400}]},
            {**steady, "schedule": [{"t_s": 0, "powers": {"core_layer/Core": 10**400}}]},
            # json parses the NaN literal; a NaN step time would never fire.
            {**steady, "schedule": [{"t_s": 0, "total_power": 10},
                                    {"t_s": float("nan"), "total_power": 50}]},
        ]
        for body in transient_cases:
            status, answer = _post(server.url + "/solve_transient", body)
            assert status == 400, body
            assert answer["error"]

    def test_exact_equals_default_mode_too(self, server):
        body = {"chip": "chip1", "total_power": 33.0, "resolution": RES}
        status, default_mode = _post(server.url + "/solve", body)
        assert status == 200
        status, exact_mode = _post(server.url + "/solve?mode=exact", body)
        assert status == 200
        assert _stable(exact_mode) == _stable(default_mode)

    def test_unknown_mode_is_400(self, server):
        for mode in ("psychic", "speculative"):
            status, body = _post(
                server.url + f"/solve?mode={mode}",
                {"chip": "chip1", "total_power": 30.0, "resolution": RES},
            )
            assert status == 400
            assert mode in body["error"]

    def test_post_unknown_path_with_body_closes_connection(self, server):
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            connection.request("POST", "/nope", body=b'{"chip": "chip1"}')
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_body_without_content_length_is_400_and_closes_connection(self, server):
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            connection.putrequest("POST", "/solve")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_oversized_body_is_413_and_closes_connection(self, server):
        import http.client

        from repro.serving.server import MAX_BODY_BYTES

        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            # Announce an oversized body without sending it: the server must
            # answer 413 from the header alone (it never reads the body).
            connection.putrequest("POST", "/solve")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            # The unread body would desync the next keep-alive request, so
            # the server must tell the client to drop the connection.
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_malformed_json_body_is_400(self, server):
        # The second body's integer literal is past Python's 4300-digit
        # parsing limit, which json.loads reports as a plain ValueError.
        for raw in (b"{not json", b'{"chip": "chip1", "total_power": ' + b"9" * 5000 + b"}"):
            request = urllib.request.Request(server.url + "/solve", data=raw, method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=60)
            assert excinfo.value.code == 400
            assert "malformed JSON" in json.loads(excinfo.value.read())["error"]


class TestSolveTimeout:
    def test_lock_wait_past_the_solve_timeout_is_504(self, monkeypatch):
        """A request that cannot get the solver within the server's solve
        timeout answers 504 instead of waiting on."""

        class Gated(Backend):
            name = "fvm"

            def __init__(self):
                self.entered = threading.Event()
                self.release = threading.Event()

            def solve_batch(self, requests):
                self.entered.set()
                assert self.release.wait(timeout=60)
                return [ThermalResult(chip=r.chip, resolution=r.resolution,
                                      backend=self.name, max_K=350.0, min_K=300.0,
                                      mean_K=320.0, total_power_W=r.total_power_W,
                                      request_id=r.request_id)
                        for r in requests]

        monkeypatch.setattr(server_module, "SOLVE_TIMEOUT_S", 0.1)
        gated = Gated()
        engine = MicroBatchEngine({"fvm": gated})
        body = {"chip": "chip1", "total_power": 20, "resolution": RES}
        with ThermalServer(engine, port=0) as running, \
                ThreadPoolExecutor(max_workers=1) as pool:
            holder = pool.submit(_post, running.url + "/solve", body)
            assert gated.entered.wait(timeout=60)
            status, answer = _post(running.url + "/solve", {**body, "total_power": 21})
            assert status == 504
            assert "overloaded" in answer["error"]
            gated.release.set()
            assert holder.result(timeout=60)[0] == 200


class TestWarmUpAndGenerate:
    def test_warm_up_rejects_resolutions_solve_rejects(self, server):
        for key in (
            {"chip": "chip1", "resolution": 2, "backend": "fvm"},
            {"chip": "chip1", "resolution": 257, "backend": "hotspot"},
        ):
            valid = {"chip": "chip1", "resolution": RES, "backend": "hotspot"}
            status, body = _post(server.url + "/warm_up", {"keys": [valid, key]})
            assert status == 400, key
            assert "resolution must be in" in body["error"]
            assert repr(key) in body["error"]
        status, body = _post(
            server.url + "/warm_up",
            {"keys": [{"chip": "chip1", "resolution": RES, "backend": "hotspot"}]},
        )
        assert status == 200
        assert body["warmed"] == [f"chip1/{RES}/hotspot"]

    def test_warm_up_key_must_be_an_object(self, server):
        status, body = _post(server.url + "/warm_up", {"keys": [1]})
        assert status == 400
        assert "warm-up key 1" in body["error"]

    def test_generate_is_404(self, server):
        status, body = _post(server.url + "/generate", {"spec": {"chip_name": "chip1"}})
        assert status == 404
        assert "unknown path" in body["error"]
