"""End-to-end service tests: real sockets, real simulations, tiny traces.

Every test starts a :class:`ReproService` on an ephemeral port inside one
``asyncio.run`` and talks to it with a raw reader/writer HTTP client — no
external HTTP library, and no server subprocess (the CI smoke script covers
that path).
"""

import asyncio
import json
import os
import threading
import time

import pytest

from repro.core import experiment
from repro.core.experiment import Runner, SweepSpec
from repro.service.server import ReproService
from repro.store import ResultStore

SCALE = 0.05  # tiny traces keep each simulated cell in the low milliseconds

SWEEP_BODY = {
    "programs": ["trfd"],
    "latencies": [1, 50],
    "architectures": ["ref", "dva"],
    "scale": SCALE,
}


async def request(port, method, path, body=None, headers=()):
    """One HTTP exchange: returns (status, parsed-JSON body or raw text)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        head = [f"{method} {path} HTTP/1.1", "Host: t", "Connection: close"]
        head += [f"{name}: {value}" for name, value in headers]
        head.append(f"Content-Length: {len(payload)}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    status_line, _, rest = raw.partition(b"\r\n")
    status = int(status_line.split()[1])
    _, _, body_bytes = raw.partition(b"\r\n\r\n")
    try:
        return status, json.loads(body_bytes)
    except ValueError:
        return status, body_bytes.decode("utf-8", "replace")


async def poll_until_settled(port, sweep_id, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        status, payload = await request(port, "GET", f"/v1/sweeps/{sweep_id}")
        assert status == 200
        if payload["state"] != "running":
            return payload
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"sweep never settled: {payload}")
        await asyncio.sleep(0.02)


class running_service:
    """Async context manager: a started service + its bound port."""

    def __init__(self, store, **kwargs):
        self.service = ReproService(store=store, **kwargs)

    async def __aenter__(self):
        self.server = await self.service.start(host="127.0.0.1", port=0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self.server.close()
        await self.server.wait_closed()
        await self.service.aclose()


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestEndpoints:
    def test_healthz_reports_liveness(self, store):
        async def main():
            async with running_service(store) as svc:
                return await request(svc.port, "GET", "/v1/healthz")

        status, payload = asyncio.run(main())
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_run_simulates_cold_and_answers_warm_from_store(self, store):
        async def main():
            async with running_service(store) as svc:
                body = {"program": "trfd", "arch": "dva", "latency": 1, "scale": SCALE}
                cold = await request(svc.port, "POST", "/v1/run", body)
                warm = await request(svc.port, "POST", "/v1/run", body)
                return cold, warm, svc.service.scheduler.counters()

        (cold_status, cold), (warm_status, warm), counters = asyncio.run(main())
        assert cold_status == warm_status == 200
        assert cold["cached"] is False and warm["cached"] is True
        assert warm["total_cycles"] == cold["total_cycles"]
        assert counters["simulated"] == 1 and counters["store_hits"] == 1

    def test_sweep_lifecycle_cold_then_fully_warm(self, store):
        async def main():
            async with running_service(store) as svc:
                status, submitted = await request(svc.port, "POST", "/v1/sweeps", SWEEP_BODY)
                assert status == 202
                cold = await poll_until_settled(svc.port, submitted["sweep"])

                # Re-submit the identical sweep against a *pristine* service
                # whose cold paths are booby-trapped: if the warm sweep
                # builds a trace or dispatches a batch, it detonates.
                async with running_service(store) as warm_svc:
                    warm_svc.service.scheduler._pool.submit = _detonate
                    from repro.core.experiment import TraceCache

                    original = TraceCache.get
                    TraceCache.get = _detonate
                    try:
                        status, resubmitted = await request(
                            warm_svc.port, "POST", "/v1/sweeps", SWEEP_BODY
                        )
                        assert status == 202
                        warm = await poll_until_settled(warm_svc.port, resubmitted["sweep"])
                    finally:
                        TraceCache.get = original
                    return cold, warm, warm_svc.service.scheduler.counters()

        cold, warm, warm_counters = asyncio.run(main())
        assert cold["state"] == "done"
        assert cold["done"] == cold["total"] == 4
        assert cold["simulated"] == 4 and cold["cached"] == 0
        assert len(cold["results"]) == 4

        assert warm["state"] == "done"
        assert warm["cached"] == 4 and warm["simulated"] == 0
        assert warm_counters["store_hits"] == 4
        assert warm_counters["batches_dispatched"] == 0
        # Same cells, same answers.
        cycles = lambda payload: sorted(r["total_cycles"] for r in payload["results"])  # noqa: E731
        assert cycles(warm) == cycles(cold)

    def test_a_one_program_sweep_is_dealt_to_both_workers(self, store, two_cpus):
        async def main():
            async with running_service(store, jobs=2) as svc:
                _, submitted = await request(svc.port, "POST", "/v1/sweeps", SWEEP_BODY)
                final = await poll_until_settled(svc.port, submitted["sweep"])
                return final, svc.service.scheduler.counters()

        final, counters = asyncio.run(main())
        assert final["state"] == "done" and final["simulated"] == 4
        assert counters["batches_dispatched"] == 2

    def test_sweep_events_stream_replays_and_completes(self, store):
        async def main():
            async with running_service(store) as svc:
                _, submitted = await request(svc.port, "POST", "/v1/sweeps", SWEEP_BODY)
                reader, writer = await asyncio.open_connection("127.0.0.1", svc.port)
                writer.write(
                    f"GET {submitted['events_url']} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=30)
                writer.close()
                return raw.decode()

        raw = asyncio.run(main())
        assert "Transfer-Encoding: chunked" in raw
        data_lines = [line for line in raw.splitlines() if line.startswith("data: ")]
        # 4 progress events + the final done payload.
        assert len(data_lines) == 5
        assert "event: done" in raw
        events = [json.loads(line[len("data: "):]) for line in data_lines[:-1]]
        assert [event["done"] for event in events] == [1, 2, 3, 4]
        final = json.loads(data_lines[-1][len("data: "):])
        assert final["state"] == "done"

    def test_client_disconnect_mid_stream_does_not_kill_the_sweep(self, store):
        async def main():
            async with running_service(store) as svc:
                _, submitted = await request(svc.port, "POST", "/v1/sweeps", SWEEP_BODY)
                # Open the event stream and slam the connection shut at once.
                reader, writer = await asyncio.open_connection("127.0.0.1", svc.port)
                writer.write(
                    f"GET {submitted['events_url']} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
                )
                await writer.drain()
                await reader.read(64)  # the response head has started
                writer.close()
                # The sweep must still run to completion for other clients.
                return await poll_until_settled(svc.port, submitted["sweep"])

        final = asyncio.run(main())
        assert final["state"] == "done"
        assert final["done"] == 4

    def test_concurrent_identical_sweeps_share_simulations(self, store):
        async def main():
            async with running_service(store) as svc:
                submissions = await asyncio.gather(
                    request(svc.port, "POST", "/v1/sweeps", SWEEP_BODY),
                    request(svc.port, "POST", "/v1/sweeps", SWEEP_BODY),
                )
                finals = await asyncio.gather(
                    *(
                        poll_until_settled(svc.port, payload["sweep"])
                        for _status, payload in submissions
                    )
                )
                return finals, svc.service.scheduler.counters()

        finals, counters = asyncio.run(main())
        assert all(final["state"] == "done" for final in finals)
        # 8 cells requested across the two sweeps, only 4 distinct → the
        # duplicates joined in-flight simulations instead of re-running.
        assert counters["cells_requested"] == 8
        assert counters["simulated"] + counters["store_hits"] + counters["inflight_joins"] == 8
        assert counters["simulated"] == 4
        assert counters["inflight_joins"] + counters["store_hits"] == 4

    def test_sweep_listing_and_status_without_results(self, store):
        async def main():
            async with running_service(store) as svc:
                _, submitted = await request(svc.port, "POST", "/v1/sweeps", SWEEP_BODY)
                await poll_until_settled(svc.port, submitted["sweep"])
                listing = await request(svc.port, "GET", "/v1/sweeps")
                slim = await request(
                    svc.port, "GET", f"/v1/sweeps/{submitted['sweep']}?results=none"
                )
                return submitted, listing, slim

        submitted, (list_status, listing), (slim_status, slim) = asyncio.run(main())
        assert list_status == slim_status == 200
        assert [job["sweep"] for job in listing["sweeps"]] == [submitted["sweep"]]
        assert "results" not in listing["sweeps"][0]
        assert "results" not in slim and slim["state"] == "done"

    def test_stats_extends_the_cache_stats_payload(self, store):
        async def main():
            async with running_service(store) as svc:
                body = {"program": "trfd", "latency": 1, "scale": SCALE}
                await request(svc.port, "POST", "/v1/run", body)
                return await request(svc.port, "GET", "/v1/stats")

        status, payload = asyncio.run(main())
        assert status == 200
        # Exactly the `repro cache stats --json` keys...
        expected = store.stats()
        assert set(payload) == set(expected) | {"service"}
        assert payload["entry_count"] == 1
        # ...plus the service block with live counters.
        service = payload["service"]
        assert service["requests_served"] == 2
        assert service["sweeps_submitted"] == 0
        assert service["scheduler"]["simulated"] == 1

    @pytest.mark.parametrize(
        "method, path, body, status",
        [
            ("GET", "/v1/nope", None, 404),
            ("DELETE", "/v1/run", None, 405),
            ("GET", "/v1/sweeps/sw-missing", None, 404),
            ("POST", "/v1/run", {"program": "trfd", "latency": "x"}, 400),
            ("POST", "/v1/run", {"program": "no-such-program"}, 400),
            ("POST", "/v1/run", {"program": "trfd", "arch": "no-such-arch"}, 400),
            ("POST", "/v1/sweeps", {"programs": ["trfd"], "latencies": []}, 400),
            ("POST", "/v1/sweeps", {"programs": "trfd,trfd", "latencies": [1]}, 400),
            ("POST", "/v1/sweeps", {"programs": ["trfd"], "latencies": [1, 1]}, 400),
            (
                "POST",
                "/v1/sweeps",
                {"programs": ["trfd"], "latencies": [1], "axes": {"core": ["tick"]}},
                400,
            ),
            # json.dumps writes the NaN literal.  1e308, 1e30 and 1e4 pass the
            # protocol; planning counts their traces' rows, builds none, and
            # refuses them (1e308 overflows the count).
            ("POST", "/v1/run", {"program": "trfd", "scale": float("nan")}, 400),
            ("POST", "/v1/run", {"program": "trfd", "scale": 1e308}, 400),
            ("POST", "/v1/run", {"program": "trfd", "scale": 1e30}, 400),
            ("POST", "/v1/sweeps", {"programs": ["trfd"], "latencies": [1], "scale": 1e4}, 400),
            ("POST", "/v1/run", {"program": "trfd", "latency": float("nan")}, 400),
            ("POST", "/v1/sweeps", {"programs": ["trfd"], "latencies": [float("inf")]}, 400),
        ],
    )
    def test_errors_come_back_as_json_with_the_right_status(
        self, store, method, path, body, status
    ):
        async def main():
            async with running_service(store) as svc:
                return await request(svc.port, method, path, body)

        got_status, payload = asyncio.run(main())
        assert got_status == status
        assert payload["status"] == status and payload["error"]

    def test_an_oversized_trace_is_refused_at_admission(self, store):
        async def main():
            async with running_service(store) as svc:
                run = await request(svc.port, "POST", "/v1/run", {"program": "trfd", "scale": 1e30})
                body = {"programs": "trfd", "latencies": [1], "scale": 1e4}
                sweep = await request(svc.port, "POST", "/v1/sweeps", body)
                return run, sweep, svc.service.sweeps, svc.service.scheduler.counters()

        run, sweep, sweeps, counters = asyncio.run(main())
        for status, payload in (run, sweep):
            assert status == 400 and "rows, more than the" in payload["error"]
        assert sweeps == {} and counters["cells_requested"] == 0

    def test_keep_alive_serves_sequential_requests_on_one_connection(self, store):
        async def main():
            async with running_service(store) as svc:
                reader, writer = await asyncio.open_connection("127.0.0.1", svc.port)
                try:
                    for expect_close in (False, True):
                        connection = "close" if expect_close else "keep-alive"
                        writer.write(
                            (
                                f"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n"
                                f"Connection: {connection}\r\nContent-Length: 0\r\n\r\n"
                            ).encode()
                        )
                        await writer.drain()
                        head = await reader.readuntil(b"\r\n\r\n")
                        assert b"200 OK" in head
                        length = int(
                            [
                                line.split(b":")[1]
                                for line in head.splitlines()
                                if line.lower().startswith(b"content-length")
                            ][0]
                        )
                        body = await reader.readexactly(length)
                        assert json.loads(body)["status"] == "ok"
                    assert await reader.read() == b""  # server honoured close
                finally:
                    writer.close()

        asyncio.run(main())


def _detonate(*args, **kwargs):
    raise AssertionError("warm sweep took a cold path")


_run_program_cells = experiment._run_program_cells


def _slow_batch(task):
    """A worker's batch that takes a second longer than it should."""
    time.sleep(1.0)
    return _run_program_cells(task)


def _exit_worker(task):
    """A worker's batch that kills the worker."""
    os._exit(3)


class TestWorkerPath:
    """The event loop talks to the pool workers itself, and survives their death."""

    def test_a_cold_cell_starts_no_thread(self, store):
        async def main():
            before = set(threading.enumerate())
            async with running_service(store) as svc:
                body = {"program": "trfd", "arch": "dva", "latency": 1, "scale": SCALE}
                status, payload = await request(svc.port, "POST", "/v1/run", body)
                during = set(threading.enumerate())
            return before, during, status, payload

        before, during, status, payload = asyncio.run(main())
        assert status == 200 and payload["cached"] is False
        assert during == before

    def test_a_store_hit_is_answered_while_a_slow_batch_runs(self, store, monkeypatch):
        warm = {"program": "trfd", "arch": "dva", "latency": 1, "scale": SCALE}
        cold = {**warm, "latency": 50}
        Runner(jobs=1, store=store).run(
            SweepSpec(programs="trfd", latencies=(1,), architectures="dva", scale=SCALE)
        )
        monkeypatch.setattr(experiment, "_run_program_cells", _slow_batch)

        async def main():
            async with running_service(store) as svc:
                simulating = asyncio.ensure_future(request(svc.port, "POST", "/v1/run", cold))
                while not svc.service.scheduler.inflight_count:
                    await asyncio.sleep(0.005)
                hit = await request(svc.port, "POST", "/v1/run", warm)
                answered_first = not simulating.done()
                return hit, answered_first, await asyncio.wait_for(simulating, timeout=60)

        (hit_status, hit), answered_first, (cold_status, simulated) = asyncio.run(main())
        assert hit_status == cold_status == 200
        assert hit["cached"] is True and simulated["cached"] is False
        assert answered_first

    def test_a_dead_worker_answers_500_and_the_next_request_simulates(self, store, monkeypatch):
        body = {"program": "trfd", "arch": "dva", "latency": 1, "scale": SCALE}

        async def main():
            async with running_service(store) as svc:
                monkeypatch.setattr(experiment, "_run_program_cells", _exit_worker)
                failed = await asyncio.wait_for(request(svc.port, "POST", "/v1/run", body), 60)
                monkeypatch.setattr(experiment, "_run_program_cells", _run_program_cells)
                again = await asyncio.wait_for(request(svc.port, "POST", "/v1/run", body), 60)
                return failed, again

        (failed_status, failed), (status, simulated) = asyncio.run(main())
        assert failed_status == 500
        assert "exited with code 3" in failed["error"] and "TRFD" in failed["error"]
        assert status == 200 and simulated["cached"] is False
