"""HTTP front end: round trips, micro-batching, telemetry, kill-and-restart.

Each test spins the asyncio server on an ephemeral port inside
``asyncio.run`` — client and server share one event loop, exactly how the
throughput benchmark drives it.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.data.interactions import InteractionDataset
from repro.models import BPRMF
from repro.serving import (
    RecommendServer,
    RecommendService,
    ScoreIndex,
    ServingClient,
)
from repro.store import ArtifactStore
from repro.utils.telemetry import RunLogger, read_run_log

NUM_USERS, NUM_ITEMS = 30, 25


@pytest.fixture(scope="module")
def index():
    rng = np.random.default_rng(1)
    train = InteractionDataset(
        rng.integers(0, NUM_USERS, 400), rng.integers(0, NUM_ITEMS, 400),
        NUM_USERS, NUM_ITEMS,
    )
    # Untrained embeddings rank deterministically — fine for protocol tests.
    return ScoreIndex.from_model(BPRMF(NUM_USERS, NUM_ITEMS, dim=8, seed=2), train)


def run_with_server(index, scenario, **server_kw):
    """Start a server, run ``scenario(client, server)``, tear down."""

    async def main():
        service = RecommendService(index)
        server = RecommendServer(service, port=0, **server_kw)
        host, port = await server.start()
        try:
            async with ServingClient(host, port) as client:
                return await scenario(client, server)
        finally:
            await server.stop()

    return asyncio.run(main())


async def read_response(reader):
    """``(status, JSON body)`` of one response read off a raw connection."""
    status_line = await reader.readline()
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while (line := await reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


def get_request(target):
    return f"GET {target} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii")


class TestHttpRoutes:
    def test_healthz_stats_and_recommend(self, index):
        async def scenario(client, server):
            status, body = await client.get("/healthz")
            assert (status, body) == (200, {"ok": True})
            status, body = await client.recommend(user=3, k=5)
            assert status == 200 and body["user"] == 3
            expect = server.service.recommend_one({"user": 3, "k": 5})
            assert body["items"] == expect["items"]
            assert body["scores"] == expect["scores"]
            status, body = await client.get("/stats")
            assert status == 200 and body["requests_served"] >= 2
            return True

        assert run_with_server(index, scenario)

    def test_foldin_round_trip(self, index):
        async def scenario(client, server):
            status, body = await client.fold_in([1, 2, 3])
            assert status == 200
            handle = body["handle"]
            status, body = await client.recommend(handle=handle, k=5)
            assert status == 200 and body["handle"] == handle
            assert not {1, 2, 3} & set(body["items"])
            # More observed interactions → new handle, different recs.
            status, body2 = await client.fold_in([1, 2, 3, 10, 11, 12])
            assert body2["handle"] != handle
            status, more = await client.recommend(handle=body2["handle"], k=5)
            assert more["items"] != body["items"]
            return True

        assert run_with_server(index, scenario)

    def test_error_statuses(self, index):
        async def scenario(client, server):
            cases = [
                ("GET", f"/recommend?user={NUM_USERS}&k=5", None, 400),
                ("GET", "/recommend?user=0&k=0", None, 400),
                ("GET", "/recommend?user=0&handle=x&k=5", None, 400),
                ("GET", "/recommend?user=abc&k=5", None, 400),
                ("GET", "/recommend?handle=foldin-nope&k=5", None, 400),
                ("POST", "/foldin", {"items": "nope"}, 400),
                ("POST", "/foldin", {"items": [0, NUM_ITEMS]}, 400),
                ("POST", "/foldin", {}, 400),
                ("GET", "/nope", None, 404),
            ]
            for method, path, payload, expect in cases:
                status, body = await client.request(method, path, payload)
                assert status == expect, (method, path, status, body)
                assert "error" in body
            # The connection survives error responses (keep-alive).
            status, _ = await client.get("/healthz")
            assert status == 200
            return True

        assert run_with_server(index, scenario)

    def test_malformed_content_length_answers_400(self, index, caplog):
        """A non-numeric or negative Content-Length gets a 400 and a close,
        never an empty close; the server keeps serving new connections.  An
        over-long digit string is a body too large, not a crash."""

        async def scenario(client, server):
            cases = [
                (b"abc", "malformed Content-Length"),
                (b"-5", "malformed Content-Length"),
                (b"9" * 5000, "body too large"),
            ]
            for value, error in cases:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(
                    b"POST /foldin HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()  # the server closes after answering
                writer.close()
                await writer.wait_closed()
                head, _, body = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), (value[:8], raw)
                assert json.loads(body) == {"error": error}
            status, _ = await client.get("/healthz")
            assert status == 200
            return True

        with caplog.at_level("ERROR", logger="asyncio"):
            assert run_with_server(index, scenario)
        assert not caplog.records

    def test_foldin_id_past_int64_answers_400(self, index, caplog):
        """An item id too large for int64 is out of range like any other:
        a 400 with the range message, and the server keeps serving."""

        async def scenario(client, server):
            status, body = await client.fold_in([1, 10**29])
            assert status == 400
            assert body == {
                "error": f"fold-in item ids outside [0, {NUM_ITEMS}): [{10**29}]"
            }
            async with ServingClient(server.host, server.port) as fresh:
                status, _ = await fresh.get("/healthz")
                assert status == 200
            return True

        with caplog.at_level("ERROR", logger="asyncio"):
            assert run_with_server(index, scenario)
        assert not caplog.records

    def test_over_long_head_answers_400(self, index, caplog):
        """A request line or header past the 64 KiB head cap gets a 400 and
        a close, whether the head is still open or already complete; the
        server keeps serving new connections."""

        async def scenario(client, server):
            long = b"a" * 70_000
            cases = [
                b"GET /" + long,  # request line, no newline yet
                b"GET /healthz HTTP/1.1\r\nX-Long: " + long,  # open header
                b"GET /healthz HTTP/1.1\r\nX-Long: " + long + b"\r\n\r\n",
            ]
            for raw_request in cases:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(raw_request)
                await writer.drain()
                raw = await reader.read()  # the server closes after answering
                writer.close()
                await writer.wait_closed()
                head, _, body = raw.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), raw[:80]
                assert json.loads(body) == {"error": "request head too large"}
            status, _ = await client.get("/healthz")
            assert status == 200
            return True

        with caplog.at_level("ERROR", logger="asyncio"):
            assert run_with_server(index, scenario)
        assert not caplog.records

    def test_handler_fault_answers_500(self, index, caplog):
        """A route or a batch that raises something other than a client
        error answers 500 with the exception, logs its traceback, and the
        connection keeps serving."""

        async def scenario(client, server):
            def broken(*args):
                raise RuntimeError("store offline")

            server.service.fold_in = broken
            server.service.recommend_many = broken
            for answer in (client.fold_in([1, 2]), client.recommend(user=0, k=3)):
                status, body = await answer
                assert (status, body) == (500, {"error": "RuntimeError: store offline"})
            status, _ = await client.get("/healthz")
            assert status == 200
            return True

        with caplog.at_level("ERROR", logger="repro.serving.server"):
            assert run_with_server(index, scenario)
        assert [r.exc_info[0] for r in caplog.records] == [RuntimeError, RuntimeError]

    def test_pipelined_requests_answer_in_order(self, index):
        """Two requests in one write come back in order on one connection."""

        async def scenario(client, server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(get_request("/recommend?user=3&k=5") + get_request("/healthz"))
            await writer.drain()
            first = await read_response(reader)
            second = await read_response(reader)
            writer.close()
            await writer.wait_closed()
            expect = server.service.recommend_one({"user": 3, "k": 5})
            assert first == (200, expect)
            assert second == (200, {"ok": True})
            return True

        assert run_with_server(index, scenario)

    def test_keep_alive_many_requests_one_connection(self, index):
        async def scenario(client, server):
            for i in range(20):
                status, body = await client.recommend(user=i % NUM_USERS, k=4)
                assert status == 200
            return True

        assert run_with_server(index, scenario)


class TestMicroBatching:
    def test_concurrent_requests_coalesce(self, index):
        """Concurrent clients produce at least one multi-request batch, and
        every coalesced response equals its single-request twin."""

        async def main():
            service = RecommendService(index)
            server = RecommendServer(service, port=0, max_batch=32)
            host, port = await server.start()
            clients = [await ServingClient(host, port).connect() for _ in range(12)]

            async def burst(client, worker):
                out = []
                for j in range(5):
                    status, body = await client.recommend(
                        user=(worker * 5 + j) % NUM_USERS, k=5
                    )
                    assert status == 200
                    out.append(body)
                return out

            try:
                results = await asyncio.gather(
                    *[burst(c, i) for i, c in enumerate(clients)]
                )
            finally:
                for c in clients:
                    await c.close()
                await server.stop()
            return service, results

        service, results = asyncio.run(main())
        stats = service.stats()
        assert stats["requests_served"] == 60
        assert stats["max_batch"] > 1, "no request coalescing happened"
        assert stats["batches"] < stats["requests_served"]
        # Batched results == single-request scoring, bit for bit.
        fresh = RecommendService(index)
        for worker, batch in enumerate(results):
            for j, body in enumerate(batch):
                user = (worker * 5 + j) % NUM_USERS
                expect = fresh.recommend_one({"user": user, "k": 5})
                assert body["items"] == expect["items"]
                assert body["scores"] == expect["scores"]

    def test_max_batch_cap_respected(self, index):
        async def main():
            service = RecommendService(index)
            server = RecommendServer(service, port=0, max_batch=3)
            host, port = await server.start()
            clients = [await ServingClient(host, port).connect() for _ in range(8)]
            try:
                await asyncio.gather(
                    *[c.recommend(user=i, k=4) for i, c in enumerate(clients)]
                )
            finally:
                for c in clients:
                    await c.close()
                await server.stop()
            return service.stats()

        stats = asyncio.run(main())
        assert stats["max_batch"] <= 3


    def test_client_gone_mid_batch(self, index, caplog):
        """A client that closes while its /recommend is pending in a batch
        does not change the other members' answers, and the server keeps
        serving without logging an error."""

        async def main():
            service = RecommendService(index)
            server = RecommendServer(service, port=0, max_batch=32)
            host, port = await server.start()
            conns = [await asyncio.open_connection(host, port) for _ in range(5)]
            try:
                for reader, writer in conns:  # every connection is accepted
                    writer.write(get_request("/healthz"))
                    assert await read_response(reader) == (200, {"ok": True})
                # All five requests reach the server before it runs again,
                # so they join one flush; the first client is gone by then.
                for user, (_, writer) in enumerate(conns):
                    writer.write(get_request(f"/recommend?user={user}&k=5"))
                conns[0][1].close()
                answers = [await read_response(reader) for reader, _ in conns[1:]]
                for _, writer in conns[1:]:
                    writer.close()
                async with ServingClient(host, port) as client:
                    after = await client.recommend(user=7, k=5)
            finally:
                await server.stop()
            return service, answers, after

        with caplog.at_level("ERROR", logger="asyncio"):
            service, answers, after = asyncio.run(main())
        assert not caplog.records
        assert service.stats()["max_batch"] >= 4
        fresh = RecommendService(index)
        for user, answer in enumerate(answers, start=1):
            assert answer == (200, fresh.recommend_one({"user": user, "k": 5}))
        assert after == (200, fresh.recommend_one({"user": 7, "k": 5}))

    def test_stop_closes_idle_keep_alive_connection(self, index):
        """``stop()`` returns promptly with an idle keep-alive client still
        connected, and that client sees the connection close."""

        async def main():
            server = RecommendServer(RecommendService(index), port=0)
            host, port = await server.start()
            async with ServingClient(host, port) as client:
                status, _ = await client.get("/healthz")
                assert status == 200
                await asyncio.wait_for(server.stop(), timeout=5)
                return await asyncio.wait_for(client._reader.read(), timeout=5)

        assert asyncio.run(main()) == b""


class TestTelemetry:
    def test_request_and_batch_events_logged(self, index, tmp_path):
        log_path = tmp_path / "serve.jsonl"

        async def scenario(client, server):
            await client.recommend(user=0, k=5)
            await client.fold_in([1, 2])
            await client.get("/nope")
            return True

        logger = RunLogger(log_path, run_id="serve-test")
        try:
            run_with_server(index, scenario, logger=logger)
        finally:
            logger.close()
        events = read_run_log(log_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "serve_start"
        assert kinds[-1] == "serve_stop"
        requests = [e for e in events if e["event"] == "request"]
        assert [(r["path"], r["status"]) for r in requests] == [
            ("/recommend", 200),
            ("/foldin", 200),
            ("/nope", 404),
        ]
        assert all(r["run_id"] == "serve-test" for r in requests)
        assert any(e["event"] == "batch" and e["size"] >= 1 for e in events)


class TestKillAndRestart:
    def test_restart_from_store_without_dataset(self, index, tmp_path):
        """Freeze → serve → kill → restart from the artifact store alone.

        The second server is built purely from ``ScoreIndex.by_digest`` —
        no model object, no InteractionDataset — and must answer every
        request byte-identically to the first one.
        """
        store = ArtifactStore(tmp_path / "store")
        artifact = index.save(store, {"model": "BPRMF", "seed": 2})
        digest = artifact.digest[:16]

        async def collect(idx):
            service = RecommendService(idx)
            server = RecommendServer(service, port=0)
            host, port = await server.start()
            try:
                async with ServingClient(host, port) as client:
                    out = []
                    for u in range(10):
                        status, body = await client.recommend(user=u, k=5)
                        assert status == 200
                        out.append(body)
                    status, fold = await client.fold_in([1, 2, 3])
                    assert status == 200
                    status, fold_rec = await client.recommend(
                        handle=fold["handle"], k=5
                    )
                    out.append(fold_rec)
                    return out
            finally:
                await server.stop()

        before = asyncio.run(collect(ScoreIndex.by_digest(store, digest)))
        # "Kill": nothing survives but the store directory.
        reloaded = ScoreIndex.by_digest(store, digest)
        assert reloaded is not None
        after = asyncio.run(collect(reloaded))
        assert json.dumps(before, sort_keys=True) == json.dumps(after, sort_keys=True)

    def test_corrupt_store_entry_is_a_miss(self, index, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        artifact = index.save(store, {"model": "BPRMF"})
        (artifact.path / "user_vecs.npy").write_bytes(b"garbage")
        assert ScoreIndex.by_digest(store, artifact.digest[:16]) is None
