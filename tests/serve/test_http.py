"""Latency of the HTTP front end's replies over keep-alive connections.

Every reply is written in several pieces (headers, then the body or each
chunk).  With Nagle's algorithm on the accepted socket, each piece after the
first waits for the client's delayed ACK, so a keep-alive round trip costs at
least Linux's 40 ms delayed-ACK floor.  The front end runs its connections
with ``TCP_NODELAY``; these tests pin that a sequential keep-alive request
returns well under that floor.
"""

import http.client
import json
import statistics
import time

import pytest

from repro.serve import InferenceServer, ModelRepository, StreamPolicy, serve_http

# Well under the 40 ms delayed-ACK floor, well over a local round trip.
STALL_FREE_MS = 20.0


def _median_round_trip_ms(front, requests, send):
    """Median wall time of ``send(conn)`` over one keep-alive connection."""
    conn = http.client.HTTPConnection(*front.address, timeout=60.0)
    try:
        times = []
        for _ in range(requests):
            start = time.perf_counter()
            send(conn)
            times.append((time.perf_counter() - start) * 1e3)
        return statistics.median(times)
    finally:
        conn.close()


def test_healthz_keep_alive_round_trip_has_no_delayed_ack_stall(tmp_path):
    server = InferenceServer(ModelRepository(tmp_path / "repo"))
    front = serve_http(server, port=0)

    def healthz(conn):
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        json.loads(response.read())

    try:
        median_ms = _median_round_trip_ms(front, 25, healthz)
    finally:
        front.close()
        server.close()
    assert median_ms < STALL_FREE_MS


@pytest.fixture()
def stream_front(repo):
    # A pinned crossover spares the pipeline build its timing measurement.
    server = InferenceServer(repo, stream=StreamPolicy(crossover=0.9))
    front = serve_http(server, port=0)
    yield front
    front.close()
    server.close()


def test_stream_keep_alive_round_trip_has_no_delayed_ack_stall(stream_front, served):
    frame = served.batch[0].tolist()
    session = {}

    def stream(conn):
        payload = {"frames": frame}
        if session:
            payload["session"] = session["id"]
        conn.request(
            "POST", "/v1/models/resnet_s/stream", body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        session["id"] = response.getheader("X-Stream-Session")
        (line,) = [json.loads(l) for l in response.read().splitlines() if l]
        session.setdefault("modes", []).append(line["mode"])

    # The first request computes the full frame; every repeat of the same
    # frame through the session is a memoized "cached" answer, so the round
    # trip is almost all HTTP.
    median_ms = _median_round_trip_ms(stream_front, 25, stream)
    assert session["modes"][0] == "full"
    assert set(session["modes"][1:]) == {"cached"}
    assert median_ms < STALL_FREE_MS
