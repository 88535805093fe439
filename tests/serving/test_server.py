"""End-to-end tests for the asyncio server and the blocking client."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.config import ServingConfig
from repro.exceptions import (
    AdmissionError,
    DeadlineExceededError,
    ProtocolError,
    ServingError,
    SessionNotFoundError,
)
from repro.serving import (
    RemoteSessionAdapter,
    RetryPolicy,
    ScriptedUser,
    ServerThread,
    ServingClient,
    SessionManager,
    session_fingerprint,
)
from repro.serving.client import ConnectionBrokenError, RemoteError
from repro.serving.protocol import MAX_LINE_BYTES, PROTOCOL_VERSION, decode_line


@pytest.fixture
def server(factory):
    """A live server over a fresh manager; stopped (and checkpointed) at exit."""
    manager = SessionManager(factory, max_resident=2)
    thread = ServerThread(
        manager, ServingConfig(explore_slo_s=30.0, label_slo_s=30.0)
    )
    host, port = thread.start()
    try:
        yield {"host": host, "port": port, "manager": manager, "thread": thread}
    finally:
        thread.stop()


@pytest.fixture
def client(server):
    with ServingClient(server["host"], server["port"]) as instance:
        yield instance


class TestControlPlane:
    def test_ping_reports_protocol_version(self, client):
        assert client.ping() == {"pong": True, "version": PROTOCOL_VERSION}

    def test_unknown_session_raises_locally(self, client):
        with pytest.raises(SessionNotFoundError):
            client.explore("ghost", batch_size=2)

    def test_malformed_line_gets_protocol_error_response(self, server):
        with socket.create_connection((server["host"], server["port"]), timeout=10) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"this is not json\n")
            handle.flush()
            from repro.serving.protocol import decode_line

            response = decode_line(handle.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"

    def test_request_without_id_rejected(self, server):
        with socket.create_connection((server["host"], server["port"]), timeout=10) as sock:
            handle = sock.makefile("rwb")
            handle.write(b'{"op": "ping"}\n')
            handle.flush()
            from repro.serving.protocol import decode_line

            response = decode_line(handle.readline())
            assert response["ok"] is False
            assert "id" in response["error"]["message"]

    def test_stats_exposes_manager_and_slo_sections(self, client):
        client.open("alice")
        client.explore("alice", batch_size=2)
        client.finish("alice")
        stats = client.stats()
        assert stats["manager"]["resident_count"] == 1
        assert stats["slo"]["classes"]["explore"]["count"] == 1
        # finish is accounted under the label class.
        assert stats["slo"]["classes"]["label"]["count"] == 1
        assert stats["slo"]["classes"]["explore"]["budget_s"] == 30.0


#: Keys of the ``stats`` reply's ``manager`` block besides ``resident``.
MANAGER_COUNTS = {
    "resident_count", "max_resident", "max_sessions", "sessions_on_disk",
    "creates", "restores", "evictions", "eviction_overshoots",
    "residency_sheds", "recovered_tail_labels", "quarantines",
    "deadline_rollbacks", "rollbacks", "rollback_failures",
}
#: Keys of one request class in the ``stats`` reply's ``slo`` block.
CLASS_KEYS = {
    "request_class", "count", "budget_s", "violations", "outcomes",
    "p50_s", "p99_s", "p999_s", "max_s", "mean_s",
}


class TestStatsReply:
    def test_stats_reply_pins_the_registry_roll_up(self, factory, stepping_clock):
        # Every server clock read advances 1 s: a request with no deadline
        # measures exactly 1 s, a 1.5 s deadline has expired by its
        # fast-fail check, and the 1000 s explore deadline never fires but
        # makes each explore read the clock once per scheduler boundary.
        manager = SessionManager(factory, max_resident=2)
        config = ServingConfig(
            explore_slo_s=30.0,
            label_slo_s=0.5,
            explore_deadline_s=1000.0,
            search_deadline_s=1.5,
        )
        thread = ServerThread(manager, config, clock=stepping_clock)
        host, port = thread.start()
        try:
            with ServingClient(host, port) as client:
                client.open("alice")
                for _ in range(2):
                    batch = client.explore("alice", batch_size=2)
                    labels = [
                        (s["vid"], s["start"], s["end"], factory.dataset.class_names[0])
                        for s in batch["segments"]
                    ]
                    client.label("alice", labels, finish=True)
                with pytest.raises(DeadlineExceededError, match="search"):
                    client.search("alice", clip=(0, 0.0, 1.0))
                with pytest.raises(SessionNotFoundError):
                    client.predict("ghost", 0, 0.0, 1.0)
                stats = client.stats()
        finally:
            thread.stop()

        counts = stats["manager"]
        assert set(counts) == MANAGER_COUNTS | {"resident"}
        assert all(type(counts[key]) is int for key in MANAGER_COUNTS)
        assert (counts["creates"], counts["quarantines"], counts["deadline_rollbacks"]) == (1, 0, 0)

        slo = stats["slo"]
        rows = slo["classes"]
        assert set(rows) == {"explore", "label", "search", "predict"}
        assert all(set(row) == CLASS_KEYS for row in rows.values())
        observed = {
            name: (row["count"], row["outcomes"], row["violations"], row["budget_s"])
            for name, row in rows.items()
        }
        assert observed == {
            "explore": (2, {"ok": 2}, 0, 30.0),
            "label": (2, {"ok": 2}, 2, 0.5),
            "search": (1, {"deadline": 1}, 0, None),
            "predict": (1, {"error": 1}, 0, None),
        }
        assert (slo["requests"], slo["violations"]) == (6, 2)
        assert rows["label"]["p50_s"] == rows["label"]["max_s"] == 1.0
        assert rows["search"]["p999_s"] == rows["search"]["mean_s"] == 2.0
        for name, row in rows.items():
            latency = manager.metrics.histogram(f"serving.latency_s.{name}").summary()
            assert latency["max"] == row["max_s"]
            assert latency["min"] <= row["p50_s"] <= row["p99_s"] <= row["p999_s"] <= row["max_s"]


class TestProtocolLimits:
    def test_oversized_frame_gets_typed_error_before_disconnect(self, server):
        # The client's own encode_message would refuse such a frame, so a raw
        # socket plays the misbehaving peer here.
        with socket.create_connection((server["host"], server["port"]), timeout=10) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"x" * (MAX_LINE_BYTES + 1024) + b"\n")
            handle.flush()
            response = decode_line(handle.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert f"frame exceeds {MAX_LINE_BYTES} bytes" in response["error"]["message"]
            # Framing is lost, so the server must then drop the connection.
            assert handle.readline() == b""


class TestSessionOps:
    def test_full_explore_label_cycle(self, client, dataset):
        client.open("alice")
        batch = client.explore("alice", batch_size=3)
        assert batch["iteration"] == 1
        assert len(batch["segments"]) == 3
        ack = client.label(
            "alice",
            [(s["vid"], s["start"], s["end"], dataset.class_names[0]) for s in batch["segments"]],
            finish=True,
        )
        assert ack == {"stored": 3, "durable": True, "finished": True}
        summary = client.open("alice")
        assert summary["iteration"] == 1
        assert summary["labels"] == 3

    def test_search_and_predict_round_trip(self, client, dataset):
        client.open("alice")
        batch = client.explore("alice", batch_size=2)
        client.label(
            "alice",
            [(s["vid"], s["start"], s["end"], dataset.class_names[0]) for s in batch["segments"]],
            finish=True,
        )
        clip = batch["segments"][0]
        hits = client.search("alice", clip=(clip["vid"], clip["start"], clip["end"]), k=3)
        assert len(hits["hits"]) == 3
        assert all(h["distance"] >= 0 for h in hits["hits"])
        prediction = client.predict("alice", clip["vid"], clip["start"], clip["end"])
        assert len(prediction["segments"]) >= 1

    def test_close_pages_session_to_disk(self, client, server):
        client.open("alice")
        assert server["manager"].is_resident("alice")
        client.close_session("alice")
        assert not server["manager"].is_resident("alice")
        # Still reachable: the next request restores it from disk.
        assert client.open("alice")["session"] == "alice"

    def test_label_validation_errors_are_protocol_errors(self, client):
        client.open("alice")
        with pytest.raises(ProtocolError, match="labels"):
            client._call("label", session="alice", labels=[])
        with pytest.raises(ProtocolError, match="label entries"):
            client._call("label", session="alice", labels=["nope"])

    def test_application_errors_surface_as_remote_errors(self, client):
        client.open("alice")
        # Finishing with no open iteration is a session-level error.
        with pytest.raises(RemoteError):
            client.finish("alice")


class TestAdmissionControl:
    def test_overload_sheds_with_admission_error(self, factory, monkeypatch):
        manager = SessionManager(factory, max_resident=2)
        thread = ServerThread(
            manager, ServingConfig(max_queue_depth=1, worker_threads=2)
        )
        release = threading.Event()
        original = thread.server._execute

        def slow_execute(op, doc, deadline=None):
            if doc.get("slow"):
                release.wait(30)
            return original(op, doc, deadline)

        monkeypatch.setattr(thread.server, "_execute", slow_execute)
        host, port = thread.start()
        try:
            with ServingClient(host, port) as blocker, ServingClient(host, port) as probe:
                result: dict = {}

                def occupy():
                    result["slow"] = blocker._call("ping", slow=True)

                worker = threading.Thread(target=occupy)
                worker.start()
                deadline = time.time() + 10
                while thread.server._inflight < 1 and time.time() < deadline:
                    time.sleep(0.01)
                with pytest.raises(AdmissionError, match="overloaded"):
                    probe.ping()
                release.set()
                worker.join(30)
                assert result["slow"]["pong"] is True
                # Capacity is back: the same client is served now.
                assert probe.ping()["pong"] is True
        finally:
            release.set()
            thread.stop()


class TestControlPlaneUnderLoad:
    def test_ping_stats_shutdown_stay_responsive_under_load(self, factory, dataset):
        """Control traffic keeps answering while scripted users saturate the
        pool, and a shutdown issued at the end drains cleanly."""
        manager = SessionManager(factory, max_resident=2)
        thread = ServerThread(
            manager, ServingConfig(worker_threads=2, max_queue_depth=8)
        )
        host, port = thread.start()

        def policy() -> RetryPolicy:
            return RetryPolicy(max_attempts=6, base_delay_s=0.02, max_delay_s=0.2, seed=3)

        users = [
            ScriptedUser(name, seed, dataset.class_names, cycles=2)
            for seed, name in enumerate(("alice", "bob"))
        ]
        errors: list[Exception] = []

        def drive(user: ScriptedUser) -> None:
            try:
                with ServingClient(host, port, timeout=30.0, retry=policy()) as c:
                    c.open(user.name)
                    user.run(RemoteSessionAdapter(c, user.name))
            except Exception as exc:  # surfaced to the main thread below
                errors.append(exc)

        workers = [threading.Thread(target=drive, args=(user,)) for user in users]
        try:
            for worker in workers:
                worker.start()
            with ServingClient(host, port, timeout=30.0, retry=policy()) as control:
                probes = 0
                while any(worker.is_alive() for worker in workers):
                    assert control.ping()["pong"] is True
                    stats = control.stats()
                    assert stats["manager"]["resident_count"] <= 2
                    probes += 1
                    time.sleep(0.05)
                assert probes >= 1, "the load finished before a single probe ran"
                for worker in workers:
                    worker.join(60)
                assert not errors, f"scripted users failed under load: {errors}"
                assert control.shutdown() == {"stopping": True}
            assert thread.wait(30)
        finally:
            for worker in workers:
                worker.join(60)
        # The drain checkpointed every session the load created.
        for user in users:
            assert factory.exists(user.name)


class TestHungShutdown:
    def test_stop_raises_loudly_when_the_loop_thread_hangs(self, factory, monkeypatch):
        manager = SessionManager(factory, max_resident=2)
        thread = ServerThread(
            manager, ServingConfig(worker_threads=1, drain_timeout_s=0.1)
        )
        release = threading.Event()
        original = thread.server._execute

        def stuck_execute(op, doc, deadline=None):
            if doc.get("stuck"):
                release.wait(30)
            return original(op, doc, deadline)

        monkeypatch.setattr(thread.server, "_execute", stuck_execute)
        host, port = thread.start()
        client = ServingClient(host, port)
        worker = threading.Thread(target=lambda: client._call("ping", stuck=True))
        try:
            worker.start()
            deadline = time.time() + 10
            while thread.server._inflight < 1 and time.time() < deadline:
                time.sleep(0.01)
            # The lone worker thread is wedged, so the drain cannot finish:
            # stop() must fail loudly instead of silently abandoning sessions.
            with pytest.raises(ServingError, match="failed to stop"):
                thread.stop(timeout=0.5)
        finally:
            release.set()
            worker.join(30)
            client.close()
        # Unwedged, the already-requested shutdown completes cleanly.
        assert thread.wait(30)


class TestBrokenConnectionRecovery:
    def test_mid_reply_timeout_marks_broken_and_reconnects(self, factory, monkeypatch):
        manager = SessionManager(factory, max_resident=2)
        thread = ServerThread(manager, ServingConfig(worker_threads=2))
        original = thread.server._execute

        def dawdling_execute(op, doc, deadline=None):
            if doc.get("dawdle"):
                time.sleep(0.8)  # longer than the client's socket timeout
            return original(op, doc, deadline)

        monkeypatch.setattr(thread.server, "_execute", dawdling_execute)
        host, port = thread.start()
        try:
            with ServingClient(host, port, timeout=0.3) as client:
                assert client.ping()["pong"] is True
                with pytest.raises(ConnectionBrokenError, match="timed out"):
                    client._call("ping", dawdle=True)
                # The stream still holds the late reply; reusing it would
                # answer the wrong request, so the connection is poisoned...
                assert client._broken
                # ...and the next call transparently reconnects.
                assert client.ping()["pong"] is True
                assert client.reconnects == 1
        finally:
            thread.stop()


class TestRestartRecovery:
    def test_restarted_server_recovers_every_session(self, dataset, factory):
        users = {
            name: ScriptedUser(name, seed, dataset.class_names, cycles=2)
            for seed, name in enumerate(("alice", "bob", "carol"))
        }
        manager = SessionManager(factory, max_resident=2)
        thread = ServerThread(manager, ServingConfig())
        host, port = thread.start()
        fingerprints = {}
        try:
            with ServingClient(host, port) as client:
                for name, user in users.items():
                    client.open(name)
                    user.run(RemoteSessionAdapter(client, name))
            for name in users:
                with manager.acquire(name) as vocal:
                    fingerprints[name] = session_fingerprint(vocal)
        finally:
            thread.stop()  # graceful: checkpoints every session

        manager = SessionManager(factory, max_resident=2)
        thread = ServerThread(manager, ServingConfig())
        host, port = thread.start()
        try:
            with ServingClient(host, port) as client:
                stats = client.stats()
                assert stats["manager"]["sessions_on_disk"] == 3
                for name in users:
                    client.open(name)
            for name in users:
                with manager.acquire(name) as vocal:
                    assert session_fingerprint(vocal) == fingerprints[name], (
                        f"{name} did not survive the restart bit-identically"
                    )
        finally:
            thread.stop()

    def test_shutdown_op_stops_the_server(self, factory):
        manager = SessionManager(factory, max_resident=2)
        thread = ServerThread(manager, ServingConfig())
        host, port = thread.start()
        with ServingClient(host, port) as client:
            client.open("alice")
            assert client.shutdown() == {"stopping": True}
        assert thread.wait(30)
        # Graceful shutdown checkpointed the session.
        assert factory.exists("alice")
        with pytest.raises(ServingError):
            manager.open("alice")  # manager is closed
