"""End-to-end daemon tests: serve, query, stats, re-mine, degrade."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.core.apriori import Apriori
from repro.core.rules import rules_from_result
from repro.data.io import write_dat
from repro.serve import (
    CallableSource,
    DatFileSource,
    JournalSource,
    RuleClient,
    RuleServer,
    ServerError,
    StreamingSource,
)

MIN_CONFIDENCE = 0.4


@pytest.fixture
def serving(supermarket_db):
    """A running server over the supermarket DB + a connected client."""
    source = CallableSource(
        lambda: Apriori(0.2).mine(supermarket_db), "supermarket"
    )
    with RuleServer(source, min_confidence=MIN_CONFIDENCE, port=0) as server:
        host, port = server.address
        with RuleClient(host, port, timeout=5.0) as client:
            yield server, client


class TestQueryPath:
    def test_ping(self, serving):
        _, client = serving
        assert client.ping() == 1

    def test_query_matches_direct_index(self, serving, supermarket_db):
        server, client = serving
        basket = list(supermarket_db)[0][:2]
        reply = client.query(basket)
        direct = server.index.query(list(basket))
        assert reply.generation == 1
        assert reply.suggestions == direct

    def test_known_rule_comes_back(self, serving, supermarket_db):
        # The paper's worked example: the supermarket DB has confident
        # rules, so a full transaction minus one item suggests something.
        server, client = serving
        result = Apriori(0.2).mine(supermarket_db)
        rules = rules_from_result(result, MIN_CONFIDENCE)
        assert rules, "fixture DB must produce rules"
        rule = rules[0]
        reply = client.query(list(rule.antecedent))
        assert rule.consequent[0] in reply.items

    def test_bad_requests_are_errors_not_disconnects(self, serving):
        _, client = serving
        with pytest.raises(ServerError):
            client.query([])
        reply = client.request({"op": "no-such-op"})
        assert reply["status"] == "error"
        # The connection survives an error reply.
        assert client.ping() == 1
        assert client.last_retries == 0

    def test_json_booleans_are_not_integers(self, serving):
        # json decodes true/false to bool, which isinstance(x, int) accepts.
        _, client = serving
        for request in (
            {"op": "query", "basket": [True]},
            {"op": "query", "basket": [1, 2], "top": True},
        ):
            reply = client.request(request)
            assert reply["status"] == "error"
            assert "basket" not in reply
        stats = client.stats()
        assert stats.failed_queries == 2
        assert stats.queries == 0

    def test_malformed_line_gets_error_reply(self, serving):
        server, _ = serving
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["status"] == "error"

    def test_stats_counts_queries(self, serving):
        _, client = serving
        for _ in range(5):
            client.query([1, 2])
        stats = client.stats()
        assert stats.queries == 5
        assert stats.failed_queries == 0
        assert stats.query_p50_ms >= 0.0
        assert stats.query_p99_ms >= stats.query_p50_ms >= 0.0
        assert stats.generation == 1
        assert stats.model["num_rules"] >= 1


class TestHttpFacade:
    def read_http(self, server, path):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(
                f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode()
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, json.loads(body)

    def test_get_stats(self, serving):
        server, _ = serving
        status, payload = self.read_http(server, "/stats")
        assert status == 200
        assert payload["generation"] == 1

    def test_get_query(self, serving, supermarket_db):
        server, _ = serving
        basket = list(supermarket_db)[0]
        path = "/query?basket=" + ",".join(map(str, basket[:2]))
        status, payload = self.read_http(server, path)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["basket"] == sorted(set(basket[:2]))

    def test_get_unknown_path_is_404(self, serving):
        server, _ = serving
        status, payload = self.read_http(server, "/nope")
        assert status == 404
        assert payload["status"] == "error"


class TestRemineSwap:
    def test_generation_advances(self, serving):
        _, client = serving
        reply = client.remine(wait=True)
        assert reply["status"] == "ok"
        assert reply["generation"] == 2
        assert reply["remine_failures"] == 0
        assert client.ping() == 2

    def test_concurrent_remine_reports_busy(self, supermarket_db):
        release = threading.Event()

        def slow_mine():
            release.wait(10.0)
            return Apriori(0.2).mine(supermarket_db)

        source = CallableSource(slow_mine, "slow")
        # start() mines once synchronously; let that one through fast.
        release.set()
        with RuleServer(source, min_confidence=0.4, port=0) as server:
            release.clear()
            host, port = server.address
            with RuleClient(host, port, timeout=5.0) as client:
                first = client.remine(wait=False)
                assert first["status"] == "ok" and first["started"]
                second = client.remine(wait=False)
                assert second["status"] == "busy"
                stats = client.stats()
                assert stats.remine_in_progress
                release.set()
                done = client.remine(wait=True)
                assert done["generation"] >= 2

    def test_failed_remine_keeps_serving_old_model(self, supermarket_db):
        calls = {"n": 0}

        def flaky_mine():
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("store vanished mid-remine")
            return Apriori(0.2).mine(supermarket_db)

        source = CallableSource(flaky_mine, "flaky")
        with RuleServer(source, min_confidence=0.4, port=0) as server:
            host, port = server.address
            with RuleClient(host, port, timeout=5.0) as client:
                before = client.query([list(supermarket_db)[0][0]])
                reply = client.remine(wait=True)
                # Degradation contract: generation did NOT advance, the
                # failure is surfaced, queries still answer identically.
                assert reply["generation"] == 1
                assert reply["remine_failures"] == 1
                assert "store vanished" in reply["last_remine_error"]
                after = client.query([list(supermarket_db)[0][0]])
                assert after.generation == 1
                assert after.suggestions == before.suggestions
                stats = client.stats()
                assert stats.remine_failures == 1
                assert stats.failed_queries == 0
                assert "store vanished" in stats.last_remine_error


class TestPeriodicRemine:
    def test_timer_drives_generations(self, supermarket_db):
        source = CallableSource(
            lambda: Apriori(0.2).mine(supermarket_db), "timer"
        )
        server = RuleServer(
            source, min_confidence=0.4, port=0, remine_every=0.05
        )
        with server:
            host, port = server.address
            with RuleClient(host, port, timeout=5.0) as client:
                deadline = threading.Event()
                for _ in range(100):
                    if client.ping() >= 3:
                        break
                    deadline.wait(0.05)
                assert client.ping() >= 3
        assert server.stats.snapshot()["remine_failures"] == 0


class TestSources:
    def test_dat_file_source(self, tmp_path, supermarket_db):
        path = tmp_path / "db.dat"
        write_dat(supermarket_db, path)
        source = DatFileSource(path, 0.2)
        result = source.mine()
        assert result.frequent == Apriori(0.2).mine(supermarket_db).frequent
        assert str(path) in source.describe()

    def test_streaming_source(self, supermarket_db):
        rows = [list(t) for t in supermarket_db]
        source = StreamingSource(lambda: iter(rows), 0.2, label="rows")
        result = source.mine()
        assert result.frequent == Apriori(0.2).mine(supermarket_db).frequent
        assert "rows" in source.describe()

    def test_journal_source_restores_without_mining(
        self, tmp_path, supermarket_db
    ):
        from repro.parallel.native import NativeCountDistribution

        miner = NativeCountDistribution(
            0.2, 2, checkpoint_dir=tmp_path / "ckpt"
        )
        mined = miner.mine(supermarket_db)
        source = JournalSource(tmp_path / "ckpt")
        restored = source.mine()
        assert restored.frequent == mined.frequent
        assert restored.num_transactions == mined.num_transactions

    def test_journal_source_missing_journal_raises(self, tmp_path):
        from repro.checkpoint import CheckpointError

        with pytest.raises(CheckpointError):
            JournalSource(tmp_path / "nowhere").mine()

    def test_store_source_native_remine(self, tmp_path, supermarket_db):
        from repro.core.mmapdb import write_packed_file

        store = tmp_path / "db.packed"
        write_packed_file(supermarket_db.to_packed(), store)
        from repro.serve import StoreSource

        source = StoreSource(store, 0.2, processors=2)
        result = source.mine()
        assert result.frequent == Apriori(0.2).mine(supermarket_db).frequent

    def test_store_source_rejects_bad_algorithm(self, tmp_path):
        from repro.serve import StoreSource

        with pytest.raises(ValueError, match="algorithm"):
            StoreSource(tmp_path / "x.packed", 0.2, algorithm="simulated")


class TestServerLifecycle:
    def test_server_validates_confidence(self, supermarket_db):
        source = CallableSource(
            lambda: Apriori(0.2).mine(supermarket_db), "x"
        )
        with pytest.raises(ValueError, match="min_confidence"):
            RuleServer(source, min_confidence=0.0)
        with pytest.raises(ValueError, match="remine_every"):
            RuleServer(source, remine_every=-1.0)

    def test_shutdown_op_unblocks_wait(self, serving):
        server, client = serving
        waiter = threading.Thread(
            target=server.wait_for_shutdown_request, daemon=True
        )
        waiter.start()
        assert client.shutdown() == 1
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()

    def test_double_start_rejected(self, serving):
        server, _ = serving
        with pytest.raises(RuntimeError, match="already started"):
            server.start()

    def test_stop_is_idempotent(self, supermarket_db):
        source = CallableSource(
            lambda: Apriori(0.2).mine(supermarket_db), "x"
        )
        server = RuleServer(source, min_confidence=0.4, port=0).start()
        server.stop()
        server.stop()
