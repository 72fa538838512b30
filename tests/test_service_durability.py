"""Durable service sessions: restart recovery, quarantine, idempotent
retries and per-request deadlines.

The guarantees under test (``docs/fault_tolerance.md``):

* with a ``state_dir`` every mutation persists the session (atomic,
  checksummed envelope), and a **new server over the same directory
  recovers it** — continuing the recovered session is bit-identical to
  never having restarted;
* corrupt or unrecoverable store files are **quarantined** at boot, never
  fatal, and ``/readyz`` reports the counts;
* recovered session ids are never re-issued to new sessions;
* a ``POST`` delivered twice under one ``Idempotency-Key`` executes
  **once** (a retried submit never double-submits); a different key is a
  genuinely new request;
* past ``request_timeout_s`` the client gets 504 while the operation
  completes server-side.

pytest-asyncio is deliberately not a dependency: each test owns its loop
via ``asyncio.run``, like ``tests/test_service.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import AsyncServiceClient, SchedulerServer, ServiceError
from repro.service.session import SimulationSession
from repro.service.store import STORE_VERSION, SessionStore
from repro.service.snapshot import snapshot_to_text

PARAMS = {"scheduler": "gfs", "num_nodes": 6, "duration_hours": 4.0, "seed": 11}


def _payload(task_id: str, submit_time: float, *, hp: bool = False, gpus: float = 4.0) -> dict:
    return {
        "task_id": task_id,
        "task_type": 1 if hp else 0,
        "num_pods": 1,
        "gpus_per_pod": gpus,
        "duration": 1800.0,
        "submit_time": submit_time,
        "org": "org-a" if hp else "org-b",
    }


def _wave(prefix: str, count: int, start: float = 0.0) -> list:
    return [_payload(f"{prefix}-{i:03d}", start + i * 120.0, hp=(i % 3 == 0)) for i in range(count)]


def _fingerprint(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True)


# ----------------------------------------------------------------------
# Store layer (no server)
# ----------------------------------------------------------------------
class TestSessionStore:
    def _snapshot_bytes(self):
        return SimulationSession(PARAMS).snapshot_bytes()

    def test_save_recover_roundtrip(self, tmp_path):
        store = SessionStore(tmp_path / "state")
        blob = self._snapshot_bytes()
        store.save("session-0007", dict(PARAMS), blob)
        report = store.recover()
        assert report.quarantined == []
        [stored] = report.recovered
        assert stored.session_id == "session-0007"
        assert stored.params == PARAMS
        assert stored.snapshot == blob
        assert report.max_session_number() == 7

    def test_delete_forgets(self, tmp_path):
        store = SessionStore(tmp_path)
        store.save("session-0001", dict(PARAMS), self._snapshot_bytes())
        store.delete("session-0001")
        assert store.recover().recovered == []
        store.delete("session-0001")  # idempotent

    def test_path_tricks_rejected(self, tmp_path):
        store = SessionStore(tmp_path)
        for bad in ("../escape", "a/b", "..", "."):
            with pytest.raises(ValueError, match="invalid session id"):
                store.save(bad, {}, b"")

    @pytest.mark.parametrize(
        "mangle",
        [
            pytest.param(lambda text: "{not json", id="unparseable"),
            pytest.param(lambda text: "[]", id="not-an-object"),
            pytest.param(
                lambda text: json.dumps({**json.loads(text), "store_version": 99}),
                id="future-version",
            ),
            pytest.param(
                lambda text: json.dumps(
                    {k: v for k, v in json.loads(text).items() if k != "snapshot"}
                ),
                id="missing-snapshot",
            ),
            pytest.param(
                lambda text: json.dumps(
                    {**json.loads(text), "snapshot": "UkVQUk9TTlA=corrupt"}
                ),
                id="bad-envelope",
            ),
        ],
    )
    def test_corruption_matrix_quarantines(self, tmp_path, mangle):
        store = SessionStore(tmp_path)
        path = store.save("session-0001", dict(PARAMS), self._snapshot_bytes())
        store.save("session-0002", dict(PARAMS), self._snapshot_bytes())
        path.write_text(mangle(path.read_text()))
        report = store.recover()
        assert report.quarantined == ["session-0001.json"]
        assert [s.session_id for s in report.recovered] == ["session-0002"]
        # Evidence preserved, file no longer scanned.
        assert (tmp_path / "session-0001.json.quarantined").exists()
        again = store.recover()
        assert again.quarantined == []
        assert len(again.recovered) == 1

    def test_flipped_snapshot_bit_fails_checksum(self, tmp_path):
        store = SessionStore(tmp_path)
        blob = bytearray(self._snapshot_bytes())
        blob[len(blob) // 2] ^= 0x01
        record = {
            "store_version": STORE_VERSION,
            "session_id": "session-0001",
            "params": dict(PARAMS),
            "saved_at": 0.0,
            "snapshot": snapshot_to_text(bytes(blob)),
        }
        (tmp_path / "session-0001.json").write_text(json.dumps(record))
        report = store.recover()
        assert report.recovered == []
        assert report.quarantined == ["session-0001.json"]


# ----------------------------------------------------------------------
# Server end-to-end
# ----------------------------------------------------------------------
async def _with_server(body, **server_kwargs):
    server = SchedulerServer(**server_kwargs)
    await server.start(port=0)
    try:
        return await body(server)
    finally:
        await server.stop()


class TestRestartRecovery:
    def test_recovered_session_continues_bit_identically(self, tmp_path):
        state = tmp_path / "state"
        waves = [(900.0, _wave("dur", 6)), (2700.0, _wave("dur2", 6, start=900.0))]

        # Reference: one quiet in-process session, never interrupted.
        reference_session = SimulationSession(PARAMS)
        for advance_to, wave in waves:
            reference_session.submit(wave)
            reference_session.advance(until=advance_to)
        reference_session.advance()
        reference = _fingerprint(reference_session.metrics())

        async def first_life(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                sid = (await client.create_session(**PARAMS))["session_id"]
                advance_to, wave = waves[0]
                await client.submit(sid, wave)
                await client.advance(sid, until=advance_to)
                return sid
            finally:
                await client.close()

        async def second_life(server, sid):
            ready = await AsyncServiceClient(server.host, server.port).readyz()
            assert ready["recovered"] == 1
            assert ready["quarantined"] == 0
            client = AsyncServiceClient(server.host, server.port)
            try:
                listed = [s["session_id"] for s in await client.list_sessions()]
                assert listed == [sid]
                advance_to, wave = waves[1]
                await client.submit(sid, wave)
                await client.advance(sid, until=advance_to)
                await client.advance(sid)
                return _fingerprint(await client.metrics(sid))
            finally:
                await client.close()

        sid = asyncio.run(_with_server(first_life, state_dir=state))
        resumed = asyncio.run(
            _with_server(lambda srv: second_life(srv, sid), state_dir=state)
        )
        assert resumed == reference

    def test_recovery_never_reissues_session_ids(self, tmp_path):
        state = tmp_path / "state"

        async def first_life(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                return (await client.create_session(**PARAMS))["session_id"]
            finally:
                await client.close()

        async def second_life(server, old_sid):
            client = AsyncServiceClient(server.host, server.port)
            try:
                new_sid = (await client.create_session(**PARAMS))["session_id"]
                assert new_sid != old_sid
                listed = {s["session_id"] for s in await client.list_sessions()}
                assert listed == {old_sid, new_sid}
            finally:
                await client.close()

        sid = asyncio.run(_with_server(first_life, state_dir=state))
        asyncio.run(_with_server(lambda srv: second_life(srv, sid), state_dir=state))

    def test_delete_is_durable(self, tmp_path):
        state = tmp_path / "state"

        async def first_life(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                sid = (await client.create_session(**PARAMS))["session_id"]
                await client.delete_session(sid)
            finally:
                await client.close()

        async def second_life(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                assert await client.list_sessions() == []
                assert (await client.readyz())["recovered"] == 0
            finally:
                await client.close()

        asyncio.run(_with_server(first_life, state_dir=state))
        asyncio.run(_with_server(second_life, state_dir=state))

    def test_corrupt_file_quarantined_at_boot(self, tmp_path):
        state = tmp_path / "state"

        async def first_life(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                sid = (await client.create_session(**PARAMS))["session_id"]
                await client.submit(sid, _wave("q", 3))
                await client.advance(sid, until=600.0)
            finally:
                await client.close()

        async def second_life(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                ready = await client.readyz()
                assert ready["recovered"] == 1
                assert ready["quarantined"] == 1
                assert (state / "session-0042.json.quarantined").exists()
                # The surviving session still works.
                [session] = await client.list_sessions()
                await client.advance(session["session_id"], until=1200.0)
            finally:
                await client.close()

        asyncio.run(_with_server(first_life, state_dir=state))
        # A torn write lands between the two lives (as a crash mid-save
        # would leave, were saves not atomic — or an operator's stray file).
        (state / "session-0042.json").write_text("{torn mid-write")
        asyncio.run(_with_server(second_life, state_dir=state))

    def test_unrebuildable_session_quarantined_not_fatal(self, tmp_path):
        # A file that parses and passes its checksum but cannot rebuild a
        # session (bogus params) must cost one session, not the boot.
        state = tmp_path / "state"
        blob = SimulationSession(PARAMS).snapshot_bytes()
        SessionStore(state).save("session-0009", {"schedulr": "typo"}, blob)

        async def body(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                ready = await client.readyz()
                assert ready["quarantined"] == 1
                assert ready["recovered"] == 0
                assert await client.list_sessions() == []
                assert (state / "session-0009.json.quarantined").exists()
            finally:
                await client.close()

        asyncio.run(_with_server(body, state_dir=state))

    def test_health_probes_report_durability(self, tmp_path):
        async def durable(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                assert (await client.healthz())["durable"] is True
                assert (await client.readyz())["status"] == "ready"
            finally:
                await client.close()

        async def ephemeral(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                assert (await client.healthz())["durable"] is False
            finally:
                await client.close()

        asyncio.run(_with_server(durable, state_dir=tmp_path / "state"))
        asyncio.run(_with_server(ephemeral))


# ----------------------------------------------------------------------
# Idempotent retries
# ----------------------------------------------------------------------
class _DropAfterDelivery(AsyncServiceClient):
    """A client whose connection 'dies' right after the first delivery of
    a matching request — after the server processed it, before the client
    read the result.  The transport retry must re-send with the SAME
    idempotency key and collect the original operation's result."""

    def __init__(self, host, port, drop_on: str):
        super().__init__(host, port)
        self.drop_on = drop_on
        self.deliveries = 0
        self.dropped = False

    async def _send_once(self, method, path, body, extra_headers):
        result = await super()._send_once(method, path, body, extra_headers)
        if self.drop_on in path:
            self.deliveries += 1
            if not self.dropped:
                self.dropped = True
                await self.close()
                raise ConnectionError("injected drop after delivery")
        return result


class TestIdempotentRetries:
    def test_retried_submit_does_not_double_submit(self, tmp_path):
        async def body(server):
            setup = AsyncServiceClient(server.host, server.port)
            flaky = _DropAfterDelivery(server.host, server.port, drop_on="/submit")
            try:
                sid = (await setup.create_session(**PARAMS))["session_id"]
                wave = _wave("retry", 5)
                result = await flaky.submit(sid, wave)
                # Two deliveries on the wire, one submission in the session.
                assert flaky.deliveries == 2
                assert result["accepted"] == [t["task_id"] for t in wave]
                status = await setup.status(sid)
                assert status["submitted_tasks"] == len(wave)
            finally:
                await setup.close()
                await flaky.close()

        asyncio.run(_with_server(body, state_dir=tmp_path / "state"))

    def test_duplicate_delivery_coalesces_on_server(self):
        # Same body, same key, delivered twice: one execution, one result.
        async def body(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                sid = (await client.create_session(**PARAMS))["session_id"]
                wave = _wave("dup", 4)
                payload = json.dumps({"tasks": wave}).encode("utf-8")
                headers = {"idempotency-key": "fixed-key-1"}
                path = f"/sessions/{sid}/submit"
                first = await server._dispatch("POST", path, payload, headers)
                second = await server._dispatch("POST", path, payload, headers)
                assert first == second
                assert first[0] == 200
                assert (await client.status(sid))["submitted_tasks"] == len(wave)
            finally:
                await client.close()

        asyncio.run(_with_server(body))

    def test_fresh_key_is_a_new_request(self):
        # The same duplicate submission under a NEW key is genuinely
        # re-executed — and correctly rejected as already submitted.
        async def body(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                sid = (await client.create_session(**PARAMS))["session_id"]
                wave = _wave("fresh", 3)
                await client.submit(sid, wave)
                with pytest.raises(ServiceError) as err:
                    await client.submit(sid, wave)
                assert err.value.status == 400
                assert "already submitted" in err.value.message
            finally:
                await client.close()

        asyncio.run(_with_server(body))

    def test_unkeyed_post_is_never_retried(self):
        async def body(server):
            client = AsyncServiceClient(server.host, server.port)
            attempts = {"count": 0}
            original = client._send_once

            async def always_fails(method, path, body, extra):
                attempts["count"] += 1
                raise ConnectionError("injected transport failure")

            client._send_once = always_fails
            try:
                with pytest.raises(ConnectionError):
                    await client._request("POST", "/sessions", PARAMS)
                assert attempts["count"] == 1  # no blind replay
                attempts["count"] = 0
                with pytest.raises(ConnectionError):
                    await client._request("GET", "/healthz")
                assert attempts["count"] == 1 + client.retries  # GET retries
            finally:
                client._send_once = original
                await client.close()

        asyncio.run(_with_server(body))


# ----------------------------------------------------------------------
# Per-request deadlines
# ----------------------------------------------------------------------
class TestRequestDeadline:
    def test_slow_advance_times_out_but_completes_serverside(self):
        async def body(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                sid = (await client.create_session(**PARAMS))["session_id"]
                await client.submit(sid, _wave("slow", 400))
                with pytest.raises(ServiceError) as err:
                    await client.advance(sid)  # full run: ~0.7s >> 150ms
                assert err.value.status == 504
                assert "deadline" in err.value.message
                # The operation was shielded, not cancelled: it finishes
                # server-side and the session ends up fully advanced.
                # While it runs, status polls queue behind the session
                # lock and 504 too — keep polling until it drains.
                status = None
                for _ in range(200):
                    try:
                        status = await client.status(sid)
                    except ServiceError as poll_err:
                        assert poll_err.status == 504
                        continue
                    if status["done"]:
                        break
                    await asyncio.sleep(0.05)
                assert status is not None and status["done"]
                assert status["submitted_tasks"] == 400
            finally:
                await client.close()

        asyncio.run(_with_server(body, request_timeout_s=0.15))

    def test_fast_requests_unaffected_by_deadline(self):
        async def body(server):
            client = AsyncServiceClient(server.host, server.port)
            try:
                assert (await client.healthz())["status"] == "ok"
                sid = (await client.create_session(**PARAMS))["session_id"]
                assert (await client.status(sid))["session_id"] == sid
            finally:
                await client.close()

        asyncio.run(_with_server(body, request_timeout_s=5.0))
