"""Reconfiguration: adding and removing replicas at runtime.

BFT-SMaRt lets a trusted administrator change the group membership by
submitting a signed reconfiguration command through the same total order
as client requests; every replica applies the view change at the same
logical instant. The :class:`Administrator` here builds those commands
and submits them through an ordinary :class:`ServiceProxy`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bftsmart.client import ServiceProxy
from repro.bftsmart.messages import ReconfigRequest
from repro.bftsmart.executor import RECONFIG_MARKER
from repro.bftsmart.view import View
from repro.crypto import KeyStore, Signer
from repro.wire import decode, encode


@dataclass(frozen=True)
class ReconfigResult:
    """Typed outcome of one checked reconfiguration.

    ``status`` is one of:

    ``"applied"``
        The group decided and executed the membership change;
        ``view_id``/``view`` carry the resulting view.
    ``"rejected"``
        The group executed the command but refused it (bad signature,
        membership below 3f+1, ...); ``detail`` carries the reason.
        Deterministic — never retried.
    ``"timed-out"``
        No decision reached within the deadline across every retry;
        the change may still land later (callers must treat it as
        in-doubt, exactly like a real admin console would).
    """

    status: str
    view_id: int | None = None
    view: View | None = None
    attempts: int = 1
    elapsed: float = 0.0
    detail: str = ""

    @property
    def applied(self) -> bool:
        return self.status == "applied"


class Administrator:
    """Builds and submits signed membership changes.

    The principal name must be ``"admin"`` — replicas only accept
    reconfigurations signed by that identity (BFT-SMaRt's TTP).
    """

    def __init__(self, proxy: ServiceProxy, keystore: KeyStore) -> None:
        self.proxy = proxy
        self._signer = Signer("admin", keystore)

    def build_operation(
        self, join: tuple = (), leave: tuple = (), new_f: int | None = None
    ) -> bytes:
        """The operation bytes for a membership change."""
        if new_f is None:
            new_f = self.proxy.view.f
        payload = encode(("admin", tuple(join), tuple(leave), new_f))
        request = ReconfigRequest(
            admin="admin",
            join=tuple(join),
            leave=tuple(leave),
            new_f=new_f,
            signature=self._signer.sign(payload).tag,
        )
        return RECONFIG_MARKER + encode(request)

    def reconfigure(self, join: tuple = (), leave: tuple = (), new_f: int | None = None):
        """Submit the change; returns the invocation event.

        The event's value decodes to ``("ok", new_view_id)`` on success.
        On success the administrator's own proxy view is updated so
        subsequent commands reach the new membership.
        """
        operation = self.build_operation(join=join, leave=leave, new_f=new_f)
        if new_f is None:
            new_f = self.proxy.view.f
        event = self.proxy.invoke_ordered(operation)

        def on_done(ev) -> None:
            if not ev.ok:
                return
            status, view_id = decode(ev.value)
            if status != "ok":
                return
            addresses = [a for a in self.proxy.view.addresses if a not in leave]
            addresses.extend(a for a in join if a not in addresses)
            self.proxy.update_view(View(view_id, tuple(addresses), new_f))

        event.add_callback(on_done)
        return event

    def reconfigure_checked(
        self,
        join: tuple = (),
        leave: tuple = (),
        new_f: int | None = None,
        timeout: float = 2.0,
        attempts: int = 3,
        backoff: float = 2.0,
    ):
        """Submit the change with a deadline, retries and a typed result.

        Returns an event that always *succeeds* with a
        :class:`ReconfigResult`, so callers (the recovery orchestrator
        above all) can branch on ``applied`` / ``timed-out`` /
        ``rejected`` instead of hanging on a bare invocation. Each
        attempt waits ``timeout * backoff**i`` before the next; a
        deterministic rejection from the group is surfaced immediately
        and never retried (resubmitting an unauthorized or invalid
        change cannot help). Re-submissions of an already-applied change
        are idempotent on the replicas, so a late first attempt racing a
        retry is safe.
        """
        sim = self.proxy.sim
        done = sim.event(name="reconfig-checked")
        started = sim.now
        state = {"attempt": 0, "settled": False}

        def settle(status: str, view_id=None, detail: str = "") -> None:
            if state["settled"]:
                return
            state["settled"] = True
            done.succeed(
                ReconfigResult(
                    status=status,
                    view_id=view_id,
                    view=self.proxy.view if status == "applied" else None,
                    attempts=state["attempt"],
                    elapsed=sim.now - started,
                    detail=detail,
                )
            )

        def retry_or_timeout(detail: str) -> None:
            if state["attempt"] >= attempts:
                settle("timed-out", detail=detail)
            else:
                launch()

        def launch() -> None:
            if state["settled"]:
                return
            state["attempt"] += 1
            attempt_no = state["attempt"]
            deadline = timeout * (backoff ** (attempt_no - 1))
            timer = sim.timer(deadline, expire, attempt_no)
            event = self.reconfigure(join=join, leave=leave, new_f=new_f)

            def on_done(ev) -> None:
                sim.cancel_timer(timer)
                if state["settled"]:
                    return
                if not ev.ok:
                    ev.defused = True
                    retry_or_timeout("invocation gave up before a decision")
                    return
                status, info = decode(ev.value)
                if status == "ok":
                    settle("applied", view_id=info)
                else:
                    settle("rejected", detail=str(info))

            event.add_callback(on_done)

        def expire(attempt_no: int) -> None:
            if state["settled"] or attempt_no != state["attempt"]:
                return
            retry_or_timeout(
                f"no decision after {state['attempt']} attempt(s) "
                f"within the deadline"
            )

        launch()
        return done
