"""Process launcher for the proc conduit: fork ranks, run, reap.

:func:`spmd_proc` is the process-backend twin of the thread launcher in
:mod:`repro.core.world`: it builds a :class:`~repro.gasnet.proc.ProcFabric`
(shared-memory segment blocks + socket mesh), forks one OS process per
rank, and supervises them over per-rank bootstrap sockets:

* **ready/go handshake** — no rank enters the SPMD body until every
  process mapped the fabric (the directory exchange);
* **failure broadcast** — a rank that reports a primary error or dies
  is announced to the survivors, which convert the announcement into
  the same ``world.fail``/``world.mark_dead`` calls the thread backend
  makes, so PeerFailure/RankDead semantics are identical;
* **final collection** — each rank ships its return value (or its
  exception) plus its flight-recorder ring back to the launcher, which
  merges the rings into one cross-process crash dump on failure;
* **orphan reaping** — children are daemonic, self-destruct when the
  launcher's bootstrap socket goes away, and are terminate()/kill()ed
  on timeout; the fabric's shared-memory blocks are always unlinked.
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket
import struct
import sys
import threading
import time

from repro.errors import (
    CommTimeout,
    PeerFailure,
    PgasError,
    RankDead,
    SerializationError,
)
from repro.gasnet.proc import ProcConduit, ProcFabric
from repro.telemetry import resolve_config as _resolve_telemetry
from repro.telemetry.flight import FlightRecorder, merge_dump

_LEN = struct.Struct("<I")


# -- bootstrap-socket protocol (length-prefixed pickles) ---------------------
def _read_n(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray(n)
    got = 0
    with memoryview(buf) as mv:
        while got < n:
            try:
                k = sock.recv_into(mv[got:], n - got)
            except OSError:
                return None
            if k == 0:
                return None
            got += k
    return bytes(buf)


def _recv_msg(sock: socket.socket):
    hdr = _read_n(sock, _LEN.size)
    if hdr is None:
        return None
    blob = _read_n(sock, _LEN.unpack(hdr)[0])
    if blob is None:
        return None
    return pickle.loads(blob)


def _send_msg(sock: socket.socket, msg) -> None:
    blob = pickle.dumps(msg, protocol=5)  # dumps first: a pickling
    sock.sendall(_LEN.pack(len(blob)))    # error leaves the wire clean
    sock.sendall(blob)


def _picklable(exc: BaseException) -> BaseException:
    """The exception itself when it pickles, a stand-in otherwise."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return PgasError(f"{type(exc).__name__}: {exc}")


class _Job:
    """Everything a rank process needs, inherited through the fork."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


# -- rank-process side -------------------------------------------------------
def _gather_events(world, rank: int):
    if not world.telemetry.enabled:
        return [], 0
    rec = world.telemetry.rank(rank).flight
    return rec.snapshot(), rec.dropped


def _control_main(boot: socket.socket, world) -> None:
    """Consume launcher broadcasts for the life of the rank.  EOF means
    the launcher is gone: self-destruct rather than linger orphaned."""
    while True:
        try:
            msg = _recv_msg(boot)
        except Exception:
            msg = None
        if msg is None:
            os._exit(3)
        kind = msg[0]
        if kind == "peer_dead":
            _, r, reason = msg
            try:
                world.mark_dead(r, RankDead(reason))
            except Exception:
                pass
        elif kind == "peer_failed":
            _, r, exc = msg
            try:
                world.fail(r, exc)
            except Exception:
                pass


def _child_main(job: _Job, rank: int) -> None:
    from repro.core import world as worldmod

    fabric: ProcFabric = job.fabric
    fabric.child_setup(rank)
    boot = fabric.boot_child(rank)
    try:
        conduit = ProcConduit(fabric, rank)
        world = worldmod.World(
            job.ranks, segment_size=job.segment_size, conduit=conduit,
            thread_mode=job.thread_mode, op_timeout=job.timeout,
            reliability=job.reliability, telemetry=job.telemetry,
            survive_rank_death=job.survive_rank_death,
            local_ranks=(rank,), segment_factory=fabric.make_segment,
        )
    except BaseException as exc:
        try:
            _send_msg(boot, ("fatal", rank, _picklable(exc), [], 0))
        except Exception:
            pass
        os._exit(1)

    try:
        _send_msg(boot, ("ready", rank))
        go = _recv_msg(boot)
    except Exception:
        go = None
    if not go or go[0] != "go":
        os._exit(1)
    threading.Thread(target=_control_main, args=(boot, world),
                     name="proc-control", daemon=True).start()

    ctx = world.ranks[rank]
    worldmod._tls.ctx = ctx
    if job.thread_mode == "concurrent":
        world.start_progress_thread()
    result = None
    exc_out: BaseException | None = None
    secondary = False
    try:
        result = job.fn(*job.args, **job.kwargs)
        # Implicit finalize, exactly as the thread backend: a rank keeps
        # servicing AMs until every peer is done issuing work.
        ctx.body_done = True
        world.poke_all()
        if world.survive_rank_death:
            # done-or-dead finalize needs the done flags of *remote*
            # ranks, which only travel by message here.
            for d in range(world.n_ranks):
                if d != rank and not world.ranks[d].dead:
                    try:
                        ctx.send_am(d, "__proc_done__")
                    except Exception:
                        pass
            ctx.wait_until(
                lambda: all(p.body_done or p.dead for p in world.ranks),
                what="finalize (done-or-dead)",
            )
        else:
            from repro.core.collectives import barrier as _finalize

            _finalize()
    except worldmod._RankKilled:
        # Simulated crash: report the death, then vanish without any
        # orderly teardown (peers see the socket EOF + the broadcast).
        ctx.done = False
        events, dropped = _gather_events(world, rank)
        try:
            _send_msg(boot, ("died", rank, events, dropped))
        except Exception:
            pass
        os._exit(1)
    except BaseException as exc:
        if isinstance(exc, PeerFailure):
            secondary = True
        exc_out = exc
    finally:
        ctx.done = not ctx.dead
        worldmod._tls.ctx = None

    world.stop_progress_thread()
    world.stop_failure_detector()
    world.stop_sampler()
    failure = world.failure
    if exc_out is None and failure is not None and failure[0] == rank:
        # Recorded by the progress thread after this rank's last wait
        # looked (a finalize that found its barrier done): the thread
        # backend's spmd() raises it after the join, and so does this.
        exc_out = failure[1]
    try:
        world.conduit.close()
    except Exception:
        pass
    events, dropped = _gather_events(world, rank)
    try:
        if exc_out is not None:
            _send_msg(boot, ("error", rank, _picklable(exc_out),
                             secondary, events, dropped))
        else:
            try:
                _send_msg(boot, ("result", rank, result, events, dropped))
            except Exception as e:  # pickling errors are not one type
                _send_msg(boot, ("error", rank, SerializationError(
                    f"rank {rank}: SPMD return value of type "
                    f"{type(result).__name__} is not picklable across "
                    f"the proc backend: {e}"), False, events, dropped))
    except Exception:
        pass


# -- launcher side -----------------------------------------------------------
def _shipped_ring(rank: int, events=(), dropped: int = 0) -> FlightRecorder:
    """A flight ring shipped from a rank process, as a recorder again."""
    rec = FlightRecorder(rank, capacity=len(events), dropped=dropped)
    for ev in events:
        rec.append(ev)
    return rec


def _dump_failure(tel_cfg, header: str, events_by_rank: dict,
                  n_ranks: int) -> None:
    if tel_cfg.mode == "off":
        return
    try:
        recs = [_shipped_ring(r, *events_by_rank.get(r, ()))
                for r in range(n_ranks)]
        sys.stderr.write(merge_dump(recs, header=header))
    except Exception:
        pass  # a broken dump must never mask the real failure


def _broadcast(boots, open_ranks, origin: int, msg) -> None:
    for r in sorted(open_ranks):
        if r == origin:
            continue
        try:
            _send_msg(boots[r], msg)
        except Exception:
            pass


def spmd_proc(
    fn,
    ranks: int,
    *,
    args: tuple = (),
    kwargs: dict | None = None,
    segment_size: int,
    thread_mode: str = "serialized",
    timeout: float | None = 60.0,
    reliability=None,
    telemetry=None,
    survive_rank_death: bool = False,
    transport: str | None = None,
) -> list:
    """Run ``fn`` on ``ranks`` OS processes over the proc conduit."""
    kwargs = kwargs or {}
    tel_cfg = _resolve_telemetry(telemetry)
    fabric = ProcFabric(ranks, segment_size, transport=transport)
    job = _Job(
        fabric=fabric, fn=fn, args=args, kwargs=kwargs, ranks=ranks,
        segment_size=segment_size, thread_mode=thread_mode,
        timeout=timeout, reliability=reliability, telemetry=telemetry,
        survive_rank_death=survive_rank_death,
    )
    procs = []
    results: list = [None] * ranks
    finals: dict[int, BaseException] = {}       # primary errors, by rank
    secondaries: dict[int, BaseException] = {}
    died: dict[int, str] = {}
    events_by_rank: dict[int, tuple] = {}
    first_primary: tuple[int, BaseException] | None = None
    timed_out: set[int] = set()
    try:
        procs = [
            fabric.ctx.Process(
                target=_child_main, args=(job, r),
                name=f"pgas-proc-rank-{r}", daemon=True,
            )
            for r in range(ranks)
        ]
        for p in procs:
            p.start()
        fabric.parent_setup()
        boots = [fabric.boot_parent(r) for r in range(ranks)]

        # Phase 1: every rank maps the fabric and reports ready.
        boot_deadline = time.monotonic() + 60.0
        for r in range(ranks):
            boots[r].settimeout(max(0.1, boot_deadline - time.monotonic()))
            try:
                msg = _recv_msg(boots[r])
            except socket.timeout:
                msg = None
            boots[r].settimeout(None)
            if msg is not None and msg[0] == "fatal":
                raise msg[2]
            if msg is None or msg[0] != "ready":
                raise PgasError(
                    f"proc launcher: rank {r} failed to initialize "
                    f"(got {msg!r})"
                )
        for r in range(ranks):
            _send_msg(boots[r], ("go",))

        # Phase 2: collect finals, relaying death/failure broadcasts.
        open_ranks = set(range(ranks))
        deadline = (None if timeout is None
                    else time.monotonic() + timeout + 10.0)
        sel = selectors.DefaultSelector()
        for r in range(ranks):
            sel.register(boots[r], selectors.EVENT_READ, r)
        try:
            while open_ranks:
                wait = 0.25
                if deadline is not None:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        timed_out = set(open_ranks)
                        break
                for key, _ in sel.select(timeout=min(wait, 0.25)):
                    r = key.data
                    try:
                        msg = _recv_msg(key.fileobj)
                    except Exception:
                        msg = None
                    if msg is None:
                        # Hard crash: exited without a final report.
                        sel.unregister(key.fileobj)
                        open_ranks.discard(r)
                        died[r] = (f"rank {r} process exited without "
                                   f"reporting (crash)")
                        _broadcast(boots, open_ranks, r,
                                   ("peer_dead", r, died[r]))
                        continue
                    kind = msg[0]
                    if kind == "died":
                        _, _r, events, dropped = msg
                        events_by_rank[r] = (events, dropped)
                        died[r] = f"rank {r} died (simulated crash)"
                        sel.unregister(key.fileobj)
                        open_ranks.discard(r)
                        _broadcast(boots, open_ranks, r,
                                   ("peer_dead", r, died[r]))
                    elif kind in ("error", "fatal"):
                        _, _r, exc, *rest = msg
                        sec = rest[0] if kind == "error" else False
                        events_by_rank[r] = (rest[-2], rest[-1])
                        sel.unregister(key.fileobj)
                        open_ranks.discard(r)
                        if sec:
                            secondaries[r] = exc
                        else:
                            finals[r] = exc
                            if first_primary is None:
                                first_primary = (r, exc)
                                _broadcast(boots, open_ranks, r,
                                           ("peer_failed", r, exc))
                    elif kind == "result":
                        _, _r, value, events, dropped = msg
                        events_by_rank[r] = (events, dropped)
                        results[r] = value
                        sel.unregister(key.fileobj)
                        open_ranks.discard(r)
        finally:
            sel.close()

        # Phase 3: reap.
        join_deadline = time.monotonic() + (2.0 if timed_out else 15.0)
        for p in procs:
            p.join(timeout=max(0.1, join_deadline - time.monotonic()))
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.is_alive():
                p.join(timeout=5.0)
        for p in procs:
            if p.is_alive():
                p.kill()
                p.join(timeout=5.0)
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        fabric.destroy()

    if timed_out:
        exc = CommTimeout(
            f"spmd[proc]: {len(timed_out)} of {ranks} ranks did not "
            f"terminate (ranks {sorted(timed_out)})"
        )
        _dump_failure(tel_cfg, f"CommTimeout: {exc}", events_by_rank, ranks)
        raise exc
    if first_primary is not None:
        _r, exc = first_primary
        if isinstance(exc, (CommTimeout, PeerFailure, RankDead)):
            _dump_failure(tel_cfg, f"{type(exc).__name__}: {exc}",
                          events_by_rank, ranks)
        raise exc
    if died and not survive_rank_death:
        r = min(died)
        exc = RankDead(died[r])
        _dump_failure(tel_cfg, f"RankDead: {exc}", events_by_rank, ranks)
        raise exc
    return results
