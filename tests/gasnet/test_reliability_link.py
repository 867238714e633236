"""The reliability protocol, world-free: two ``_Link`` objects, a
scripted channel and a fake clock — no ``spmd()``, no threads, no
conduit.  What ``ReliableConduit`` adds around the link (who sends the
bytes, stats, failure detection) is covered by
``tests/core/test_reliability.py`` and ``test_chaos_conduit.py``.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.gasnet.am import ActiveMessage
from repro.gasnet.reliability import ReliabilityConfig, _Link, _unwrap
from repro.gasnet.wire import encode_am

CFG = ReliabilityConfig()
WINDOW = CFG.ack_timeout / 4
FAR = 1e9   # per-op deadline: nothing expires in these tests


class Pair:
    """Ranks 0 and 1, each holding its end of the link, and the channel
    between them: a list of ``(to, kind, aux, inner)`` in flight."""

    def __init__(self, start_seq: int = 0):
        self.links = [_Link(0, 1, CFG, lambda: 1.0),
                      _Link(1, 0, CFG, lambda: 1.0)]   # no jitter
        for link in self.links:
            link.next_seq = link.acked_upto = link.rx_next = start_seq
        self.now = 100.0
        self.channel: list[tuple] = []
        self.sent: list[list] = [[], []]        # by sender
        self.got: list[list] = [[], []]         # by receiver
        self.standalone_acks = [0, 0]           # by sender of the ack
        self.owed_since: list = [None, None]    # the test's own account

    def send(self, me: int, value) -> None:
        inner = ActiveMessage(handler="h", src_rank=me, args=(value,))
        env = self.links[me].wrap(inner, self.now, FAR)
        assert env.handler == "__rel_data__" and env.payload is inner
        assert encode_am(env).thaw().aux == env.aux   # fits the header
        self.sent[me].append(value)
        self.owed_since[me] = None   # the envelope carried the ack
        self.channel.append((1 - me, "data", env.aux, inner))

    def _ack(self, me: int, aux: int) -> None:
        ack = ActiveMessage(handler="__rel_ack__", src_rank=me, aux=aux)
        assert encode_am(ack).thaw().aux == aux
        assert ack.wire_bytes == 42 + 11        # header + "__rel_ack__"
        self.standalone_acks[me] += 1
        self.owed_since[me] = None
        self.channel.append((1 - me, "ack", aux, None))

    def deliver(self, i: int = 0) -> None:
        to, kind, aux, inner = self.channel.pop(i)
        link = self.links[to]
        # a stale cumulative ack never re-arms or pops anything
        before = (link.acked_upto, {
            s: (e.attempts, e.next_at) for s, e in link.unacked.items()})
        stale = _unwrap(aux >> 32, link.acked_upto) <= link.acked_upto
        if kind == "ack":
            link.acked(aux)
        else:
            ready = link.on_data(aux, inner, self.now)
            if ready is None:
                self._ack(to, link.take_ack())   # duplicate: at once
            else:
                self.got[to] += [am.args[0] for am in ready]
                if ready and self.owed_since[to] is None:
                    self.owed_since[to] = self.now
        after = (link.acked_upto, {
            s: (e.attempts, e.next_at) for s, e in link.unacked.items()})
        if stale:
            assert after == before
        else:
            assert after[0] > before[0]
            assert set(after[1]) == {s for s in before[1] if s >= after[0]}

    def tick(self) -> None:
        self.now += CFG.tick
        for me, link in enumerate(self.links):
            ack, resend, expired = link.poll(self.now)
            assert not expired
            if ack is not None:
                # only for an ack no envelope carried within the window
                owed = self.owed_since[me]
                assert owed is not None and self.now - owed >= WINDOW
                self._ack(me, ack)
            for e in resend:
                assert e.attempts >= 1
                self.channel.append((1 - me, "data", e.env.aux, e.inner))

    def quiesce(self) -> None:
        """A loss-free channel from here on: within the delayed-ack
        window plus the retransmission schedule everything sent is
        dispatched once, in order, and nothing is left unacked."""
        until = self.now + CFG.rto_max + WINDOW + 4 * CFG.tick
        while self.now < until:
            while self.channel:
                self.deliver()
            self.tick()
        while self.channel:
            self.deliver()
        for me, link in enumerate(self.links):
            assert not link.unacked, (me, sorted(link.unacked))
            assert not link.rx_buf
            assert link.acked_upto == link.next_seq
            assert self.got[1 - me] == self.sent[me]

    def check(self) -> None:
        for me, link in enumerate(self.links):
            peer = self.links[1 - me]
            got, sent = self.got[1 - me], self.sent[me]
            assert got == sent[:len(got)]       # once each, in order
            # unacked is exactly what the peer has not acknowledged,
            # and nobody acknowledges what it has not dispatched
            assert set(link.unacked) == set(
                range(link.acked_upto, link.next_seq))
            assert link.acked_upto <= peer.rx_next <= link.next_seq
            assert (link.ack_owed_since is None) == (
                self.owed_since[me] is None)


class LinkModel(RuleBasedStateMachine):
    """Send either way, deliver in or out of order, drop, duplicate and
    let time pass, in any interleaving."""

    def __init__(self):
        super().__init__()
        self.p = Pair()
        self.n = 0

    @rule(me=st.integers(0, 1))
    def send(self, me):
        self.n += 1
        self.p.send(me, self.n)

    @precondition(lambda self: self.p.channel)
    @rule()
    def deliver_oldest(self):
        self.p.deliver(0)

    @precondition(lambda self: self.p.channel)
    @rule(data=st.data())
    def deliver_any(self, data):
        self.p.deliver(data.draw(
            st.integers(0, len(self.p.channel) - 1)))

    @precondition(lambda self: self.p.channel)
    @rule(data=st.data())
    def drop(self, data):
        self.p.channel.pop(data.draw(
            st.integers(0, len(self.p.channel) - 1)))

    @precondition(lambda self: self.p.channel)
    @rule(data=st.data())
    def duplicate(self, data):
        self.p.channel.append(self.p.channel[data.draw(
            st.integers(0, len(self.p.channel) - 1))])

    @rule(ticks=st.integers(1, 8))
    def advance_clock(self, ticks):
        for _ in range(ticks):
            self.p.tick()

    @invariant()
    def delivery_and_ack_state_hold(self):
        self.p.check()

    def teardown(self):
        self.p.quiesce()


LinkModel.TestCase.settings = settings(
    max_examples=120, stateful_step_count=60, deadline=None)
test_link_model = LinkModel.TestCase


def test_request_reply_traffic_needs_no_standalone_ack():
    """Reverse data inside the window carries every ack: a closed
    request/reply loop produces no ``__rel_ack__`` at all, and each
    side's ``unacked`` never holds more than its last envelope."""
    p = Pair()
    for i in range(200):
        p.send(0, ("req", i))
        p.deliver()
        p.tick()                     # one tick < the window
        p.send(1, ("rep", i))
        p.deliver()
        p.check()
        assert len(p.links[0].unacked) <= 1
        assert len(p.links[1].unacked) <= 1
    assert p.standalone_acks == [0, 0]
    p.quiesce()
    assert p.standalone_acks == [1, 0]   # the last reply's, delayed


def test_one_way_stream_is_acked_by_the_delayed_ack_alone():
    p = Pair()
    for i in range(1000):
        p.send(0, i)
        p.deliver()
        if i % 50 == 49:
            p.tick()
    assert 1 <= p.standalone_acks[1] <= 20
    p.quiesce()
    assert p.standalone_acks[0] == 0
    assert p.got[1] == list(range(1000))


def test_sequence_numbers_wrap_at_32_bits():
    """Both cursors start five below 2**32 on both sides; 20 envelopes
    each way cross the boundary of the 32-bit wire fields (and of the
    signed header word) with reordering, loss and duplication."""
    p = Pair(start_seq=2**32 - 5)
    for i in range(20):
        p.send(0, ("a", i))
        p.send(1, ("b", i))
        if i % 3 == 0:
            p.channel.append(p.channel[0])      # duplicate
        if i % 4 == 1:
            p.channel.pop(0)                    # drop
        while len(p.channel) > 1:
            p.deliver(len(p.channel) - 1)       # newest first
        p.tick()
        p.check()
    p.quiesce()
    assert [link.next_seq for link in p.links] == [2**32 + 15] * 2
    assert p.got[1] == [("a", i) for i in range(20)]
    assert p.got[0] == [("b", i) for i in range(20)]
