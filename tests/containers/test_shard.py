"""World-free tests of the shard state machine (containers/shard.py).

No spmd region anywhere in this file: a :class:`Shard` / :class:`HostedMap`
is driven directly, which is the point of having them.

* the exhaustive transition table — every (state, event) pair either
  lands in the stated state with the stated ``epoch`` / ``repl_epoch``
  bumps or raises the stated exception (docs/API.md "Replication and
  failover" prints the same table);
* a hypothesis stateful model of a primary/backup pair against a dict
  oracle;
* ``snapshot()`` -> ``kv_state`` codec -> ``from_snapshot()`` and
  ``kv_repl`` record round trips.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.containers import KvRedirect, KvStalePrimary
from repro.containers import shard as shard_mod
from repro.containers.shard import (
    BACKUP,
    PRIMARY,
    HostedMap,
    Shard,
    ShardSnapshot,
)
from repro.gasnet.wire import codecs as codecs_mod

ME, OTHER, THIRD = 1, 0, 2      # hosting rank, the other copy, a bystander
SID = 3
EPOCH, REPL = 5, 2              # where every non-absent state starts


# ---------------------------------------------------------------------------
# (a) the transition table
# ---------------------------------------------------------------------------

def _hosting(role: str) -> HostedMap:
    hm = HostedMap(nshards=4)
    if role == PRIMARY:
        sh = Shard(SID, PRIMARY, ME, OTHER)
    else:
        sh = Shard(SID, BACKUP, OTHER, ME)
    sh.store.update({"a": 1, "b": 2})
    sh.epoch, sh.repl_epoch = EPOCH, REPL
    hm.shards[SID] = sh
    return hm


def _moving() -> HostedMap:
    hm = _hosting(PRIMARY)
    hm.shards[SID].begin_move(THIRD)
    return hm


def _tombstoned() -> HostedMap:
    hm = HostedMap(nshards=4)
    hm.moved[SID] = THIRD
    return hm


STATES = {
    "primary": lambda: _hosting(PRIMARY),
    "backup": lambda: _hosting(BACKUP),
    "moving": _moving,
    "absent": lambda: HostedMap(nshards=4),
    "tombstoned": _tombstoned,
}


def _observe(hm: HostedMap) -> tuple:
    """(state name, epoch, repl_epoch) — the whole observable state."""
    sh = hm.shards.get(SID)
    if sh is None:
        return ("tombstoned" if SID in hm.moved else "absent", None, None)
    name = "moving" if sh.moving_to is not None else sh.role
    return (name, sh.epoch, sh.repl_epoch)


def _snap(repl_epoch: int, as_primary: bool = False) -> ShardSnapshot:
    return ShardSnapshot({"z": 26}, [(7, 1, 40, 26)], 40, repl_epoch,
                         OTHER, ME, as_primary)


def _replay(repl_epoch):
    return lambda hm: hm.replay(SID, repl_epoch, [("put", {"r": 0}, 9)])


def _read(hm):
    sh = hm.lookup(SID)
    sh.require(write=False)
    return sh.lookup("a")


EVENTS = {
    # client ops, as the owner-side resolve step drives them
    "put": lambda hm: hm.lookup(SID).put({"k": 0}),
    "delete": lambda hm: hm.lookup(SID).delete(["a"]),
    "delete-absent-key": lambda hm: hm.lookup(SID).delete(["nope"]),
    "update": lambda hm: hm.lookup(SID).update(
        9, 1, "a", lambda old, x: old + x, (1,)),
    "read": _read,
    # the replication log arriving at this copy
    "replay-older": _replay(REPL - 1),
    "replay-equal": _replay(REPL),
    "replay-newer": _replay(REPL + 1),
    # full-copy installs
    "install-older": lambda hm: hm.install(SID, _snap(REPL - 1), ME),
    "install-newer": lambda hm: hm.install(SID, _snap(REPL + 1), ME),
    "install-as-primary": lambda hm: hm.install(
        SID, _snap(REPL + 1, as_primary=True), ME),
    # role changes
    "promote": lambda hm: hm.lookup(SID).promote(ME, THIRD),
    "begin-move": lambda hm: hm.lookup(SID).begin_move(THIRD),
    "abort-move": lambda hm: hm.lookup(SID).abort_move(),
    "finish-move": lambda hm: hm.retire(SID, THIRD),
    "drop-older": lambda hm: hm.drop(SID, REPL, THIRD),
    "drop-newer": lambda hm: hm.drop(SID, REPL + 1, THIRD),
}

#: Outcome notation.  ``("state", d_epoch, d_repl_epoch)``: the copy is
#: in that state afterwards with the counters moved by those deltas
#: from (EPOCH, REPL); ``=N`` sets a counter absolutely (installs, and
#: replay's max()).  ``(Exc, hint)``: the event is illegal and raises
#: Exc pointing at rank ``hint``; the state does not change.
SAME_P, SAME_B, SAME_M = ("primary", 0, 0), ("backup", 0, 0), ("moving", 0, 0)
GONE, TOMB = ("absent", None, None), ("tombstoned", None, None)
TO_PRIMARY = (KvRedirect, OTHER)        # a backup points at its primary
TO_TARGET = (KvRedirect, THIRD)         # a frozen / retired copy: the target
NO_HINT = (KvRedirect, None)
WRITTEN = ("primary", 1, 0)
INSTALLED_B = ("backup", "=40", "=%d" % (REPL + 1))
INSTALLED_P = ("primary", "=41", "=%d" % (REPL + 1))

TABLE = {
    # event:           primary, backup, moving, absent, tombstoned
    "put":             [WRITTEN, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "delete":          [WRITTEN, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "delete-absent-key": [SAME_P, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "update":          [WRITTEN, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "read":            [SAME_P, SAME_B, TO_TARGET, NO_HINT, TO_TARGET],
    "replay-older":    [(KvStalePrimary, ME), (KvStalePrimary, OTHER),
                        (KvStalePrimary, ME), (KvStalePrimary, None),
                        (KvStalePrimary, THIRD)],
    "replay-equal":    [("primary", "=9", 0), ("backup", "=9", 0),
                        ("moving", "=9", 0), (KvStalePrimary, None),
                        (KvStalePrimary, THIRD)],
    "replay-newer":    [("primary", "=9", 0), ("backup", "=9", 0),
                        ("moving", "=9", 0), (KvStalePrimary, None),
                        (KvStalePrimary, THIRD)],
    "install-older":   [SAME_P, SAME_B, SAME_M,
                        ("backup", "=40", "=%d" % (REPL - 1)),
                        ("backup", "=40", "=%d" % (REPL - 1))],
    "install-newer":   [INSTALLED_B] * 5,
    "install-as-primary": [INSTALLED_P] * 5,
    "promote":         [(KvRedirect, ME), ("primary", 1, 1), TO_TARGET,
                        NO_HINT, TO_TARGET],
    "begin-move":      [SAME_M, TO_PRIMARY, TO_TARGET, NO_HINT, TO_TARGET],
    "abort-move":      [SAME_P, SAME_B, SAME_P, NO_HINT, TO_TARGET],
    "finish-move":     [TOMB] * 5,
    "drop-older":      [SAME_P, SAME_B, SAME_M, GONE, TOMB],
    "drop-newer":      [TOMB, TOMB, TOMB, GONE, TOMB],
}


def test_transition_table_is_exhaustive():
    assert set(TABLE) == set(EVENTS)
    assert all(len(row) == len(STATES) for row in TABLE.values())


def _expected_counter(start, delta):
    if isinstance(delta, str):
        return int(delta[1:])
    return start + delta


@pytest.mark.parametrize(
    "event,state", list(itertools.product(EVENTS, STATES)))
def test_transition(event, state):
    hm = STATES[state]()
    before = _observe(hm)
    expect = TABLE[event][list(STATES).index(state)]
    if isinstance(expect[0], type):
        exc_type, hint = expect
        with pytest.raises(exc_type) as ei:
            EVENTS[event](hm)
        got = (ei.value.hint if exc_type is KvRedirect
               else ei.value.new_primary)
        assert got == hint
        assert _observe(hm) == before       # illegal events change nothing
        return
    EVENTS[event](hm)
    name, d_epoch, d_repl = expect
    if d_epoch is None:
        assert _observe(hm) == expect
    else:
        assert _observe(hm) == (name, _expected_counter(EPOCH, d_epoch),
                                _expected_counter(REPL, d_repl))
    if name == "tombstoned" and before[0] != "tombstoned":
        assert hm.moved[SID] == THIRD


def test_install_clears_the_tombstone_and_takes_the_hosting_rank():
    hm = _tombstoned()
    sh = hm.install(SID, _snap(REPL + 1, as_primary=True), ME)
    assert SID not in hm.moved
    assert (sh.primary, sh.role, sh.store) == (ME, PRIMARY, {"z": 26})
    assert sh.result_of(7, 1) == (40, 26)   # dedup records travel along
    backup = hm.install(SID, _snap(REPL + 2), ME)
    assert (backup.primary, backup.role) == (OTHER, BACKUP)


def test_delete_record_lists_only_the_keys_that_were_there():
    sh = _hosting(PRIMARY).shards[SID]
    assert sh.delete(["a", "nope"]) == ("del", ["a"], EPOCH + 1)
    assert sh.store == {"b": 2}


def test_update_is_applied_once_per_op_id():
    sh = _hosting(PRIMARY).shards[SID]

    def add(old, x):
        return old + x

    rec = sh.update(9, 1, "a", add, (10,))
    assert rec == ("upd", "a", 11, 9, 1, EPOCH + 1)
    assert sh.update(9, 1, "a", add, (10,)) is None      # the retry
    assert sh.result_of(9, 1) == (EPOCH + 1, 11)
    assert (sh.store["a"], sh.epoch) == (11, EPOCH + 1)
    with pytest.raises(KeyError):
        sh.update(9, 2, "missing", add, (1,))
    assert sh.update(9, 3, "missing", add, (1,), 100, True)[2] == 101


# ---------------------------------------------------------------------------
# (b) a primary/backup pair against a dict oracle
# ---------------------------------------------------------------------------

WINDOW = 6
_keys = st.sampled_from(["a", "b", "c", "d"])
_vals = st.integers(-50, 50)


def _add(old, x):
    return old + x


class ReplicatedPair(RuleBasedStateMachine):
    """Every mutation goes primary -> record -> backup.replay; clients
    retry updates; the primary dies and the backup takes over; a fresh
    backup is installed from a snapshot.  The dedup window is shrunk to
    ``WINDOW`` so eviction is exercised."""

    def __init__(self):
        super().__init__()
        self._saved_window = shard_mod.APPLIED_WINDOW
        shard_mod.APPLIED_WINDOW = WINDOW
        self.ranks = itertools.count(2)
        self.primary = Shard(SID, PRIMARY, 0, 1)
        self.backup = Shard(SID, BACKUP, 0, 1)
        self.oracle: dict = {}
        self.done: list = []        # [(src, op_id, key, arg, result)]
        self.op_ids = itertools.count(1)

    def teardown(self):
        shard_mod.APPLIED_WINDOW = self._saved_window

    def _log(self, rec):
        if rec is not None:
            self.backup.replay(self.primary.repl_epoch, [rec])
        assert self.backup.store == self.primary.store == self.oracle
        assert self.backup.applied == self.primary.applied
        assert self.backup.epoch == self.primary.epoch

    @rule(k=_keys, v=_vals)
    def put(self, k, v):
        self.oracle[k] = v
        self._log(self.primary.put({k: v}))

    @rule(k=_keys)
    def delete(self, k):
        rec = self.primary.delete([k])
        assert (rec is not None) == (k in self.oracle)
        self.oracle.pop(k, None)
        self._log(rec)

    @rule(src=st.integers(0, 2), k=_keys, arg=_vals)
    def update(self, src, k, arg):
        op_id = next(self.op_ids)
        want = self.oracle.get(k, 0) + arg
        rec = self.primary.update(src, op_id, k, _add, (arg,), 0, True)
        assert rec == ("upd", k, want, src, op_id, self.primary.epoch)
        self.oracle[k] = want
        self.done.append((src, op_id, k, arg, want))
        self._log(rec)

    @precondition(lambda self: self.done)
    @rule(data=st.data())
    def retry_a_recent_update(self, data):
        # Only ops still inside the window are guaranteed to dedup.
        src, op_id, k, arg, want = data.draw(
            st.sampled_from(self.done[-WINDOW:]))
        epoch = self.primary.epoch
        assert self.primary.update(src, op_id, k, _add, (arg,), 0,
                                   True) is None
        assert self.primary.epoch == epoch
        for copy in (self.primary, self.backup):
            assert copy.result_of(src, op_id)[1] == want
        self._log(None)

    @rule()
    def primary_dies_backup_takes_over(self):
        old_repl = self.backup.repl_epoch
        me = self.backup.backup
        self.backup.promote(me, next(self.ranks))
        assert self.backup.repl_epoch == old_repl + 1
        stale = self.primary
        self.primary = self.backup
        self.backup = Shard.from_snapshot(
            SID, self.primary.snapshot(), self.primary.backup)
        # the deposed primary's log is fenced off
        with pytest.raises(KvStalePrimary):
            self.primary.replay(stale.repl_epoch, [("put", {"x": 1}, 99)])
        self._log(None)

    @rule()
    def reinstall_the_backup(self):
        hm = HostedMap(nshards=4)
        hm.shards[SID] = self.backup
        self.backup = hm.install(SID, self.primary.snapshot(),
                                 self.primary.backup)
        assert self.backup.role == BACKUP
        self._log(None)

    @invariant()
    def window_is_bounded(self):
        assert len(self.primary.applied) <= WINDOW
        assert len(self.backup.applied) <= WINDOW


ReplicatedPair.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
test_replicated_pair = ReplicatedPair.TestCase


# ---------------------------------------------------------------------------
# (c) the two wire layouts
# ---------------------------------------------------------------------------

def _through(codec_name, obj):
    codec = codecs_mod._codecs_by_name[codec_name]
    enc = codecs_mod.Encoder()
    codec.encode(enc, obj)
    dec = codecs_mod.Decoder(memoryview(bytes(enc.out)), 0,
                             enc.buffers, enc.refs)
    return codec.decode(dec), enc


@pytest.mark.parametrize("as_primary", [False, True])
def test_snapshot_codec_from_snapshot_round_trip(as_primary):
    sh = Shard(SID, PRIMARY, ME, None if as_primary else OTHER)
    sh.put({"k": [1, 2, 3], ("t", 1): b"x" * 300, 7: None})
    sh.update(2, 11, "n", _add, (5,), 0, True)
    sh.update(0, 12, "n", _add, (1,))
    sh.repl_epoch = 4
    snap, enc = _through("kv_state", sh.snapshot(as_primary))
    assert snap == sh.snapshot(as_primary)
    assert not enc.used_pickle
    there = Shard.from_snapshot(SID, snap, THIRD)
    assert there.store == sh.store
    assert there.applied == sh.applied
    assert list(there.applied) == list(sh.applied)      # eviction order
    if as_primary:
        assert (there.role, there.primary) == (PRIMARY, THIRD)
        assert (there.epoch, there.repl_epoch) == (sh.epoch + 1, 5)
    else:
        assert (there.role, there.primary) == (BACKUP, ME)
        assert (there.epoch, there.repl_epoch) == (sh.epoch, 4)
    assert there.backup == sh.backup


def test_replication_records_round_trip_and_replay():
    primary = Shard(SID, PRIMARY, ME, OTHER)
    records = [
        primary.put({"a": 1, "b": [1, 2]}),
        primary.update(3, 1, "a", _add, (41,)),
        primary.delete(["b", "nope"]),
    ]
    wire, enc = _through("kv_repl", records)
    assert wire == records
    assert not enc.used_pickle
    backup = Shard(SID, BACKUP, ME, OTHER)
    backup.replay(primary.repl_epoch, wire)
    assert backup.store == primary.store == {"a": 42}
    assert backup.applied == primary.applied
    assert backup.epoch == primary.epoch == 3
