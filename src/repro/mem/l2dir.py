"""Home L2 slice + MESI directory controller.

Each tile owns one L2 slice; lines are interleaved across slices
round-robin (:func:`repro.mem.address.home_of`).  The directory is
*blocking per line*: while a GetS/GetM transaction for a line is in flight,
later GetS/GetM for the same line queue at the home and are served strictly
in arrival order.  This is the serialization point that makes the whole
memory system linearizable and is exactly the structure highly-contended
lock lines stress.

Owner responses (``RecallData``/``RecallAck``) can cross in flight with the
owner's own eviction notices (``WBData``/``EvictClean``); the home applies a
*first-owner-message-wins* rule — whichever arrives first completes the
recall, and a subsequent stale ``RecallAck(present=False)`` is dropped
(FIFO routing guarantees the eviction notice precedes the stale ack).

On a compiled simulator, one C ``L2Dir`` object per slice (over the C
``TagArray``) carries the whole directory: the instance binds the message
handlers, :meth:`may_evict` and :meth:`stuck_lines` to it, and every
transaction step runs in C, queued on the event loop with the delays and
in the order the methods below queue it.  The methods below are the pure
fallback and the behavioural reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.mem import protocol as P
from repro.mem.cache import TagArray
from repro.noc.messages import Message
from repro.noc.topology import Mesh
from repro.sim.config import CMPConfig
from repro.sim.kernel import Simulator, compiled_for
from repro.sim.stats import CounterSet

__all__ = ["L2DirectorySlice", "DIR_LATENCY"]

#: directory-state-only operation latency (the "+4" of the paper's "12+4")
DIR_LATENCY = 4

CLEAN, DIRTY = "clean", "dirty"


@dataclass(slots=True)
class DirEntry:
    """Directory state for one line homed at this slice."""

    owner: Optional[int] = None          # core holding E or M
    sharers: Set[int] = field(default_factory=set)
    busy: bool = False
    queue: Deque[Message] = field(default_factory=deque)
    # the transaction in flight (meaningful while ``busy``)
    kind: str = ""
    requester: int = -1
    fwd_owner: int = -1                  # owner the request was forwarded to
    was_sharer: bool = False             # Upgrade from a still-listed sharer
    # parked continuations, resumed by the matching message handler
    owner_wait: Optional[Callable] = None  # forward response in flight
    pending_acks: int = 0
    ack_wait: Optional[Callable] = None
    unblock_wait: Optional[Callable] = None  # requester unblock in flight
    unblock_pending: bool = False            # unblock arrived early

    @property
    def held_by_l1(self) -> bool:
        return self.owner is not None or bool(self.sharers)


class L2DirectorySlice:
    """The home node logic for one tile."""

    def __init__(
        self,
        sim: Simulator,
        config: CMPConfig,
        tile_id: int,
        mesh: Mesh,
        counters: CounterSet,
    ) -> None:
        self.sim = sim
        self.config = config
        self.tile_id = tile_id
        self.mesh = mesh
        self.counters = counters
        impl = compiled_for(sim)
        self.tags = (TagArray if impl is None else impl.TagArray)(config.l2)
        self._noc = config.noc
        # fused make_msg+send entry point, resolved once (bound C method
        # when the compiled mesh core is active)
        self._send_proto = mesh.send_proto
        self._schedule = sim.schedule
        # hot counters, resolved once (bumped on every home transaction)
        self._c_accesses = counters.bind("l2.accesses")
        self._c_data_accesses = counters.bind("l2.data_accesses")
        self._c_forwards = counters.bind("l2.forwards")
        # a pure directory keeps its entries in _dir; a compiled one is a
        # C object that owns the entries and runs the transactions, and
        # its bound methods shadow the pure ones below for every caller,
        # the route table included
        if impl is None:
            self._dir: Dict[int, DirEntry] = {}
        else:
            ctl = impl.L2Dir(
                self.tags, counters, self._c_accesses, self._c_data_accesses,
                self._c_forwards, mesh._core, config.noc, tile_id,
                config.n_cores, config.l2.latency, config.memory_latency,
                DIR_LATENCY, config.coherence == "mesi", CLEAN, DIRTY)
            self._on_request = ctl._on_request
            self._on_inv_ack = ctl._on_inv_ack
            self._on_unblock = ctl._on_unblock
            self._on_recall = ctl._on_recall
            self._on_owner_notice = ctl._on_owner_notice
            self.may_evict = ctl.may_evict
            self.stuck_lines = ctl.stuck_lines

    def _entry(self, line: int) -> DirEntry:
        entry = self._dir.get(line)
        if entry is None:
            entry = self._dir[line] = DirEntry()
        return entry

    def _send(self, dst: int, kind: str, line: int, extra: object = None) -> None:
        self._send_proto(self._noc, self.tile_id, dst, kind, line, extra)

    # ------------------------------------------------------------------ #
    # incoming messages (tile route table callbacks)
    # ------------------------------------------------------------------ #
    def route_table(self) -> Dict[str, object]:
        """Kind -> handler map for the tile dispatcher (one probe per msg)."""
        table = {kind: self._on_request
                 for kind in (P.GETS, P.GETM, P.UPGRADE)}
        table[P.INV_ACK] = self._on_inv_ack
        table[P.UNBLOCK] = self._on_unblock
        table[P.WB_DATA] = self._on_owner_notice
        table[P.EVICT_CLEAN] = self._on_owner_notice
        table[P.RECALL_DATA] = self._on_recall
        table[P.RECALL_ACK] = self._on_recall
        return table

    def _on_request(self, msg: Message) -> None:
        """GetS / GetM / Upgrade: start or queue a transaction."""
        line = msg.payload["line"]
        # every per-kind handler probes ``_dir`` inline and calls
        # ``_entry`` only on a miss: these run once per home-bound message
        entry = self._dir.get(line) or self._entry(line)
        if entry.busy:
            entry.queue.append(msg)
        else:
            self._start(line, entry, msg)

    def _on_inv_ack(self, msg: Message) -> None:
        line = msg.payload["line"]
        entry = self._dir.get(line) or self._entry(line)
        entry.pending_acks -= 1
        if entry.pending_acks == 0 and entry.ack_wait is not None:
            cont, entry.ack_wait = entry.ack_wait, None
            self._schedule(0, cont, line, entry)

    def _on_unblock(self, msg: Message) -> None:
        line = msg.payload["line"]
        entry = self._dir.get(line) or self._entry(line)
        if entry.unblock_wait is not None:
            cont, entry.unblock_wait = entry.unblock_wait, None
            self._schedule(0, cont, line, entry)
        else:
            entry.unblock_pending = True

    def _on_recall(self, msg: Message) -> None:
        line = msg.payload["line"]
        entry = self._dir.get(line) or self._entry(line)
        if entry.owner_wait is not None:
            cont, entry.owner_wait = entry.owner_wait, None
            self._schedule(0, cont, line, entry, msg)
        # else: stale ack from an owner whose eviction notice already
        # completed the recall -- drop (must be an absent-ack)
        elif not (msg.kind == P.RECALL_ACK
                  and not msg.payload["extra"]["present"]):
            raise RuntimeError(
                f"home {self.tile_id}: unexpected {msg.kind} for {line:#x}"
            )

    def _on_owner_notice(self, msg: Message) -> None:
        """WBData / EvictClean from the current owner."""
        line = msg.payload["line"]
        entry = self._dir.get(line) or self._entry(line)
        if msg.kind == P.WB_DATA and self.tags.lookup(line) is not None:
            self.tags.set_state(line, DIRTY)
        if entry.owner == msg.src:
            entry.owner = None
        if entry.owner_wait is not None:
            cont, entry.owner_wait = entry.owner_wait, None
            self._schedule(0, cont, line, entry, msg)

    # ------------------------------------------------------------------ #
    # transaction engine
    # ------------------------------------------------------------------ #
    # A transaction is a chain of callbacks over its DirEntry: each step
    # schedules the next after a latency, or parks it in a ``*_wait`` field
    # for the matching message handler above to resume at zero delay.
    def _start(self, line: int, entry: DirEntry, msg: Message) -> None:
        entry.busy = True
        self._schedule(0, self._begin, line, entry, msg.kind, msg.src)

    def _finish(self, line: int, entry: DirEntry) -> None:
        entry.busy = False
        if entry.queue:
            self._start(line, entry, entry.queue.popleft())

    def _begin(self, line: int, entry: DirEntry, kind: str,
               requester: int) -> None:
        self._c_accesses.value += 1
        owner = entry.owner
        if owner == requester:
            raise RuntimeError(
                f"home {self.tile_id}: {'GetS' if kind == P.GETS else 'GetM'}"
                f" from current owner {requester}"
            )
        entry.kind = kind
        entry.requester = requester
        if owner is None:
            self._serve(line, entry)
            return
        # forward to the E/M owner for a cache-to-cache serve
        entry.fwd_owner = owner
        entry.owner_wait = self._forwarded
        self._send(owner, P.FWD_GETS if kind == P.GETS else P.FWD_GETM,
                   line, {"requester": requester})

    def _forwarded(self, line: int, entry: DirEntry, resp: Message) -> None:
        """The owner's forward response (or crossing eviction notice): after
        a cache-to-cache serve wait for the requester's unblock, otherwise
        serve the requester from the home's own copy."""
        self._c_forwards.value += 1
        if resp.kind in (P.WB_DATA, P.RECALL_DATA):
            if self.tags.lookup(line) is not None:
                self.tags.set_state(line, DIRTY)
        still_present = (
            resp.kind == P.RECALL_DATA
            or (resp.kind == P.RECALL_ACK and resp.payload["extra"]["present"])
        )
        gets = entry.kind == P.GETS
        if gets and still_present:
            entry.sharers.add(entry.fwd_owner)
        entry.owner = None
        if not still_present:
            self._serve(line, entry)
            return
        if gets:
            entry.sharers.add(entry.requester)
        else:
            entry.owner = entry.requester
        if entry.unblock_pending:
            entry.unblock_pending = False
            self._finish(line, entry)
        else:
            entry.unblock_wait = self._finish

    def _serve(self, line: int, entry: DirEntry) -> None:
        """Serve the request from the home (no owner, or it had evicted)."""
        if entry.kind == P.GETS:
            self._l2_data(line, entry, self._reply_gets)
            return
        # a plain GetM from a listed sharer means that sharer evicted its S
        # copy silently -- the dataless GrantM is only safe for an Upgrade
        # whose copy is still valid (still listed => never invalidated since)
        requester = entry.requester
        sharers = entry.sharers
        entry.was_sharer = entry.kind == P.UPGRADE and requester in sharers
        to_invalidate = (sharers - {requester}) if sharers else ()
        if not to_invalidate:
            self._invalidated(line, entry)
            return
        self.counters.add("l2.invalidations", len(to_invalidate))
        entry.pending_acks = len(to_invalidate)
        entry.ack_wait = self._invalidated
        for sharer in sorted(to_invalidate):
            self._send(sharer, P.INV, line)

    def _invalidated(self, line: int, entry: DirEntry) -> None:
        entry.sharers.clear()
        if entry.was_sharer:                  # dir-state-only upgrade
            self._schedule(DIR_LATENCY, self._reply_getm, line, entry)
        else:
            self._l2_data(line, entry, self._reply_getm)

    def _reply_gets(self, line: int, entry: DirEntry) -> None:
        requester = entry.requester
        if (entry.owner is None and not entry.sharers
                and self.config.coherence == "mesi"):
            entry.owner = requester          # grant E (exclusive clean)
            self._send(requester, P.DATA_E, line)
        else:
            entry.sharers.add(requester)
            self._send(requester, P.DATA, line)
        self._finish(line, entry)

    def _reply_getm(self, line: int, entry: DirEntry) -> None:
        self._send(entry.requester,
                   P.GRANT_M if entry.was_sharer else P.DATA_M, line)
        entry.owner = entry.requester
        self._finish(line, entry)

    def _l2_data(self, line: int, entry: DirEntry, then: Callable) -> None:
        """Access the L2 data array, fetching from memory on a miss, then
        continue with ``then(line, entry)``."""
        if self.tags.lookup(line) is not None:
            self.tags.touch(line)
            self._c_data_accesses.value += 1
            self._schedule(self.config.l2.latency, then, line, entry)
            return
        # L2 miss -> memory
        self.counters.add("l2.misses")
        self.counters.add("mem.reads")
        self._schedule(self.config.l2.latency + self.config.memory_latency,
                       self._l2_fill, line, entry, then)

    def _l2_fill(self, line: int, entry: DirEntry, then: Callable) -> None:
        victim = self.tags.insert(line, CLEAN, may_evict=self.may_evict)
        if victim is not None:
            victim_line, victim_state = victim
            self.counters.add("l2.evictions")
            if victim_state == DIRTY:
                self.counters.add("mem.writes")
            self._dir.pop(victim_line, None)
        then(line, entry)

    # ------------------------------------------------------------------ #
    # L2 replacement and diagnostics
    # ------------------------------------------------------------------ #
    def may_evict(self, line: int) -> bool:
        """L2 victim filter: True when no L1 holds ``line`` ("soft
        associativity", see DESIGN.md)."""
        return not self._entry(line).held_by_l1

    def stuck_lines(self) -> List[int]:
        """Lines whose transaction is busy or parked on a message, in
        directory order (the sanitizer's drain check)."""
        return [line for line, entry in self._dir.items()
                if entry.busy or entry.owner_wait or entry.ack_wait
                or entry.unblock_wait]
