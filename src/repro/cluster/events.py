"""Discrete-event core of the cluster simulator.

One binary heap carries every event kind, ordered by the canonical
``(time, kind, seq)`` key:

* ``ARRIVAL``   — a request enters the cluster and is routed to a replica;
* ``DEADLINE``  — a queued request's batching wait bound expires, forcing
  dispatch of a partial group (``oldest.arrival_s + max_wait_s``);
* ``COMPLETION`` — a dispatched batch group finishes on its replica;
* fault/control kinds (``CRASH``/``RECOVER``/``JOIN``/``DRAIN``/
  ``SLOW_START``/``SLOW_END``/``RETRY``) — scheduled by a compiled
  :class:`~repro.cluster.faults.FaultPlan` and by the retry policy.

Simultaneous events (equal timestamps) order by kind first — completions
before arrivals before deadlines — then FIFO by sequence number within a
kind. The kind ranking encodes the simulator's instantaneous semantics:
a group finishing at time *t* releases its replica's load before any
request arriving at *t* is routed (so load-aware routers see the freed
capacity), and an arrival at *t* may complete a group before a deadline
at *t* forces a partial dispatch. Before this key existed the tie order
depended on heap insertion history, which made the serial loop's output
incomparable to the batched engine, which schedules the same events in
a different order (see :mod:`repro.cluster.engines`).

Deadline events are scheduled eagerly (one per enqueued request) and
validated lazily when popped: a stale deadline — its request already
dispatched — is a no-op. This keeps the queue O(N log N) without the
bookkeeping of cancellable timers.

Representation: an :class:`Event` is a ``NamedTuple`` whose first three
fields are the key, so heap sifts run as C tuple comparisons; ``seq`` is
unique per queue, so a comparison never reaches ``kind`` or ``payload``.
The arrival stream is never pushed: :class:`EventQueue` takes it pre-sorted
and reads it through an index pointer, assigning arrival *i* the sequence
number *i* — exactly the seqs the arrivals would have drawn had they been
pushed first — so the pop order is unchanged while the heap only holds
the (far fewer) scheduled events.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, NamedTuple, Sequence

ARRIVAL = "arrival"
DEADLINE = "deadline"
COMPLETION = "completion"

# Fault-injection event kinds (see :mod:`repro.cluster.faults`). They
# ride the same heap with the same canonical key, so a fault schedule is
# deterministic for a fixed seed exactly like the request schedule.
CRASH = "crash"  # replica fail-stop; in-flight groups abort
RECOVER = "recover"  # crashed replica rejoins the healthy set
JOIN = "join"  # autoscale-up: replica starts serving at this time
DRAIN = "drain"  # autoscale-down: stop admitting, requeue backlog
SLOW_START = "slow-start"  # straggler window opens (service-time multiplier)
SLOW_END = "slow-end"  # straggler window closes
RETRY = "retry"  # a backed-off request re-enters routing

# Iteration-level scheduling (see :mod:`repro.serving.scheduler`): one
# event per decode-step boundary on a replica. Ranked after every other
# kind so that all arrivals/retries stamped at *t* are routed before the
# step boundary at *t* admits from the queue.
DECODE_STEP = "decode-step"

# Canonical same-timestamp ranking (see module docstring). The batched
# engine reproduces exactly this order without a heap, which is what
# makes its reports byte-identical to the serial loop's.
# Fault/control events sit between completions and arrivals: a group
# finishing at *t* still lands first, then the fleet's health changes,
# then backed-off retries re-route, and only then are new arrivals at
# *t* routed — so routers always see the post-fault healthy set.
KIND_PRIORITY = {
    COMPLETION: 0,
    CRASH: 1,
    RECOVER: 2,
    JOIN: 3,
    DRAIN: 4,
    SLOW_START: 5,
    SLOW_END: 6,
    RETRY: 7,
    ARRIVAL: 8,
    DEADLINE: 9,
    DECODE_STEP: 10,
}


#: Tolerance of the batching-deadline check: a replica's queue head is
#: due once ``head.arrival_s + max_wait_s <= now + DEADLINE_EPS``. The
#: batched engine evaluates the very same float expression.
DEADLINE_EPS = 1e-9

_ARRIVAL_PRIORITY = KIND_PRIORITY[ARRIVAL]
_new = tuple.__new__  # builds an Event without the Python-level __new__


class Event(NamedTuple):
    """One scheduled simulator event; ordering key is (time, kind, seq).

    Attributes:
        time: simulation timestamp (seconds).
        priority: kind rank within a timestamp (:data:`KIND_PRIORITY`).
        seq: FIFO tie-breaker within a (timestamp, kind) class; unique
            per queue, so ordering never compares ``kind``/``payload``.
        kind: event type (ARRIVAL / DEADLINE / COMPLETION / ...).
        payload: event-specific data (request, replica id, ...).
    """

    time: float
    priority: int
    seq: int
    kind: str
    payload: Any = None


class EventQueue:
    """Time-ordered event heap with (kind, FIFO) tie-breaking.

    Args:
        arrivals: requests sorted by ``arrival_s`` (stable). They become
            ``ARRIVAL`` events with seqs ``0..n-1`` without entering the
            heap; events pushed later draw seqs from ``n`` on.
    """

    def __init__(self, arrivals: Sequence = ()) -> None:
        self._heap: list[Event] = []
        self._arrivals = arrivals
        self._next = 0
        self._seq = len(arrivals)

    def push(self, time: float, kind: str, payload: Any = None) -> None:
        seq = self._seq
        self._seq = seq + 1
        heappush(
            self._heap,
            _new(Event, (time, KIND_PRIORITY[kind], seq, kind, payload)),
        )

    def pop(self) -> Event:
        i = self._next
        heap = self._heap
        if i < len(self._arrivals):
            request = self._arrivals[i]
            event = _new(
                Event, (request.arrival_s, _ARRIVAL_PRIORITY, i, ARRIVAL, request)
            )
            if not heap or event < heap[0]:
                self._next = i + 1
                return event
        return heappop(heap)

    def __len__(self) -> int:
        return len(self._heap) + len(self._arrivals) - self._next

    def __bool__(self) -> bool:
        return bool(self._heap) or self._next < len(self._arrivals)
