"""Pluggable request-routing policies for the cluster front door.

A :class:`Router` picks the replica each arriving request is queued on.
All policies are deterministic (ties break on replica id) so cluster runs
are exactly reproducible for a fixed seed:

* ``round-robin``        — classic rotation, oblivious to load and content;
* ``least-outstanding``  — join the replica with the fewest requests that
  are queued or in flight (the standard load-aware baseline);
* ``expert-affinity``    — send a request to a replica whose VRAM holds its
  hot expert (tagged from :mod:`repro.routing.popularity` statistics),
  falling back to least-outstanding when the affine replicas are
  overloaded by more than ``slack`` requests. This keeps hot-expert
  traffic where the weights already live, avoiding per-group expert
  fetch penalties at the cost of some load skew.
"""

from __future__ import annotations

from repro.api.registry import ROUTERS as _ROUTER_REGISTRY
from repro.api.registry import register_router
from repro.cluster.replica import Replica
from repro.serving.requests import Request


def least_loaded(replicas: list[Replica]) -> Replica:
    """The replica minimizing ``(outstanding(), replica_id)``.

    One inline scan per arrival: the load is read as ``len(queue) +
    inflight`` (the body of :meth:`Replica.outstanding`), with no key
    lambda or method call per replica.
    """
    best = replicas[0]
    best_load = len(best.queue) + best.inflight
    best_id = best.replica_id
    for replica in replicas:
        load = len(replica.queue) + replica.inflight
        if load < best_load or (load == best_load and replica.replica_id < best_id):
            best, best_load, best_id = replica, load, replica.replica_id
    return best


class Router:
    """Base class: stateless or stateful replica selection.

    Health-aware routing contract: ``choose`` receives only the replicas
    eligible for new work. Under fault injection
    (:mod:`repro.cluster.faults`) the simulator filters out replicas
    that are down, draining, or circuit-broken *before* calling the
    router, so every policy — including custom registrations — is
    failover-capable without knowing faults exist. Policies must
    therefore never assume ``replicas`` is the full fleet or that ids
    are contiguous.
    """

    name = "base"

    def choose(
        self, request: Request, replicas: list[Replica], now: float
    ) -> Replica:
        raise NotImplementedError

    def plan_assignments(
        self, requests: list[Request], replicas: list[Replica]
    ) -> list[int] | None:
        """Precompute the replica index for every request, or ``None``.

        The batched engine (:mod:`repro.cluster.engines`) can only
        partition work per replica when routing is independent of
        simulated load — i.e. when the sequence of :meth:`choose` results
        is a pure function of the arrival-sorted request stream. A router
        that can prove this returns the exact assignment the serial event
        loop would produce, one replica index per request in
        arrival-sorted order, and must leave its own state as if
        :meth:`choose` had been called once per request. Load-coupled
        policies return ``None`` (the default), which makes the engine
        fall back to an in-order event walk.
        """
        return None


@register_router("round-robin")
class RoundRobinRouter(Router):
    """Rotate through replicas irrespective of load or content."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(
        self, request: Request, replicas: list[Replica], now: float
    ) -> Replica:
        replica = replicas[self._next % len(replicas)]
        self._next += 1
        return replica

    def plan_assignments(
        self, requests: list[Request], replicas: list[Replica]
    ) -> list[int] | None:
        """Rotation is load-oblivious: assignment i is just ``(next + i) % R``."""
        start, n = self._next, len(replicas)
        plan = [(start + i) % n for i in range(len(requests))]
        self._next += len(requests)
        return plan


@register_router("least-outstanding")
class LeastOutstandingRouter(Router):
    """Join the replica with the fewest queued + in-flight requests."""

    name = "least-outstanding"

    def choose(
        self, request: Request, replicas: list[Replica], now: float
    ) -> Replica:
        return least_loaded(replicas)


@register_router("expert-affinity")
class ExpertAffinityRouter(Router):
    """Prefer replicas whose VRAM already holds the request's hot expert.

    ``slack`` bounds how much extra backlog (in requests) an affine replica
    may carry over the cluster minimum before the router abandons affinity
    for plain least-outstanding. The default of 0 makes affinity a pure
    tie-break on top of least-outstanding — hot-expert traffic sticks to
    its replica only while that replica is no more loaded than the least
    loaded one, so the policy can trade misses for locality but never for
    load imbalance. Positive slack buys more locality at the risk of
    hot-replica queueing (see the router-comparison benchmark).
    """

    name = "expert-affinity"

    def __init__(self, slack: int = 0) -> None:
        self.slack = slack

    def choose(
        self, request: Request, replicas: list[Replica], now: float
    ) -> Replica:
        fallback = least_loaded(replicas)
        if request.hot_expert is None:
            return fallback
        affine = [
            r for r in replicas if request.hot_expert in r.resident_experts
        ]
        if not affine:
            return fallback
        best = least_loaded(affine)
        if best.outstanding() - fallback.outstanding() > self.slack:
            return fallback
        return best

    def plan_assignments(
        self, requests: list[Request], replicas: list[Replica]
    ) -> list[int] | None:
        """Plannable only when affinity provably decides every choice.

        Two conditions make the load terms vanish: ``slack`` at least the
        stream length (an affine replica's backlog can never exceed the
        number of requests routed so far, so the overload fallback can
        never fire), and every request's hot expert resident on *exactly*
        one replica (so the affine minimum is a singleton, independent of
        ``outstanding()``). Partitioned fleets with pinned hot experts
        satisfy both; anything else routes through load and returns None.
        """
        if self.slack < len(requests):
            return None
        owners: dict[int, int] = {}
        for i, replica in enumerate(replicas):
            for expert in replica.resident_experts:
                owners[expert] = -1 if expert in owners else i
        plan = []
        for request in requests:
            if request.hot_expert is None:
                return None
            owner = owners.get(request.hot_expert)
            if owner is None or owner < 0:
                return None
            plan.append(owner)
        return plan


def make_router(name: str, **options) -> Router:
    """Instantiate a router policy by registry name.

    Args:
        name: a :data:`repro.api.registry.ROUTERS` name (``round-robin``,
            ``least-outstanding``, or ``expert-affinity``).
        **options: factory keyword arguments (e.g. ``slack`` for the
            expert-affinity router).

    Returns:
        A fresh :class:`Router` instance.

    Raises:
        ValueError: for an unknown name (with a typo suggestion).
    """
    return _ROUTER_REGISTRY.get(name)(**options)
