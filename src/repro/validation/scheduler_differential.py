"""Group-vs-continuous scheduler differential (conservation oracle).

The two dispatch disciplines (:mod:`repro.serving.scheduler`) produce
legitimately different timings — iteration-level admission exists to
change TTFT and tail latency — so unlike the engine differential
(:mod:`repro.validation.cluster_differential`) this harness does not
demand bit-identity. What both schedulers must agree on, for any config
and stream, is *conservation*: both reports pass every
:func:`repro.validation.check_cluster` invariant against the same
submitted stream, so every request terminates exactly once under each
discipline. This is the oracle behind the ``scheduler
differential`` CI job and ``tests/test_scheduler.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.cluster.report import ClusterReport
from repro.validation.invariants import check_cluster

#: Scheduler names the harness exercises, reference first.
CLUSTER_SCHEDULERS = ("group", "continuous")


@dataclass
class SchedulerDifferentialResult:
    """Outcome of running one config under every dispatch discipline.

    Attributes:
        diffs: human-readable descriptions of every conservation or
            invariant failure (empty when both schedulers are sound).
        reports: per-scheduler :class:`ClusterReport`.
        schedulers: the disciplines that were executed, reference first.
    """

    diffs: list[str] = field(default_factory=list)
    reports: dict[str, ClusterReport] = field(default_factory=dict)
    schedulers: tuple = CLUSTER_SCHEDULERS

    @property
    def ok(self) -> bool:
        """True when both schedulers conserved every request."""
        return not self.diffs


def run_scheduler_differential(
    config,
    *,
    shared_cache: dict | None = None,
    requests: list | None = None,
    schedulers: tuple = CLUSTER_SCHEDULERS,
) -> SchedulerDifferentialResult:
    """Run one config under every scheduler and check conservation.

    The request stream is generated once and shared; each scheduler gets
    a freshly built fleet (simulators are single-use). The config's own
    ``cluster.scheduler`` field is ignored — this harness picks.

    Args:
        config: the :class:`~repro.api.RunConfig` to execute.
        shared_cache: group-timing cache forwarded to every fleet build
            (pass ``{}`` to isolate the whole differential).
        requests: pre-built stream (default: built from the config).
        schedulers: disciplines to execute, reference first.

    Returns:
        A :class:`SchedulerDifferentialResult`; ``result.ok`` means both
        disciplines conserved the stream and passed every invariant.
    """
    from repro.api.run import build_requests, run_cluster

    result = SchedulerDifferentialResult(schedulers=tuple(schedulers))
    if requests is None:
        requests = build_requests(config)
    # check_cluster holds each report to the one submitted stream (no
    # request lost, doubled or invented), so two reports that both pass
    # it terminate the same id set: no cross-scheduler recount needed.
    for name in result.schedulers:
        run = dataclasses.replace(
            config, cluster=dataclasses.replace(config.cluster, scheduler=name)
        )
        report = run_cluster(run, shared_cache=shared_cache, requests=requests)
        result.reports[name] = report
        for violation in check_cluster(report, requests):
            result.diffs.append(f"{name}: invariant {violation}")
    return result
