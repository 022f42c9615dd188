"""Cross-engine differential testing for the cluster simulator.

The cluster layer keeps two execution engines — the serial event loop
(the executable specification) and the batched group-granular scan
(:mod:`repro.cluster.engines`). The speed of the batched engine is only
trustworthy because this harness can prove, for any
:class:`~repro.api.RunConfig`, that both produce **the same report to the
last bit**: every request lifecycle op-for-op, every
counter, every per-replica telemetry sample, every percentile, and — as
a final catch-all — the canonical-JSON serialization of the whole
report. The fuzzer (``validate --fuzz --engine both``), the Hypothesis
suite (``tests/test_cluster_differential.py``), and the CI cluster job
all feed this oracle, so any future change that breaks the equivalence
is caught before it lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.canonical import canonical_json
from repro.cluster.engines import ENGINES
from repro.cluster.report import ClusterReport
from repro.errors import OutOfMemoryError
from repro.validation.goldens import _floats_to_repr

#: Engine names the harness exercises, reference first.
CLUSTER_ENGINES = ENGINES


@dataclass
class ClusterDifferentialResult:
    """Outcome of running one config under every cluster engine.

    Attributes:
        diffs: human-readable descriptions of every disagreement
            (empty when the engines agree bit-for-bit).
        oom: True when every engine raised :class:`OutOfMemoryError`.
        reports: per-engine :class:`ClusterReport` (absent on OOM).
        engines: the engines that were executed, reference first.
    """

    diffs: list[str] = field(default_factory=list)
    oom: bool = False
    reports: dict[str, ClusterReport] = field(default_factory=dict)
    engines: tuple = CLUSTER_ENGINES

    @property
    def ok(self) -> bool:
        """True when every engine agreed on every observable output."""
        return not self.diffs


def diff_cluster_reports(
    reference: ClusterReport,
    candidate: ClusterReport,
    *,
    labels: tuple[str, str] = ("reference", "candidate"),
    max_reports: int = 5,
    deep: bool = True,
) -> list[str]:
    """Diff two cluster reports of the same run op-for-op.

    Every comparison is exact (``!=`` on floats, no tolerances): the
    engines promise bit-identity, so the first ulp of drift is a bug.

    Args:
        reference: the trusted report (serial engine).
        candidate: the report under test.
        labels: names used in diff messages.
        max_reports: cap on reported per-record mismatches.
        deep: additionally compare the canonical-JSON serialization of
            both full report dicts — the catch-all that makes "nothing
            else differs" a checked claim rather than an assumption.
            Costs one serialization pass per report; heavy callers
            (million-request streams) may disable it once the
            structured comparisons pass.

    Returns:
        Descriptions of every observed disagreement.
    """
    ref_label, cand_label = labels
    diffs: list[str] = []

    if reference.counters != candidate.counters:
        keys = sorted(set(reference.counters) | set(candidate.counters))
        for key in keys:
            left = reference.counters.get(key)
            right = candidate.counters.get(key)
            if left != right:
                diffs.append(f"counter {key}: {left!r} != {right!r}")

    if len(reference.records) != len(candidate.records):
        diffs.append(
            f"record count: {len(reference.records)} != "
            f"{len(candidate.records)}"
        )
        return diffs

    bad = 0
    for i, (left, right) in enumerate(zip(reference.records, candidate.records)):
        same = (
            left.request.request_id == right.request.request_id
            and left.replica_id == right.replica_id
            and left.dispatch_s == right.dispatch_s
            and left.start_s == right.start_s
            and left.completion_s == right.completion_s
            and left.ttft_s == right.ttft_s
        )
        if same:
            continue
        bad += 1
        if bad <= max_reports:
            diffs.append(
                f"record {i}: {ref_label} (req {left.request.request_id} -> "
                f"replica {left.replica_id}, dispatch {left.dispatch_s!r}, "
                f"start {left.start_s!r}, completion {left.completion_s!r}, "
                f"ttft {left.ttft_s!r}) != {cand_label} "
                f"(req {right.request.request_id} -> replica "
                f"{right.replica_id}, dispatch {right.dispatch_s!r}, "
                f"start {right.start_s!r}, completion {right.completion_s!r}, "
                f"ttft {right.ttft_s!r})"
            )
    if bad > max_reports:
        diffs.append(f"... {bad - max_reports} more record diffs")

    if reference.makespan_s != candidate.makespan_s:
        diffs.append(
            f"makespan: {reference.makespan_s!r} != {candidate.makespan_s!r}"
        )
    if len(reference.replicas) != len(candidate.replicas):
        diffs.append(
            f"replica count: {len(reference.replicas)} != "
            f"{len(candidate.replicas)}"
        )
    else:
        for left, right in zip(reference.replicas, candidate.replicas):
            if left.to_dict(reference.makespan_s) != right.to_dict(
                candidate.makespan_s
            ):
                diffs.append(
                    f"replica {left.replica_id} telemetry differs "
                    f"(requests {left.requests}/{right.requests}, groups "
                    f"{left.groups}/{right.groups}, busy {left.busy_s!r}/"
                    f"{right.busy_s!r})"
                )
    for name, quantile in (
        ("p50_latency", 50),
        ("p95_latency", 95),
        ("p99_latency", 99),
    ):
        left = reference.percentile_latency(quantile)
        right = candidate.percentile_latency(quantile)
        if left != right:
            diffs.append(f"{name}: {left!r} != {right!r}")
    if reference.percentile_ttft(95) != candidate.percentile_ttft(95):
        diffs.append(
            f"p95_ttft: {reference.percentile_ttft(95)!r} != "
            f"{candidate.percentile_ttft(95)!r}"
        )

    if deep and not diffs:
        left = canonical_json(_floats_to_repr(reference.to_dict()))
        right = canonical_json(_floats_to_repr(candidate.to_dict()))
        if left != right:
            diffs.append(
                "canonical report JSON differs despite structured fields "
                "matching (serialization-level divergence)"
            )
    return diffs


def run_cluster_differential(
    config,
    *,
    engines: tuple = CLUSTER_ENGINES,
    shared_cache: dict | None = None,
    requests: list | None = None,
    max_reports: int = 5,
    deep: bool = True,
) -> ClusterDifferentialResult:
    """Run one config under every engine and diff every observable.

    The request stream is generated once and shared; each engine gets a
    freshly built fleet (a simulator accumulates replica state, so
    reusing one would compare a warm fleet against a cold one). Group
    timings may share a cache across engines — the memo is keyed purely
    by the simulated computation, so sharing changes speed, not results.

    Args:
        config: the :class:`~repro.api.RunConfig` to execute (its own
            ``cluster.engine`` field is ignored — this harness picks).
        engines: engines to execute, reference first.
        shared_cache: group-timing cache forwarded to every fleet build
            (pass ``{}`` to isolate the whole differential).
        requests: pre-built stream (default: built from the config).
        max_reports: cap on reported per-record mismatches per engine.
        deep: forward to :func:`diff_cluster_reports`.

    Returns:
        A :class:`ClusterDifferentialResult`; ``result.ok`` means every
        engine agreed bit-for-bit (or all consistently hit OOM).
    """
    from repro.api.run import build_requests, run_cluster

    result = ClusterDifferentialResult(engines=tuple(engines))
    if requests is None:
        requests = build_requests(config)

    errors: dict[str, OutOfMemoryError] = {}
    for engine in result.engines:
        try:
            result.reports[engine] = run_cluster(
                config,
                shared_cache=shared_cache,
                requests=requests,
                engine=engine,
            )
        except OutOfMemoryError as exc:
            errors[engine] = exc

    if errors and len(errors) < len(result.engines):
        survivors = [e for e in result.engines if e not in errors]
        for engine, exc in errors.items():
            result.diffs.append(
                f"only {engine} raised OOM ({exc}); "
                f"{', '.join(survivors)} completed"
            )
        return result
    if errors:
        # All engines died. Which allocation trips first is an engine
        # scheduling detail (the serial loop hits the earliest failure in
        # event-time order, the batched scan the lowest replica id), so payloads
        # are not compared — consistent failure is the contract.
        result.oom = True
        return result

    reference_engine = result.engines[0]
    reference = result.reports[reference_engine]
    for engine in result.engines[1:]:
        result.diffs.extend(
            diff_cluster_reports(
                reference,
                result.reports[engine],
                labels=(reference_engine, engine),
                max_reports=max_reports,
                deep=deep,
            )
        )
    return result
