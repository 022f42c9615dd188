"""The declarative configuration tree: one typed surface for every run.

A :class:`RunConfig` fully describes one evaluation: the
:class:`ScenarioConfig` (model x hardware x workload x routing
statistics), the :class:`SystemConfig` (which registered inference
system, with what options), and — for serving runs — a
:class:`ClusterConfig` (fleet shape and router) plus a
:class:`ServeConfig` (arrival process and hot-expert tagging).

The contract, checked once and centrally:

* **one strict parser** — :func:`parse` turns a plain dict into any
  config dataclass, reading field names, types and defaults from the
  dataclass itself; sections, inline model/hardware specs, fault models,
  retry policies and registry-factory options all go through it, so
  every level gives the same messages ("expected int, got str", "did
  you mean 'batch_size'?");
* **strict, round-tripping serialization** — ``from_dict(to_dict(c)) == c``
  for every config (:func:`to_plain` is the one serializer);
* **aggregated validation** — every problem in the tree is collected
  into one :class:`~repro.errors.ConfigValidationError` report, so one
  fix cycle sees all the damage;
* **registry-backed resolution** — models, environments, systems,
  routers, and arrival processes are referenced by registry name (or,
  for models/hardware, an inline spec dict), so a plugin registered with
  ``@register_system`` is immediately constructible from JSON.

Because serialization is canonical (:mod:`repro.api.canonical`), a
``RunConfig``'s dict form doubles as a content address: the experiment
cache, golden traces, and fuzzer replay blobs all hash it directly.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import types
import typing
from dataclasses import dataclass, field
from typing import get_args, get_origin, get_type_hints

from repro.api.registry import (
    ARRIVALS,
    FAULT_PRESETS,
    HARDWARE_PRESETS,
    MODEL_PRESETS,
    PASSES,
    ROUTERS,
    SCHEDULERS,
    SYSTEMS,
    suggest,
    unknown_name_message,
)
from repro.errors import ConfigError, ConfigValidationError

SCHEMA_VERSION = 1

# Scenario keys shared with the flat experiment-cell parameter dialect
# (see to_cell_params/from_cell_params). Order matters: it is the
# emission order of the legacy dialect, which cache keys hash.
_CELL_KEYS = ("model", "env", "batch_size", "n", "prompt_len", "gen_len", "seed")

_HOT_EXPERT_MODES = ("auto", "zipf", "pin", "none")

# Field metadata: drop the field from to_plain output while it is empty,
# so configs predating the field keep their hashes.
_OMIT_EMPTY = {"omit_empty": True}


class Errors:
    """Collects ``path: message`` strings across a config tree."""

    def __init__(self):
        self.items: list[str] = []

    def add(self, path: str, message: str) -> None:
        """Record one problem at ``path`` (empty path: top level)."""
        self.items.append(f"{path}: {message}" if path else message)

    def raise_if_any(self, what: str) -> None:
        """Raise one aggregated :class:`ConfigValidationError`."""
        if self.items:
            raise ConfigValidationError(what, self.items)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# ---- the one parser -----------------------------------------------------------

_UNIONS = (typing.Union, types.UnionType)
_BAD = object()  # a value that failed to parse (already reported)


@functools.cache
def _schema(factory) -> dict | None:
    """Keyword name -> (type, required) that a dataclass or registry
    factory accepts, resolved once.

    The names come from the signature (a factory whose ``__wrapped__``
    is a dataclass takes that dataclass's fields), the types from
    ``get_type_hints``; unannotated parameters accept any value. A
    factory taking ``**options`` accepts anything: schema ``None``.
    """
    target = inspect.unwrap(factory)
    plain_class = isinstance(target, type) and not dataclasses.is_dataclass(target)
    try:
        hints = get_type_hints(target.__init__ if plain_class else target)
    except (NameError, TypeError):
        hints = {}
    schema = {}
    for p in inspect.signature(target).parameters.values():
        if p.kind is p.VAR_KEYWORD:
            schema = None
            break
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY):
            schema[p.name] = (hints.get(p.name, object), p.default is p.empty)
    return schema


def _describe(typ) -> str:
    if get_origin(typ) in _UNIONS:
        return " or ".join(_describe(t) for t in get_args(typ))
    if get_origin(typ) is tuple:
        args = get_args(typ)
        if len(args) == 2 and args[1] is Ellipsis:
            return f"a list of {_describe(args[0])}"
        return f"[{', '.join(_describe(t) for t in args)}]"
    if typ is type(None):
        return "null"
    if dataclasses.is_dataclass(typ):
        return f"a {typ.__name__} dict"
    return getattr(typ, "__name__", str(typ))


def _accepts(typ, value) -> bool:
    """Whether a JSON value has the shape of ``typ`` (bool is not an int;
    an int is accepted for a float)."""
    if typ is type(None):
        return value is None
    if dataclasses.is_dataclass(typ) or typ is dict or get_origin(typ) is dict:
        return isinstance(value, dict)
    if typ is tuple or get_origin(typ) is tuple:
        return isinstance(value, (list, tuple))
    if typ in (int, float):
        return isinstance(value, (int, typ)) and not isinstance(value, bool)
    return not isinstance(typ, type) or isinstance(value, typ)


def _value(typ, value, path: str, errors: Errors):
    """Parse one field value against its annotation (``_BAD`` on error)."""
    if dataclasses.is_dataclass(typ):
        parsed = parse(typ, value, path, errors)
        return _BAD if parsed is None else parsed
    members = get_args(typ) if get_origin(typ) in _UNIONS else (typ,)
    member = next((m for m in members if _accepts(m, value)), None)
    if member is None:
        errors.add(path, f"expected {_describe(typ)}, got {type(value).__name__}")
        return _BAD
    if member is not typ:
        return _value(member, value, path, errors)
    if typ is tuple or get_origin(typ) is tuple:
        args = get_args(typ) or (object, ...)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(args) != len(value):
            errors.add(path, f"expected {_describe(typ)}, got {len(value)} items")
            return _BAD
        # Element problems are reported at the field's own path.
        items = tuple(_value(t, v, path, errors) for t, v in zip(args, value))
        return _BAD if any(item is _BAD for item in items) else items
    if typ is dict or get_origin(typ) is dict:
        return dict(value)
    if typ is float:
        return float(value)
    return value


def _fields(schema: dict | None, data, path: str, errors: Errors) -> dict | None:
    """Parse ``data``'s keys against a schema into constructor kwargs.

    Unknown keys are reported with a close-match suggestion; a field
    that fails to parse is left out, so its default applies. Returns
    None when a required field is missing or bad.
    """
    if schema is None:
        return dict(data)
    unknown = [key for key in data if key not in schema]
    for key in unknown:
        guess = suggest(key, schema)
        hint = f"; did you mean {guess!r}?" if guess else ""
        errors.add(
            _join(path, str(key)),
            f"unknown key{hint} (known: {', '.join(sorted(schema)) or 'none'})",
        )
    kwargs = {}
    complete = True
    for key, value in data.items():
        if key in schema:
            parsed = _value(schema[key][0], value, _join(path, key), errors)
            if parsed is not _BAD:
                kwargs[key] = parsed
            elif schema[key][1]:
                complete = False
    missing = [k for k, (_, required) in schema.items() if required and k not in data]
    # A misspelt key already explains the required key it replaced.
    if missing and not unknown:
        errors.add(path, f"missing required keys: {', '.join(missing)}")
    return kwargs if complete and not missing else None


def parse(
    cls, data, path: str = "", errors: Errors | None = None, what: str = "config"
):
    """Strictly build the dataclass ``cls`` from a plain-JSON dict.

    Field names, types and defaults come from the dataclass (nested
    dataclass fields recurse). A ``__post_init__`` ``ValueError`` is
    reported at ``path``. Two optional class hooks: ``_shorthand(data)``
    expands an abbreviated form first, and ``_validate(path, errors)``
    adds cross-field and registry checks to the built instance.

    Args:
        cls: the dataclass to build.
        data: its plain dict form.
        path: error-report prefix.
        errors: outer collector; when omitted, problems raise one
            aggregated :class:`~repro.errors.ConfigValidationError`
            titled ``invalid <what>``.
        what: the report title when raising.

    Returns:
        The instance (fields with errors keep their defaults so checks
        can continue), or None when ``data`` is not a dict, a required
        field is missing or bad, or construction fails.
    """
    if errors is None:
        errors = Errors()
        parsed = parse(cls, data, path, errors)
        errors.raise_if_any(what)
        return parsed
    if hasattr(cls, "_shorthand"):
        data = cls._shorthand(data)
    if not isinstance(data, dict):
        errors.add(path, f"expected {_describe(cls)}, got {type(data).__name__}")
        return None
    kwargs = _fields(_schema(cls), data, path, errors)
    if kwargs is None:
        return None
    try:
        parsed = cls(**kwargs)
    except (ConfigError, ValueError) as exc:
        errors.add(path, str(exc))
        return None
    if hasattr(parsed, "_validate"):
        parsed._validate(path, errors)
    return parsed


def parse_options(factory, options: dict, path: str, errors: Errors) -> dict:
    """Parse registry-factory keyword options against the factory's schema.

    Returns:
        The parsed keyword arguments (bad options left out).
    """
    return _fields(_schema(factory), options, path, errors) or {}


def to_plain(config) -> dict:
    """The plain-JSON form of a config dataclass.

    Fields in declaration order; tuples become lists, nested dataclasses
    and dicts are copied. ``None`` fields, and fields marked
    ``_OMIT_EMPTY`` while empty, are left out.
    """
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if value is None or (not value and f.metadata.get("omit_empty")):
            continue
        out[f.name] = _plain(value)
    return out


def _plain(value):
    if dataclasses.is_dataclass(value):
        return to_plain(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return copy.deepcopy(value)
    return value


# ---- validation helpers -------------------------------------------------------


def _check(path: str, errors: Errors, checks) -> None:
    """Report every failed ``(key, ok, message)`` field check."""
    for key, ok, message in checks:
        if not ok:
            errors.add(_join(path, key), message)


def _known(kind: str, name, registry, path: str, errors: Errors) -> bool:
    """Whether ``name`` is in ``registry``; reports it (with a typo
    suggestion) when not."""
    if name in registry:
        return True
    names = registry.names() if hasattr(registry, "names") else registry
    errors.add(path, unknown_name_message(kind, name, names))
    return False


def _resolve_model(model, path: str, errors: Errors):
    """Resolve a model reference (preset name or inline spec dict)."""
    from repro.model.config import ModelConfig

    if isinstance(model, str):
        if _known("model preset", model, MODEL_PRESETS, path, errors):
            return MODEL_PRESETS.get(model)
        return None
    return parse(ModelConfig, model, path, errors)


def _resolve_hardware(env, path: str, errors: Errors):
    """Resolve a hardware reference (preset name or inline spec dict)."""
    from repro.hardware.spec import HardwareSpec

    if isinstance(env, str):
        if _known("hardware preset", env, HARDWARE_PRESETS, path, errors):
            return HARDWARE_PRESETS.get(env)
        return None
    return parse(HardwareSpec, env, path, errors)


@dataclass(frozen=True)
class ScenarioConfig:
    """One evaluation point, declaratively.

    The single source of the scenario defaults: the CLI flags, the
    experiment-grid cell dialect, and the fuzzer all derive from this
    schema (fields, types, defaults), so they cannot drift apart.

    Attributes:
        model: model preset name, or an inline
            :class:`~repro.model.config.ModelConfig` field dict.
        env: hardware preset name, or an inline
            :class:`~repro.hardware.spec.HardwareSpec` field dict.
        batch_size: sequences per batch.
        n: batches per batch group (the paper's ``n``).
        prompt_len: prompt tokens per sequence.
        gen_len: generated tokens per sequence.
        seed: routing RNG seed (pins the token stream).
        skew: Zipf skew of the synthetic expert-popularity model.
        correlation: inter-layer routing correlation strength.
        prefill_token_cap: cap on sampled prefill tokens per batch.
    """

    model: str | dict = "mixtral-8x7b"
    env: str | dict = "env1"
    batch_size: int = 16
    n: int = 1
    prompt_len: int = 512
    gen_len: int = 8
    seed: int = 0
    skew: float = 1.1
    correlation: float = 0.55
    prefill_token_cap: int = 2048

    # ---- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form (the canonical serialization hashes this)."""
        return to_plain(self)

    @classmethod
    def from_dict(
        cls, data: dict, *, path: str = "scenario", errors: Errors | None = None
    ) -> "ScenarioConfig":
        """Strictly parse a scenario dict (see :func:`parse`)."""
        return parse(cls, data, path, errors, "scenario config")

    # ---- the flat experiment-cell dialect ---------------------------------

    def to_cell_params(self) -> dict:
        """The flat parameter dict the experiment grids hash.

        Only the keys the legacy dialect carried are emitted (routing
        statistics must be at their defaults), which is what keeps every
        pre-existing cache key and golden trace bit-identical.

        Raises:
            ConfigError: when this config cannot be expressed in the
                flat dialect (inline specs, non-default routing stats).
        """
        defaults = ScenarioConfig()
        if not isinstance(self.model, str) or not isinstance(self.env, str):
            raise ConfigError("cell params require preset names, not inline specs")
        for key in ("skew", "correlation", "prefill_token_cap"):
            if getattr(self, key) != getattr(defaults, key):
                raise ConfigError(
                    f"cell params pin {key} at its default "
                    f"({getattr(defaults, key)}); got {getattr(self, key)}"
                )
        return {key: getattr(self, key) for key in _CELL_KEYS}

    @classmethod
    def from_cell_params(cls, params: dict) -> "ScenarioConfig":
        """Parse the flat cell dialect, ignoring non-scenario keys.

        Args:
            params: a cell parameter dict (may carry extra keys like
                ``system``/``variant``/``mode`` — those belong to the
                cell function, not the scenario).

        Returns:
            The validated scenario config.
        """
        return cls.from_dict(
            {k: params[k] for k in _CELL_KEYS if k in params},
            path="scenario",
        )

    # ---- validation and building ------------------------------------------

    def _field_checks(self, path: str, errors: Errors) -> None:
        """Scalar cross-field checks only (no model/env resolution)."""
        _check(path, errors, (
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
            ("n", self.n >= 1, "must be >= 1"),
            ("prompt_len", self.prompt_len >= 1, "must be >= 1"),
            ("gen_len", self.gen_len >= 1, "must be >= 1"),
            ("prefill_token_cap", self.prefill_token_cap >= 1, "must be >= 1"),
            ("skew", self.skew > 0, "must be positive"),
            ("correlation", 0.0 <= self.correlation <= 1.0, "must be in [0, 1]"),
        ))

    def _validate(self, path: str, errors: Errors) -> None:
        self._field_checks(path, errors)
        _resolve_model(self.model, _join(path, "model"), errors)
        _resolve_hardware(self.env, _join(path, "env"), errors)

    def build(self):
        """Materialize the runtime :class:`~repro.scenario.Scenario`.

        Returns:
            The scenario, with routing statistics pinned as configured.

        Raises:
            ConfigValidationError: when the config is invalid.
        """
        from repro.routing.workload import Workload
        from repro.scenario import Scenario

        errors = Errors()
        self._field_checks("scenario", errors)
        # One resolution pass serves validation and construction (the
        # fuzzer materializes inline specs on every case — don't parse
        # them twice).
        model = _resolve_model(self.model, "scenario.model", errors)
        hardware = _resolve_hardware(self.env, "scenario.env", errors)
        errors.raise_if_any("scenario config")
        return Scenario(
            model,
            hardware,
            Workload(self.batch_size, self.n, self.prompt_len, self.gen_len),
            skew=self.skew,
            correlation=self.correlation,
            seed=self.seed,
            prefill_token_cap=self.prefill_token_cap,
        )


@dataclass(frozen=True)
class SystemConfig:
    """Which registered inference system to run, with what options.

    Attributes:
        name: a :data:`~repro.api.registry.SYSTEMS` registry name.
        options: JSON-safe keyword arguments for the registered factory
            (e.g. ``{"quantize": true}`` for ``klotski``), parsed against
            the factory's own schema (:class:`~repro.core.engine.KlotskiOptions`
            for the Klotski variants, the annotated constructor
            parameters otherwise).
        passes: ordered :data:`~repro.api.registry.PASSES` queue applied
            to the built schedule before execution (empty: run the
            schedule as authored — the default; omitted from ``to_dict``
            while empty, so configs predating the optimizer keep their
            hashes).
    """

    name: str = "klotski"
    options: dict = field(default_factory=dict)
    passes: tuple[str, ...] = field(default=(), metadata=_OMIT_EMPTY)

    def to_dict(self) -> dict:
        """Plain-JSON form."""
        return to_plain(self)

    @classmethod
    def from_dict(
        cls, data: dict, *, path: str = "system", errors: Errors | None = None
    ) -> "SystemConfig":
        """Strictly parse a system dict; a bare string is shorthand for
        ``{"name": <string>}`` and ``passes`` may be comma-separated."""
        return parse(cls, data, path, errors, "system config")

    @staticmethod
    def _shorthand(data):
        if isinstance(data, str):
            return {"name": data}
        if isinstance(data, dict) and isinstance(data.get("passes"), str):
            return {**data, "passes": [p for p in data["passes"].split(",") if p]}
        return data

    def _validate(self, path: str, errors: Errors) -> None:
        if _known("system", self.name, SYSTEMS, _join(path, "name"), errors):
            parse_options(
                SYSTEMS.get(self.name), self.options, _join(path, "options"), errors
            )
        for entry in self.passes:
            _known("schedule pass", entry, PASSES, _join(path, "passes"), errors)

    def build(self):
        """Instantiate the system through the registry.

        Returns:
            A fresh :class:`~repro.systems.InferenceSystem`.

        Raises:
            ConfigValidationError: unknown name or unsupported options.
        """
        factory = SYSTEMS.get(self.name)
        errors = Errors()
        options = parse_options(factory, self.options, "system.options", errors)
        errors.raise_if_any("system config")
        system = factory(**options)
        if self.passes:
            system.passes = tuple(self.passes)
        return system


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet shape and routing policy for multi-replica serving.

    The one fleet declaration: ``repro.ClusterConfig`` and
    ``repro.cluster.ClusterConfig`` are this class, and
    :class:`~repro.cluster.simulator.ClusterSimulator` validates and reads it.

    Attributes:
        replicas: fleet size.
        envs: hardware presets (or inline spec dicts) cycled across the
            replicas; empty means every replica uses the scenario's env.
        router: a :data:`~repro.api.registry.ROUTERS` registry name.
        router_options: keyword arguments for the router factory,
            parsed against its annotated constructor parameters.
        group_batches: batches per dispatched group (each replica's
            workload ``num_batches``; its batch size is the scenario's).
        max_wait_s: partial-group dispatch deadline (seconds).
        slo_s: latency SLO for goodput accounting (seconds).
        partition_experts: shard hot-expert residency across replicas.
        expert_slots_per_replica: residency slots per replica (0 means
            derive from each replica's placement plan).
        prompt_quantum: prompt-length bucket for group-timing memoization.
        engine: simulation engine — ``serial`` (reference event loop) or
            ``batched`` (group-granular scan); both are bit-identical (see
            :func:`repro.validation.run_cluster_differential`).
        jobs: deprecated and ignored (any value but 1 warns).
        faults: fault-injection model — a
            :data:`~repro.api.registry.FAULT_PRESETS` name or an inline
            :class:`~repro.cluster.faults.FaultConfig` dict; the empty
            string (default) disables fault injection entirely. Active
            fault configs force the serial event loop regardless
            of ``engine`` (see ``docs/robustness.md``).
        retry: :class:`~repro.cluster.faults.RetryPolicy` overrides as a
            dict (empty: the default policy); only consulted when
            ``faults`` is active.
        scheduler: dispatch discipline — a
            :data:`~repro.api.registry.SCHEDULERS` name. ``group`` (the
            default) is the historical batch-group event loop;
            ``continuous`` admits and preempts at decode-step boundaries
            (see :mod:`repro.serving.scheduler`). Non-default schedulers
            always run their own serial loop regardless of ``engine``.
        queue_depth_stride: keep every N-th per-replica queue-depth
            sample (1, the default, keeps all of them — the exact
            pre-existing behaviour); larger strides bound the timeline
            on fleet-scale streams.
    """

    replicas: int = 4
    envs: tuple[str | dict, ...] = ()
    router: str = "least-outstanding"
    router_options: dict = field(default_factory=dict)
    group_batches: int = 2
    max_wait_s: float = 60.0
    slo_s: float = 120.0
    partition_experts: bool = True
    expert_slots_per_replica: int = 0
    prompt_quantum: int = 64
    engine: str = "serial"
    jobs: int = 1
    faults: str | dict = ""
    retry: dict = field(default_factory=dict)
    scheduler: str = "group"
    queue_depth_stride: int = 1

    def to_dict(self) -> dict:
        """Plain-JSON form (``envs`` as a list)."""
        return to_plain(self)

    @classmethod
    def from_dict(
        cls, data: dict, *, path: str = "cluster", errors: Errors | None = None
    ) -> "ClusterConfig":
        """Strictly parse a cluster dict (see :func:`parse`)."""
        return parse(cls, data, path, errors, "cluster config")

    def _validate(self, path: str, errors: Errors) -> None:
        from repro.cluster.engines import ENGINES
        from repro.cluster.faults import FaultConfig, RetryPolicy

        _check(path, errors, (
            ("replicas", self.replicas >= 1, "must be >= 1"),
            ("group_batches", self.group_batches >= 1, "must be >= 1"),
            ("max_wait_s", self.max_wait_s > 0, "must be positive"),
            ("slo_s", self.slo_s > 0, "must be positive"),
            ("prompt_quantum", self.prompt_quantum >= 1, "must be >= 1"),
            (
                "expert_slots_per_replica",
                self.expert_slots_per_replica >= 0,
                "must be >= 0 (0: derive from placement)",
            ),
            (
                "engine",
                self.engine in ENGINES,
                f"must be one of: {', '.join(ENGINES)}",
            ),
            ("jobs", self.jobs >= 1, "must be >= 1"),
            (
                "queue_depth_stride",
                self.queue_depth_stride >= 1,
                "must be >= 1 (1: keep every sample)",
            ),
        ))
        if _known("router", self.router, ROUTERS, _join(path, "router"), errors):
            parse_options(
                ROUTERS.get(self.router),
                self.router_options,
                _join(path, "router_options"),
                errors,
            )
        _known(
            "scheduler", self.scheduler, SCHEDULERS, _join(path, "scheduler"), errors
        )
        if isinstance(self.faults, dict):
            parse(FaultConfig, self.faults, _join(path, "faults"), errors)
        elif self.faults:
            _known(
                "fault preset",
                self.faults,
                FAULT_PRESETS,
                _join(path, "faults"),
                errors,
            )
        if self.retry:
            parse(RetryPolicy, self.retry, _join(path, "retry"), errors)
        for i, env in enumerate(self.envs):
            _resolve_hardware(env, _join(path, f"envs[{i}]"), errors)

    def build_router(self):
        """Instantiate the configured router through the registry."""
        factory = ROUTERS.get(self.router)
        errors = Errors()
        options = parse_options(
            factory, self.router_options, "cluster.router_options", errors
        )
        errors.raise_if_any("cluster config")
        return factory(**options)

    def resolve_faults(self):
        """The configured :class:`~repro.cluster.faults.FaultConfig`.

        Returns:
            The resolved fault config, or ``None`` when ``faults`` is
            the empty string (fault injection disabled).
        """
        from repro.cluster.faults import FaultConfig

        if isinstance(self.faults, str):
            if not self.faults:
                return None
            return FAULT_PRESETS.get(self.faults)()
        return parse(FaultConfig, self.faults, "cluster.faults", what="cluster config")

    def build_retry(self):
        """The configured :class:`~repro.cluster.faults.RetryPolicy`.

        Returns:
            The policy built from the ``retry`` overrides, or ``None``
            when no overrides are set (the simulator applies its
            default policy under fault injection).
        """
        from repro.cluster.faults import RetryPolicy

        if not self.retry:
            return None
        return parse(RetryPolicy, self.retry, "cluster.retry", what="cluster config")

    def resolve_environments(self, default_env) -> list:
        """One :class:`~repro.hardware.spec.HardwareSpec` per replica.

        Args:
            default_env: the scenario's env reference, used when
                ``envs`` is empty.

        Returns:
            ``replicas`` specs, cycling ``envs`` across the fleet.
        """
        errors = Errors()
        refs = list(self.envs) or [default_env]
        specs = [
            _resolve_hardware(ref, f"cluster.envs[{i}]", errors)
            for i, ref in enumerate(refs)
        ]
        errors.raise_if_any("cluster config")
        return [specs[i % len(specs)] for i in range(self.replicas)]


@dataclass(frozen=True)
class ServeConfig:
    """The request stream a serving run feeds the fleet.

    Attributes:
        arrival: an :data:`~repro.api.registry.ARRIVALS` registry name
            (``poisson``, ``bursty``, ``trace``).
        arrival_options: overrides merged into the generator parameters
            derived from the scenario (rate, lengths, seed); the
            ``trace`` process reads ``path`` or ``records`` from here.
        requests: stream length.
        rate_per_s: mean arrival rate (bursty runs derive calm/burst
            rates with this mean, matching the CLI convention).
        hot_experts: tagging policy — ``{"mode": "auto"}`` (default;
            Zipf-tag only untagged streams), ``{"mode": "zipf", "skew":
            s, "seed": k}``, ``{"mode": "pin", "expert": e}`` or
            ``{"mode": "none"}``.
    """

    arrival: str = "poisson"
    arrival_options: dict = field(default_factory=dict)
    requests: int = 32
    rate_per_s: float = 2.0
    hot_experts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-JSON form."""
        return to_plain(self)

    @classmethod
    def from_dict(
        cls, data: dict, *, path: str = "serve", errors: Errors | None = None
    ) -> "ServeConfig":
        """Strictly parse a serve dict (see :func:`parse`)."""
        return parse(cls, data, path, errors, "serve config")

    def _validate(self, path: str, errors: Errors) -> None:
        _known(
            "arrival process", self.arrival, ARRIVALS, _join(path, "arrival"), errors
        )
        _check(path, errors, (
            ("requests", self.requests >= 1, "must be >= 1"),
            ("rate_per_s", self.rate_per_s > 0, "must be positive"),
        ))
        _known(
            "mode",
            self.hot_experts.get("mode", "auto"),
            _HOT_EXPERT_MODES,
            _join(path, "hot_experts.mode"),
            errors,
        )


@dataclass(frozen=True)
class RunConfig:
    """The root of the declarative tree: everything one run needs.

    Attributes:
        scenario: the evaluation point.
        system: the inference system under test.
        cluster: fleet shape, for serving runs (None: single-machine).
        serve: request stream, for serving runs.
    """

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    system: SystemConfig = field(default_factory=SystemConfig)
    cluster: ClusterConfig | None = None
    serve: ServeConfig | None = None

    def to_dict(self) -> dict:
        """Plain-JSON form; None sections are omitted (canonical)."""
        return to_plain(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Strictly parse a full run dict.

        Every problem anywhere in the tree — unknown keys, type
        mismatches, unknown registry names, cross-field violations — is
        collected and raised as one
        :class:`~repro.errors.ConfigValidationError`.

        Args:
            data: the plain dict form.

        Returns:
            The parsed, validated config.
        """
        return parse(cls, data, what="run config")

    def validate(self) -> "RunConfig":
        """Re-run the whole-tree validation; returns self when clean."""
        return RunConfig.from_dict(self.to_dict()) and self
