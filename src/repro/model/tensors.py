"""Named tensor inventory for a model.

Schedulers move *named* tensors between memory levels; this module enumerates
them with stable ids and byte sizes. Ids follow the pattern::

    attn.{layer}        attention projections + norms of one block
    gate.{layer}        router weights of one MoE layer
    expert.{layer}.{e}  one expert FFN
    embed               input embedding + LM head
    kv.{layer}.{batch}  KV cache of one batch at one layer (dynamic size)

Dense models simply have one expert per layer and no gate tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.model.config import ModelConfig

ATTN = "attn"
GATE = "gate"
EXPERT = "expert"
EMBED = "embed"
KV = "kv"


@dataclass(frozen=True)
class TensorSpec:
    """One schedulable tensor: identity, role, and byte size."""

    tensor_id: str
    kind: str
    layer: int  # -1 for non-layer tensors (embeddings)
    nbytes: int
    expert: int = -1


def attn_id(layer: int) -> str:
    return f"{ATTN}.{layer}"


def gate_id(layer: int) -> str:
    return f"{GATE}.{layer}"


def expert_id(layer: int, expert: int) -> str:
    return f"{EXPERT}.{layer}.{expert}"


def kv_id(layer: int, batch: int) -> str:
    return f"{KV}.{layer}.{batch}"


def parse_tensor_id(tensor_id: str) -> tuple[str, int, int]:
    """Return ``(kind, layer, expert)``; layer/expert are -1 if absent."""
    parts = tensor_id.split(".")
    kind = parts[0]
    layer = int(parts[1]) if len(parts) > 1 else -1
    expert = int(parts[2]) if len(parts) > 2 else -1
    return kind, layer, expert


class TensorInventory:
    """All weight tensors of one model, with size lookup by id."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self._specs: dict[str, TensorSpec] = {}
        self._build()

    def _build(self) -> None:
        cfg = self.config
        self._add(TensorSpec(EMBED, EMBED, -1, cfg.bytes_of(cfg.embedding_params())))
        attn_bytes, gate_bytes, expert_bytes = (
            cfg.attention_bytes(), cfg.gate_bytes(), cfg.expert_bytes()
        )
        for layer in range(cfg.num_layers):
            self._add(TensorSpec(attn_id(layer), ATTN, layer, attn_bytes))
            if not cfg.is_dense:
                self._add(TensorSpec(gate_id(layer), GATE, layer, gate_bytes))
            for expert in range(cfg.num_experts):
                self._add(
                    TensorSpec(expert_id(layer, expert), EXPERT, layer, expert_bytes, expert)
                )

    def _add(self, spec: TensorSpec) -> None:
        self._specs[spec.tensor_id] = spec

    def __contains__(self, tensor_id: str) -> bool:
        return tensor_id in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[TensorSpec]:
        return iter(self._specs.values())

    def get(self, tensor_id: str) -> TensorSpec:
        return self._specs[tensor_id]

    def nbytes(self, tensor_id: str) -> int:
        return self._specs[tensor_id].nbytes

    def layer_tensors(self, layer: int) -> list[TensorSpec]:
        return [s for s in self._specs.values() if s.layer == layer]

    def experts_of(self, layer: int) -> list[TensorSpec]:
        return [
            s for s in self._specs.values() if s.kind == EXPERT and s.layer == layer
        ]

    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self._specs.values())

    def kv_spec(self, layer: int, batch: int, tokens: int, batch_size: int) -> TensorSpec:
        """Dynamic KV tensor for one batch at one layer holding ``tokens``."""
        nbytes = int(tokens * batch_size * self.config.kv_bytes_per_token())
        return TensorSpec(kv_id(layer, batch), KV, layer, nbytes)
