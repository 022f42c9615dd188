"""Workload description and generation.

A :class:`Workload` mirrors the paper's evaluation setup (§9.1): a set of
request batches with a fixed prompt length (512) and output length (32),
drawn from a text corpus (wikitext-103 there, a synthetic latent-topic
corpus here). The scheduler-facing part is purely structural — batch sizes
and lengths — while token content only matters to the routing substrate.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One inference job: ``num_batches`` batches processed as a group.

    Attributes:
        batch_size: sequences per batch.
        num_batches: batches in the batch group (the paper's ``n``).
        prompt_len: prompt tokens per sequence.
        gen_len: generated tokens per sequence.
    """

    batch_size: int
    num_batches: int
    prompt_len: int
    gen_len: int

    def __post_init__(self):
        for name in ("batch_size", "num_batches", "prompt_len", "gen_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def total_sequences(self) -> int:
        return self.batch_size * self.num_batches

    @property
    def generated_tokens(self) -> int:
        return self.total_sequences * self.gen_len

    @property
    def prefill_tokens(self) -> int:
        return self.total_sequences * self.prompt_len

    def context_at(self, step: int) -> int:
        """KV length after processing generation step ``step`` (0 = prefill)."""
        return self.prompt_len + step

    @property
    def num_steps(self) -> int:
        """Prefill plus decode steps (one per generated token after first)."""
        return self.gen_len

    def with_batches(self, num_batches: int) -> "Workload":
        """Copy of this workload with a different batch-group size.

        Args:
            num_batches: the new group size.

        Returns:
            The adjusted workload.
        """
        return Workload(self.batch_size, num_batches, self.prompt_len, self.gen_len)


PAPER_WORKLOAD_KWARGS = dict(prompt_len=512, gen_len=32)


def paper_workload(batch_size: int, num_batches: int) -> Workload:
    """The paper's standard workload: 512-token prompts, 32 output tokens.

    Args:
        batch_size: sequences per batch.
        num_batches: batches in the batch group.

    Returns:
        The §9.1 :class:`Workload` at the requested shape.
    """
    return Workload(batch_size, num_batches, **PAPER_WORKLOAD_KWARGS)

