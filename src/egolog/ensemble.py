"""Vote-by-confidence ensembling of repeated QA answers.

Each QA question is asked several times; the answer whose self-rated
confidence is highest wins. Ties among maximal-confidence answers are
broken uniformly at random with an explicit seed so the pick is
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import QueryKind
from .reasoner import LlmAnswer


@dataclass(frozen=True)
class AnswerPool:
    """All answers collected for one QA question across repeated runs."""

    qid: str
    answers: tuple[LlmAnswer, ...]

    def __post_init__(self) -> None:
        if not self.answers:
            raise ValueError(f"answer pool for {self.qid!r} is empty")
        object.__setattr__(self, "answers", tuple(self.answers))
        for answer in self.answers:
            if answer.qid != self.qid:
                raise ValueError(
                    f"pool for {self.qid!r} contains answer for {answer.qid!r}"
                )
            if answer.kind is not QueryKind.QA:
                raise ValueError(f"pool for {self.qid!r} contains a non-QA answer")

    @property
    def max_confidence(self) -> int:
        return max(a.confidence for a in self.answers)


def vote_by_confidence(pool: AnswerPool, rng_seed: int) -> LlmAnswer:
    """Return the pool's highest-confidence answer, unmodified.

    When several answers share the maximal confidence, one is chosen
    uniformly at random by a generator seeded with rng_seed; a unique
    maximum is returned regardless of seed.
    """
    top = pool.max_confidence
    finalists = [a for a in pool.answers if a.confidence == top]
    if len(finalists) == 1:
        return finalists[0]
    return random.Random(rng_seed).choice(finalists)

