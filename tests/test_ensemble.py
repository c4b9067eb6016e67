from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egolog.corpus import QueryKind
from egolog.ensemble import AnswerPool, vote_by_confidence
from egolog.metrics import evaluate_qa
from egolog.reasoner import LlmAnswer


def qa(choice: str, confidence: int, qid: str = "q1") -> LlmAnswer:
    return LlmAnswer(
        qid=qid,
        kind=QueryKind.QA,
        choice_idx="ABCDE".index(choice),
        confidence=confidence,
        explanation=f"picked {choice}",
    )


class TestAnswerPool:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AnswerPool(qid="q1", answers=())

    def test_foreign_qid_rejected(self):
        with pytest.raises(ValueError, match="q2"):
            AnswerPool(qid="q1", answers=(qa("A", 1, qid="q2"),))

    def test_nlq_answer_rejected(self):
        nlq = LlmAnswer(qid="q1", kind=QueryKind.NLQ, intervals=((0, 1),))
        with pytest.raises(ValueError, match="non-QA"):
            AnswerPool(qid="q1", answers=(nlq,))

    def test_max_confidence(self):
        pool = AnswerPool(qid="q1", answers=(qa("A", 2), qa("B", 3), qa("A", 1)))
        assert pool.max_confidence == 3


class TestVoteByConfidence:
    def test_unique_max_wins(self):
        pool = AnswerPool(qid="q1", answers=(qa("A", 2), qa("B", 3), qa("A", 1)))
        winner = vote_by_confidence(pool, rng_seed=0)
        assert winner.choice_idx == 1
        assert winner.confidence == 3

    def test_unique_max_is_seed_invariant(self):
        pool = AnswerPool(qid="q1", answers=(qa("A", 2), qa("B", 3), qa("A", 1)))
        picks = {vote_by_confidence(pool, rng_seed=s).choice_idx for s in range(200)}
        assert picks == {1}

    def test_winner_returned_unmodified(self):
        best = qa("D", 3)
        pool = AnswerPool(qid="q1", answers=(qa("A", 1), best))
        assert vote_by_confidence(pool, rng_seed=7) is best

    def test_singleton_pool(self):
        only = qa("D", 1)
        pool = AnswerPool(qid="q1", answers=(only,))
        assert vote_by_confidence(pool, rng_seed=123) is only

    def test_tie_break_is_deterministic_per_seed(self):
        pool = AnswerPool(qid="q1", answers=(qa("A", 2), qa("B", 2)))
        for seed in (0, 1, 99):
            assert (
                vote_by_confidence(pool, seed).choice_idx
                == vote_by_confidence(pool, seed).choice_idx
            )

    def test_two_way_tie_splits_evenly_over_seeds(self):
        pool = AnswerPool(qid="q1", answers=(qa("A", 2), qa("B", 2)))
        wins_a = sum(
            vote_by_confidence(pool, seed).choice_idx == 0 for seed in range(10_000)
        )
        # each side should take 50% +/- 2% of 10,000 seeds
        assert 4800 <= wins_a <= 5200

    def test_tie_break_confined_to_finalists(self):
        pool = AnswerPool(
            qid="q1", answers=(qa("A", 3), qa("B", 3), qa("C", 1), qa("D", 1))
        )
        picks = {vote_by_confidence(pool, seed).choice_idx for seed in range(300)}
        assert picks == {0, 1}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("ABCDE"), st.integers(min_value=1, max_value=3)
            ),
            min_size=1,
            max_size=9,
        ),
        st.integers(min_value=0, max_value=2**40),
    )
    def test_winner_always_has_max_confidence(self, specs, seed):
        pool = AnswerPool(qid="q1", answers=tuple(qa(c, conf) for c, conf in specs))
        winner = vote_by_confidence(pool, seed)
        assert winner in pool.answers
        assert winner.confidence == pool.max_confidence


class TestFilterByConfidence:
    """Each per-confidence sub-report counts the predictions at or above it."""

    @staticmethod
    def tiers(answers):
        # every answer is scored correct, so each tier's n_queries is its size
        preds = {a.qid: a for a in answers}
        return evaluate_qa(preds, {a.qid: a.choice_idx for a in answers})["per_confidence"]

    def test_level_keeps_answers_at_or_above_it(self):
        answers = [qa(c, conf, qid=c) for c, conf in zip("ABCD", (1, 3, 2, 3))]
        # only A, below level 2, is wrong, so a perfect tier of 3 is B, C and D
        preds = {a.qid: a for a in answers}
        gts = {a.qid: a.choice_idx if a.qid != "A" else 4 for a in answers}
        tier = evaluate_qa(preds, gts)["per_confidence"]["2"]
        assert (tier["n_queries"], tier["qa_accuracy"]) == (3, 1.0)

    def test_level_one_keeps_all(self):
        answers = [qa("A", 1, qid="a"), qa("B", 2, qid="b")]
        assert self.tiers(answers)["1"]["n_queries"] == len(answers)

    def test_monotone_nesting(self):
        answers = [qa(c, conf, qid=c) for c, conf in zip("ABCDE", (1, 2, 3, 2, 1))]
        tiers = self.tiers(answers)
        assert set(tiers) == {"1", "2", "3"}
        assert [tiers[level]["n_queries"] for level in "321"] == [1, 3, 5]
