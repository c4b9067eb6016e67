"""
Multiple-choice answers with self-rated confidence and voting
=============================================================

The model is asked the same question several times with different
sampling seeds. Each answer carries a confidence of 1, 2, or 3, and the
final pick is the answer with the highest confidence, ties broken at
random. The stand-in backend below wavers on early runs and settles on
run 2, which is exactly the situation the vote is for.
"""

import json

from egolog.corpus import Caption, CaptionTrack, Query, QueryKind
from egolog.ensemble import AnswerPool, vote_by_confidence
from egolog.reasoner import build_qa_prompt, parse_response, run
from egolog.seeding import derive_seed

captions = tuple(
    Caption(video_id="shed", start_s=6.0 * i, end_s=6.0 * (i + 1), text=t)
    for i, t in enumerate(
        [
            "C picks up a hammer from the bench",
            "C drives a nail into the plank",
            "C puts the hammer back on the rack",
            "C sweeps sawdust off the bench",
        ]
    )
)
track = CaptionTrack(video_id="shed", clip_start_s=0.0, clip_end_s=24.0, captions=captions)

question = Query(
    qid="tool",
    video_id="shed",
    kind=QueryKind.QA,
    text="Which tool does C use on the plank?",
    choices=("a saw", "a hammer", "a drill", "a wrench", "a chisel"),
)


class WaveringBackend:
    """Answers differently per run, more confident once it settles."""

    def complete(self, system_text, user_text, sampling_seed=None, run_index=0):
        by_run = [("A", 1), ("C", 2), ("B", 3), ("B", 3), ("B", 2)]
        letter, confidence = by_run[run_index % len(by_run)]
        entry = {
            "qid": "tool",
            "answer": letter,
            "explanation": f"run {run_index} reading of the captions",
            "confidence": confidence,
        }
        return "```json\n" + json.dumps([entry]) + "\n```"


prompt = build_qa_prompt(track, question)
print("--- prompt sent to the model ---")
print(prompt.user_text)
print()

(replies,) = run([(prompt, derive_seed(7, "ask", "tool"))], WaveringBackend(), runs=5)
answers = []
for run_index, reply in enumerate(replies):
    answers.extend(parse_response(reply, QueryKind.QA, ["tool"]))
    letter = "ABCDE"[answers[-1].choice_idx]
    print(f"run {run_index}: answer {letter}  confidence {answers[-1].confidence}")

pool = AnswerPool(qid="tool", answers=tuple(answers))
final = vote_by_confidence(pool, rng_seed=derive_seed(7, "vote", "tool"))
print()
print(f"vote picks: ({'ABCDE'[final.choice_idx]}) {question.choices[final.choice_idx]}")
print(f"confidence: {final.confidence}")
