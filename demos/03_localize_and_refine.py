"""
Grounding a text query to a time window, then tightening it
===========================================================

For temporal grounding the model proposes coarse candidate windows, or
says NA when it finds nothing. The parser clamps each candidate to the
clip as it reads the reply; candidates are then padded outward within
the clip, and the best-supported one becomes the final window. The same
padding math also powers a training-set generator for window classifiers:
jitter each ground-truth window and label the copies by exact IoU.
"""

import json

from egolog.corpus import Caption, CaptionTrack, QueryKind
from egolog.reasoner import parse_response
from egolog.refine import (
    CaptionOverlapScorer,
    RefineConfig,
    gen_refinement_dataset,
    pad_interval,
    select_candidate,
)
from egolog.similarity import MockEmbedder

captions = tuple(
    Caption(video_id="yard", start_s=10.0 * i, end_s=10.0 * (i + 1), text=t)
    for i, t in enumerate(
        [
            "C unrolls the garden hose",
            "C waters the flower bed",
            "C waters the flower bed near the fence",
            "C coils the hose back up",
            "C carries the watering can to the shed",
            "C locks the shed door",
        ]
    )
)
track = CaptionTrack(video_id="yard", clip_start_s=0.0, clip_end_s=60.0, captions=captions)

# a model response proposing two candidate windows for one query
response = """Looking at the captions, watering happens twice in a row.
```json
[{"qid": "water", "intervals": [[10.0, 20.0], [48.0, 55.0]],
  "explanation": "watering the bed, second guess near the shed",
  "confidence": 2}]
```
"""

# given the clip bounds, the parser clamps each window to the clip as it reads it
answer = parse_response(response, QueryKind.NLQ, ["water"], track.bounds)[0]
print(f"candidates from the model: {list(answer.intervals)}")

cfg = RefineConfig(pad_alpha=5.0)
padded = [pad_interval(c, cfg, track.bounds) for c in answer.intervals]
print(f"after 5 s padding:         {padded}")

# the scorer sums the duration of query-relevant captions inside each window
scorer = CaptionOverlapScorer(MockEmbedder(), relevance_threshold=0.25)
final = select_candidate(
    answer, track, scorer, cfg, query_text="when does C water the flowers?"
)
print(f"selected final window:     {final}")
print()

# jittered copies of a known window, rounded to the millisecond and
# labeled pos/neg by the exact IoU of the window as written
records = gen_refinement_dataset(
    [("water", (10.0, 30.0), track.bounds)],
    RefineConfig(samples_per_gt=4),
    seed=42,
)
print("refinement records for gt (10.0, 30.0):")
for record in records:
    print(f"  {json.dumps(record)}")
