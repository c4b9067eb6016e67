"""Seeded synthetic caption logs and queries for the benchmark workloads.

The logs imitate egocentric narration: mostly unique captions built from
several sentence templates, adjacent near-duplicate runs (the same action
narrated over consecutive clips), and about 5 % blocklisted boilerplate
such as "C looks around". Every query is solvable by the scripted stub
model from the caption log alone:

- NLQ queries read "find: <phrase>". The phrase occurs in one target run
  of repeated captions, framed by captions about the same object, and in
  a few distractor captions mentioned in passing during a conversation,
  so the answer carries several candidate windows. The ground truth is
  the target run widened by a few seconds on each side.
- QA questions ask what C does with an object; the correct option is the
  literal text of one caption, the four wrong options appear nowhere.

Only the captions and queries files go to the program. The oracle file
(the target window of each NLQ query, the option found verbatim in the
log for each QA question) stays with the benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

STEP_S = 2.0

VERBS = (
    "picks up", "puts down", "opens", "closes", "wipes", "cuts", "stirs",
    "holds", "moves", "turns", "pours", "washes", "folds", "checks",
    "adjusts", "lifts", "places", "drops", "rinses", "shakes", "scrubs",
    "fills", "empties", "carries", "pushes", "pulls", "taps", "rotates",
    "sorts", "hangs", "peels", "wraps", "unplugs", "tightens", "loosens",
)
ADJECTIVES = (
    "red", "blue", "green", "small", "large", "wooden", "metal", "plastic",
    "white", "black", "glass", "old", "new", "yellow", "clean", "dirty",
    "striped", "round", "square", "heavy",
)
OBJECTS = (
    "cup", "knife", "drawer", "bowl", "plate", "pan", "pot", "spoon",
    "bottle", "towel", "box", "bag", "lid", "jar", "phone", "book", "shirt",
    "brush", "sponge", "board", "bucket", "hammer", "screw", "wrench",
    "tray", "basket", "cable", "lamp", "key", "glove", "kettle", "ladle",
    "scissors", "tape", "notebook", "remote", "mug", "colander", "grater",
)
PLACES = (
    "table", "counter", "sink", "shelf", "floor", "stove", "bench",
    "cabinet", "desk", "chair", "bed", "window", "door", "fridge", "stool",
    "workbench", "dresser", "oven", "garage", "porch",
)
PREPOSITIONS = ("on", "near", "beside", "under", "next to", "behind")
PEOPLE = ("man X", "woman Y", "boy Z", "girl W")
# conversation lines that embed far from every query phrase
CHATTER = (
    "C talks with boy Z", "C talks with man X", "C talks with woman Y",
    "C nods at boy Z", "C nods at girl W", "C nods at woman Y",
    "boy Z waves at C", "man X waves at C", "woman Y nods", "boy Z nods",
    "boy Z smiles", "C chats with boy Z",
)
BOILERPLATE = (
    "C looks around",
    "C looks around the room",
    "C looks at the camera",
    "C looks around the kitchen",
)


def _action(rng: random.Random) -> str:
    return f"{rng.choice(VERBS)} the {rng.choice(ADJECTIVES)} {rng.choice(OBJECTS)}"


def _place(rng: random.Random) -> str:
    return f"{rng.choice(PREPOSITIONS)} the {rng.choice(PLACES)}"


def random_caption(rng: random.Random, shape: int) -> str:
    """One ordinary narration line in one of six sentence shapes."""
    if shape == 0:
        return f"C {_action(rng)} {_place(rng)}"
    if shape == 1:
        return f"C {_action(rng)}"
    if shape == 2:
        return f"C walks to the {rng.choice(PLACES)}"
    if shape == 3:
        return f"C talks with {rng.choice(PEOPLE)}"
    if shape == 4:
        return f"{rng.choice(PEOPLE)} hands C a {rng.choice(OBJECTS)}"
    return f"C {rng.choice(VERBS)} a {rng.choice(OBJECTS)} with the {rng.choice(OBJECTS)}"


@dataclass
class Video:
    video_id: str
    texts: list[str]

    @property
    def clip_end_s(self) -> float:
        return len(self.texts) * STEP_S


def _fill(
    rng: random.Random,
    n_captions: int,
    run_share: float,
    reserved: dict[int, str],
    topics: list[tuple[str, str, str, str]],
) -> list[str]:
    """A log of n_captions around the reserved slots.

    The mix is fixed and only its order and words are random: 5 %
    boilerplate, run_share of the free slots in runs of 2 to 5 repeated
    captions, the rest single captions spread evenly over the sentence
    shapes. Fixing the mix keeps the digest's work nearly the same from
    seed to seed.

    A run is the same action narrated over consecutive clips. It handles a
    topic object (one the queries ask about) under another adjective, plus
    the topic's tail such as its place, so it is relevant to the queries
    but never answers one. No caption outside the reserved slots mentions a
    topic object with its own adjective.
    """
    banned = tuple(f"the {adj} {obj}" for _, adj, obj, _ in topics)
    free = n_captions - len(reserved)
    n_boilerplate = round(0.05 * free)
    runs = []
    while sum(runs) < run_share * free:
        runs.append(2 + len(runs) % 4)
    n_singles = max(free - n_boilerplate - sum(runs), 0)
    items = (
        [("boilerplate", 1)] * n_boilerplate
        + [("run", length) for length in runs]
        + [("single", i % 6) for i in range(n_singles)]
    )
    rng.shuffle(items)
    texts: list[str] = []
    while len(texts) < n_captions:
        i = len(texts)
        if i in reserved:
            texts.append(reserved[i])
            continue
        kind, size = items.pop() if items else ("single", rng.randrange(6))
        if kind == "boilerplate":
            texts.append(rng.choice(BOILERPLATE))
            continue

        def draw() -> str:
            if kind == "single":
                return random_caption(rng, size)
            verb, adj, obj, tail = rng.choice(topics)
            other = rng.choice([a for a in ADJECTIVES if a != adj])
            return f"C {verb} the {other} {obj}{tail}"

        base = draw()
        while any(b in base for b in banned):
            base = draw()
        length = size if kind == "run" else 1
        # a run stops short of a reserved slot and of the end of the log
        stop = next((j for j in range(i, i + length) if j in reserved), i + length)
        texts.extend([base] * (min(stop, n_captions) - i))
    return texts


def gen_nlq(
    seed: int, n_videos: int, n_captions: int, n_queries: int, run_share: float
) -> tuple[list[Video], list[dict], dict]:
    """Hour-long logs with NLQ queries whose phrase recurs in distractors."""
    rng = random.Random(seed)
    videos, queries, oracle = [], [], {}
    for v in range(n_videos):
        video_id = f"nlq{v:02d}"
        actions: list[tuple[str, str, str]] = []
        while len(actions) < n_queries:
            verb, adj, obj = rng.choice(VERBS), rng.choice(ADJECTIVES), rng.choice(OBJECTS)
            if all((adj, obj) != (a, o) for _, a, o in actions):
                actions.append((verb, adj, obj))
        phrases = [f"{verb} the {adj} {obj}" for verb, adj, obj in actions]
        # every planted span gets its own slot of captions, which keeps the
        # padded candidate windows of different spans from overlapping
        n_distractors = [2 + q % 2 for q in range(n_queries)]
        slot = n_captions // (4 * n_queries + 2)
        slots = rng.sample(
            range(1, n_captions // slot - 1), n_queries + sum(n_distractors)
        )
        reserved: dict[int, str] = {}
        targets = []
        cursor = 0
        for q, phrase in enumerate(phrases):
            _, adj, obj = actions[q]
            start = slots[cursor] * slot + slot // 4 + rng.randrange(3)
            cursor += 1
            length = rng.randint(6, 7)
            text = f"C {phrase} {_place(rng)}"
            for j in range(length):
                reserved[start + j] = text
            # the moment is framed by captions about the same object
            reserved[start - 1] = f"C reaches for the {adj} {obj}"
            reserved[start + length] = f"C sets aside the {adj} {obj}"
            targets.append((start, start + length))
            for _ in range(n_distractors[q]):
                at = slots[cursor] * slot + rng.randrange(slot // 4, slot // 2 + 2)
                cursor += 1
                reserved[at] = f"C {phrase} {_place(rng)}"
                # a passing mention during a conversation, so the distractor
                # window holds no other caption relevant to the query
                for j in range(1, 7):
                    reserved[at - j] = rng.choice(CHATTER)
                    reserved[at + j] = rng.choice(CHATTER)
        topics = [(verb, adj, obj, "") for verb, adj, obj in actions]
        video = Video(video_id, _fill(rng, n_captions, run_share, reserved, topics))
        videos.append(video)
        for q, (phrase, (lo, hi)) in enumerate(zip(phrases, targets)):
            qid = f"{video_id}_q{q:02d}"
            run_start, run_end = lo * STEP_S, hi * STEP_S
            gt = [
                round(run_start - rng.uniform(4.0, 7.0), 1),
                round(run_end + rng.uniform(4.0, 7.0), 1),
            ]
            queries.append(
                {"qid": qid, "video_id": video_id, "kind": "nlq",
                 "query": f"find: {phrase}", "gt": gt}
            )
            oracle[qid] = {"target": [run_start, run_end], "gt": gt}
    return videos, queries, oracle


def gen_qa(
    seed: int, n_videos: int, caption_counts: list[int], n_questions: int
) -> tuple[list[Video], list[dict], dict]:
    """Short clips with several 5-way questions each, answers read off the log."""
    rng = random.Random(seed)
    counts = list(caption_counts)
    rng.shuffle(counts)
    videos, queries, oracle = [], [], {}
    for v in range(n_videos):
        video_id = f"qa{v:02d}"
        n_captions = counts[v % len(counts)]
        objects = rng.sample(
            [(a, o) for a in ADJECTIVES for o in OBJECTS], n_questions
        )
        places = [_place(rng) for _ in objects]
        verbs = [rng.sample(VERBS, 5) for _ in objects]
        answers = [
            f"C {v[0]} the {a} {o} {place}"
            for (a, o), v, place in zip(objects, verbs, places)
        ]
        spots = rng.sample(range(2, n_captions - 2), n_questions)
        reserved = dict(zip(spots, answers))
        topics = [(v[0], a, o, f" {place}") for (a, o), v, place in zip(objects, verbs, places)]
        video = Video(video_id, _fill(rng, n_captions, 0.3, reserved, topics))
        videos.append(video)
        for q, ((adj, obj), v, place) in enumerate(zip(objects, verbs, places)):
            # the wrong options differ from the answer only in the verb
            choices = [f"C {verb} the {adj} {obj} {place}" for verb in v]
            answer_idx = rng.randrange(5)
            choices[0], choices[answer_idx] = choices[answer_idx], choices[0]
            qid = f"{video_id}_q{q}"
            queries.append(
                {"qid": qid, "video_id": video_id, "kind": "qa",
                 "question": f"What does C do with the {adj} {obj} {place}?",
                 "choices": choices, "answer_idx": answer_idx}
            )
            oracle[qid] = {"answer_idx": answer_idx}
    return videos, queries, oracle


SHAPES = {
    # 4 videos x 1800 captions (1 h at 2 s each) x 10 NLQ, as in Ego4D NLQ
    "localize-long": lambda seed: gen_nlq(seed, 4, 1800, 10, run_share=0.3),
    # 8 clips of 90-150 captions x 5 questions, as in EgoSchema; the caption
    # counts are a fixed spread, shuffled, so the total is the same per seed
    "ask-ensemble": lambda seed: gen_qa(
        seed, 8, [90 + round(60 * i / 7) for i in range(8)], 5
    ),
    # 2 videos x 900 captions x 10 queries, dense near-duplicate runs to merge
    "digest-merge": lambda seed: gen_nlq(seed, 2, 900, 10, run_share=0.7),
}


def write_corpus(workload: str, seed: int, out_dir: Path) -> dict:
    """Write captions.jsonl, queries.jsonl and oracle.json; returns the oracle."""
    videos, queries, oracle = SHAPES[workload](seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "captions.jsonl", "w", encoding="utf-8") as fh:
        for video in videos:
            fh.write(json.dumps(
                {"video_id": video.video_id, "clip_start_s": 0.0,
                 "clip_end_s": video.clip_end_s}) + "\n")
            for i, text in enumerate(video.texts):
                fh.write(json.dumps(
                    {"video_id": video.video_id, "start_s": i * STEP_S,
                     "end_s": (i + 1) * STEP_S, "text": text}) + "\n")
    with open(out_dir / "queries.jsonl", "w", encoding="utf-8") as fh:
        for query in queries:
            fh.write(json.dumps(query) + "\n")
    (out_dir / "oracle.json").write_text(json.dumps(oracle, indent=1), encoding="utf-8")
    return oracle

