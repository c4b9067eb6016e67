"""Offline end-to-end benchmark of the egolog CLI.

One run generates a seeded synthetic corpus (perfbench/corpus_gen.py),
starts the stub model server (perfbench/stub.py) in its own process, and
drives the real CLI in-process through `egolog.cli.main`, on one workload:

- localize-long: localize, eval --task nlq, gen-refine-data
- ask-ensemble:  ask (5 runs per question), eval --task qa
- digest-merge:  digest with merge_mode = llm

The workload's command sequence first runs once as an untimed warm-up,
at the workload's own pool size, or with --trace 1 at the other one, so
that each set of runs compares outputs across pool sizes once. Then it
repeats for --seconds at the workload's own in_flight_limit, a closed
loop of the pipeline's own pool against one stub; end-to-end metrics are
medians over these timed passes, taken from their raw wall time. The
timed pool size is 2 for the latency-bound ask-ensemble and digest-merge,
and 1 for the CPU-bound localize-long: two threads contending for the GIL
on two vCPUs run it 1.5 to 2 times slower, by an amount that shifts with
the host's scheduling from run to run.
Set-up time is measured in fresh interpreters (perfbench/setup_probe.py).

Every pass is checked: each unit (a query, or a video for digest) has an
output row or a manifest failure, R@1 mean and QA accuracy are not below
what the scripted oracle reaches, and the output files are byte-identical
across passes (in a traced run, also between pool sizes 1 and 2).

With --trace 1 one more pass runs with spans recorded around the public
functions of every egolog module (perfbench/layers.py), and the per-layer
metrics are reported instead of the end-to-end ones.

Stdout ends with one JSON line: correct, attempted, failed (units over the
timed passes) and metrics. The exit code is 0, 1 when a check failed, or
2 when the benchmark cannot run here (no egolog sources next to it).

Usage, from the repository root:
    python3 perfbench/run.py --workload localize-long --seed 1 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpus_gen
import layers
import numpy
import requests
from stub import FAIL_SHARE, LATENCY_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

PAD_ALPHA = 10.0
IOU_THRESHOLDS = (0.3, 0.5)
SETUP_PROBES = 10  # per run, spread evenly over the timed passes
CALIBRATION_CALLS = 30


@dataclass(frozen=True)
class Workload:
    config: str
    # (config file, output dir) -> argv of each CLI command, in order
    commands: Callable[[Path, Path], list[list[str]]]
    unit: str  # "query" or "video"
    pool: int  # in_flight_limit of the timed passes


def _localize(config: Path, out: Path) -> list[list[str]]:
    return [
        ["localize", "--config", str(config), "--out", str(out / "localize.jsonl")],
        ["eval", "--config", str(config), "--predictions", str(out / "localize.jsonl"),
         "--task", "nlq", "--out", str(out / "eval.json")],
        ["gen-refine-data", "--config", str(config), "--out", str(out / "refine.jsonl")],
    ]


def _ask(config: Path, out: Path) -> list[list[str]]:
    return [
        ["ask", "--config", str(config), "--out", str(out / "answers.jsonl")],
        ["eval", "--config", str(config), "--predictions", str(out / "answers.jsonl"),
         "--task", "qa", "--out", str(out / "eval.json")],
    ]


def _digest(config: Path, out: Path) -> list[list[str]]:
    return [["digest", "--config", str(config), "--out", str(out / "digested.jsonl")]]


_CONFIG_HEAD = """\
[run]
seed = {seed}
runs = {runs}
in_flight_limit = {pool}

[paths]
captions = captions.jsonl
queries = queries.jsonl

[llm]
kind = http
endpoint = {url}/complete

[refine]
pad_alpha = {pad}
"""

WORKLOADS = {
    "localize-long": Workload(
        _CONFIG_HEAD + "\n[embedder]\nkind = mock\n\n[digest]\nmerge_mode = concat\n",
        _localize,
        "query",
        pool=1,
    ),
    "ask-ensemble": Workload(
        _CONFIG_HEAD
        + "\n[embedder]\nkind = http\nendpoint = {url}/embed\n\n[digest]\nmerge_mode = concat\n",
        _ask,
        "query",
        pool=2,
    ),
    "digest-merge": Workload(
        _CONFIG_HEAD + "\n[embedder]\nkind = mock\n\n[digest]\nmerge_mode = llm\n",
        _digest,
        "video",
        pool=2,
    ),
}

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completions_per_query": "1/query",
    "prompt_kchars_per_query": "kchar/query",
    "digest_kchars_per_video": "kchar/video",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- the stub model server --------------------------------------------------


class Stub:
    """The stub server process; stopped and waited for on exit."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")], stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise BenchError("the stub server did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def _post(self, path: str, payload: dict) -> requests.Response:
        return requests.post(self.url + path, json=payload, timeout=30)

    def reset(self) -> None:
        self._post("/reset", {}).raise_for_status()

    def stats(self) -> dict:
        resp = requests.get(self.url + "/stats", timeout=30)
        resp.raise_for_status()
        return resp.json()

    def calibrate(self, calls: int) -> dict:
        """Zero-latency round trips: the client and server overhead per request."""
        rtt, overhead = [], []
        for _ in range(calls):
            started = time.perf_counter()
            resp = self._post("/calibrate", {})
            elapsed_ms = (time.perf_counter() - started) * 1000
            rtt.append(elapsed_ms)
            overhead.append(elapsed_ms - float(resp.headers["X-Stub-Handle-Ms"]))
        return {"rtt_ms_p50": statistics.median(rtt),
                "overhead_ms_p50": statistics.median(overhead), "calls": calls}


# --- passes and checks -------------------------------------------------------


def cpu_ticks() -> tuple[int, int]:
    """(all, stolen) CPU ticks of the machine so far, from /proc/stat; (0, 0) if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return sum(ticks), ticks[7] if len(ticks) == 8 else 0


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor gave to other machines in between."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


@dataclass
class Pass:
    """One run of a command sequence and what its outputs showed."""

    wall_s: float
    stolen: float  # share of the machine's CPU time stolen during the pass, printed only
    codes: list[int]
    stub: dict
    files: dict[str, str]  # output file name -> sha256
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: float | None = None
    digest_kchars: float | None = None


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_pass(cli, commands: list[list[str]], out: Path, stub: Stub,
             around=contextlib.nullcontext()) -> Pass:
    """One run of CLI commands writing into an emptied out dir; only the commands are timed.

    `around` is entered around the commands alone (the tracer, in a traced pass).
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stub.reset()
    gc.collect()
    with contextlib.redirect_stdout(sys.stderr), around:
        ticks = cpu_ticks()
        started = time.perf_counter()
        codes = [cli.main(argv) for argv in commands]
        wall_s = time.perf_counter() - started
        stolen = stolen_share(ticks, cpu_ticks())
    files = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir()) if f.is_file()
    }
    p = Pass(wall_s, stolen, codes, stub.stats(), files)
    if any(codes):
        p.problems.append(f"CLI exit codes {codes}")
    digested = out / "digested.jsonl"
    if digested.is_file():
        rows = read_jsonl(digested)
        videos = {r["video_id"] for r in rows}
        p.digest_kchars = sum(len(r["text"]) for r in rows if "text" in r) / len(videos) / 1000
    return p


def iou(a, b) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    return inter / ((a[1] - a[0]) + (b[1] - b[0]) - inter)


def oracle_quality(name: str, corpus: Path, oracle: dict) -> float:
    """The score the scripted oracle reaches, recounted from the generated files.

    localize-long: R@1 mean when every query's final window is its target
    span padded like the pipeline pads. ask-ensemble: the share of questions
    whose correct option, and no other, appears verbatim in the log.
    """
    queries = read_jsonl(corpus / "queries.jsonl")
    captions = read_jsonl(corpus / "captions.jsonl")
    if name == "localize-long":
        clip_end = {r["video_id"]: r["clip_end_s"] for r in captions if "clip_end_s" in r}
        hits = 0
        for q in queries:
            lo, hi = oracle[q["qid"]]["target"]
            final = (max(lo - PAD_ALPHA, 0.0), min(hi + PAD_ALPHA, clip_end[q["video_id"]]))
            hits += sum(iou(final, q["gt"]) > t for t in IOU_THRESHOLDS)
        return hits / (len(queries) * len(IOU_THRESHOLDS))
    logs: dict[str, list[str]] = {}
    for r in captions:
        if "text" in r:
            logs.setdefault(r["video_id"], []).append(r["text"])
    solvable = 0
    for q in queries:
        log_text = "\n".join(logs[q["video_id"]])
        present = [c in log_text for c in q["choices"]]
        solvable += present == [i == q["answer_idx"] for i in range(5)]
    return solvable / len(queries)


def check_pass(name: str, corpus: Path, out: Path, p: Pass, floor: float | None) -> None:
    """Every unit has an output row or a manifest failure; quality meets the floor."""
    if name == "digest-merge":
        expected = {r["video_id"] for r in read_jsonl(corpus / "captions.jsonl")}
        out_file, key = out / "digested.jsonl", "video_id"
    else:
        expected = {q["qid"] for q in read_jsonl(corpus / "queries.jsonl")}
        out_file = out / ("localize.jsonl" if name == "localize-long" else "answers.jsonl")
        key = "qid"
    if not out_file.is_file():
        p.attempted, p.failed = len(expected), len(expected)
        p.problems.append(f"no output file {out_file.name}")
        return
    rows = {r[key] for r in read_jsonl(out_file)}
    manifest = json.loads(out_file.with_name(out_file.name + ".manifest.json").read_text())
    failed = {f["qid"] for f in manifest["failures"]}
    missing = expected - rows - failed
    if missing:
        p.problems.append(f"{len(missing)} units have neither an output row nor a failure")
    p.attempted, p.failed = len(expected), len(failed | missing)
    if name == "digest-merge":
        p.problems += check_merges(out, p.stub)
    elif not (out / "eval.json").is_file():
        p.problems.append("no eval report")
    else:
        metric = "r1_mean" if name == "localize-long" else "qa_accuracy"
        p.quality = json.loads((out / "eval.json").read_text())[metric]
        if p.quality < floor - 1e-9:
            p.problems.append(f"{metric} {p.quality} is below the oracle's {floor}")


def check_merges(out: Path, stub: dict) -> list[str]:
    """Merged captions match what the stub answered; failed merges fell back."""
    problems = []
    stats = json.loads((out / "digested.jsonl.stats.json").read_text())
    groups = sum(s["groups_merged"] for s in stats.values())
    fallbacks = sum(s["merge_fallbacks"] for s in stats.values())
    rows = read_jsonl(out / "digested.jsonl")
    answered = sum(1 for r in rows if r.get("text", "").endswith(" for a while"))
    if groups != stub["complete_merge"]:
        problems.append(f"{groups} merge groups but {stub['complete_merge']} merge requests")
    if fallbacks != stub["merge_503"]:
        problems.append(f"{fallbacks} merge fallbacks but {stub['merge_503']} failed merges")
    if answered != groups - fallbacks:
        problems.append(f"{answered} model-merged captions, expected {groups - fallbacks}")
    return problems


def without_manifests(files: dict[str, str]) -> dict[str, str]:
    # a manifest records the config hash, which includes in_flight_limit
    return {k: v for k, v in files.items() if not k.endswith(".manifest.json")}


def measure_setup(config: Path, probes: int, warm_up: bool = False) -> list[float]:
    """Seconds to import egolog.cli and load config, captions, queries, per fresh process.

    With warm_up, one more probe runs first to compile the bytecode cache
    and is dropped.
    """
    times = []
    for probe in range(probes + warm_up):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise BenchError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        if probe or not warm_up:
            times.append(float(done.stdout.split()[-1]))
    return times


# --- main ---------------------------------------------------------------------


def import_cli():
    if not (SRC / "egolog" / "cli.py").is_file():
        raise BenchError(f"no egolog sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import egolog
    import egolog.cli

    if Path(egolog.__file__).resolve().parent != (SRC / "egolog").resolve():
        raise BenchError(f"imported egolog from {egolog.__file__}, not from {SRC}")
    return egolog.cli


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Runs one workload; returns the result object and the report lines."""
    workload = WORKLOADS[name]
    cli = import_cli()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    corpus, out = work / "corpus", work / "out"
    oracle = corpus_gen.write_corpus(name, seed, corpus)
    floor = None if name == "digest-merge" else oracle_quality(name, corpus, oracle)
    n_queries = len(read_jsonl(corpus / "queries.jsonl"))

    stub = Stub()
    try:
        calibration = stub.calibrate(CALIBRATION_CALLS)
        configs = {}
        pool = workload.pool
        for pool_size in (1, 2):
            configs[pool_size] = corpus / f"config_pool{pool_size}.ini"
            configs[pool_size].write_text(workload.config.format(
                seed=seed, runs=5, pool=pool_size, url=stub.url, pad=PAD_ALPHA),
                encoding="utf-8")
        setup_times = measure_setup(configs[pool], 0, warm_up=True)

        def one(pool_size: int, around=contextlib.nullcontext()) -> Pass:
            p = run_pass(cli, workload.commands(configs[pool_size], out), out, stub, around)
            check_pass(name, corpus, out, p, floor)
            return p

        # the untimed warm-up pass; a traced run makes it at the other pool
        # size, which compares outputs across pool sizes once per set of runs
        warm_pool = 3 - pool if trace else pool
        warm = one(warm_pool)
        passes: list[Pass] = []
        measured = 0.0  # pass wall time; the set-up probes in between do not count
        while not passes or measured < seconds - passes[-1].wall_s / 2:
            passes.append(one(pool))
            measured += passes[-1].wall_s
            # the machine's speed switches between regimes lasting seconds,
            # so set-up is sampled in small batches between all the passes
            due = math.ceil(SETUP_PROBES * min(measured / seconds, 1.0))
            setup_times += measure_setup(configs[pool], due - len(setup_times))
        setup_times += measure_setup(configs[pool], SETUP_PROBES - len(setup_times))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        traced = None
        if trace:
            tracer = layers.Tracer(unit_key="qid" if name == "ask-ensemble" else "video_id")
            traced = one(pool, tracer.installed())
            tracer.write_jsonl(work / "spans.jsonl")
            layer_metrics = layers.layer_metrics(
                tracer, traced.stub, calibration,
                untraced_s=statistics.median(p.wall_s for p in passes),
                traced_s=traced.wall_s)

        digest_kchars = passes[0].digest_kchars
        extra = []
        if digest_kchars is None:
            # the digest that the workload's own config makes, from `egolog digest`
            extra.append(run_pass(cli, _digest(configs[pool], out), out, stub))
            digest_kchars = extra[0].digest_kchars
    finally:
        stub.close()

    problems = []
    for label, group in ((f"warm-up (pool {warm_pool})", [warm]), ("timed", passes),
                         ("traced", [traced] if traced else []), ("digest", extra)):
        problems += [f"{label} pass: {msg}" for p in group for msg in p.problems]
    if any(p.files != passes[0].files for p in passes[1:]):
        problems.append("outputs differ between the timed passes")
    if without_manifests(warm.files) != without_manifests(passes[0].files):
        problems.append(f"outputs differ between in_flight_limit {warm_pool} and {pool}")
    if traced and traced.files != passes[0].files:
        problems.append("outputs of the traced pass differ from the untraced ones")

    e2e = {
        "queries_per_s": statistics.median(n_queries / p.wall_s for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "completions_per_query": statistics.median(
            p.stub["complete_requests"] / n_queries for p in passes),
        "prompt_kchars_per_query": statistics.median(
            p.stub["complete_chars"] / n_queries / 1000 for p in passes),
        "digest_kchars_per_video": digest_kchars,
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    lines = [
        f"workload {name}  seed {seed}  passes {len(passes)}  in_flight_limit {pool}"
        f"  stub latency {LATENCY_MS} ms  fail share {FAIL_SHARE}",
        "environment " + json.dumps(environment()),
        f"stub calibration: rtt p50 {calibration['rtt_ms_p50']:.3f} ms, overhead p50 "
        f"{calibration['overhead_ms_p50']:.3f} ms over {calibration['calls']} calls",
        "pass wall s: " + " ".join(f"{p.wall_s:.3f}" for p in passes),
        f"warm-up pass at in_flight_limit {warm_pool}, untimed: wall s {warm.wall_s:.3f}",
        "pass stolen CPU share: " + " ".join(f"{p.stolen:.3f}" for p in passes),
        "setup s: " + " ".join(f"{t:.4f}" for t in setup_times),
    ]
    lines += [f"{k:26s} {v:.6g} {END_TO_END_UNITS[k]}" for k, v in e2e.items()]
    lines.append(f"{'failed_share':26s} {failed / attempted:.6g} share ({failed} of "
                 f"{attempted} {workload.unit} units)")
    for metric, applies in (("r1_mean", "localize-long"), ("qa_accuracy", "ask-ensemble")):
        value = (f"{passes[0].quality} share (oracle {floor:.6g})" if name == applies
                 else "n/a on this workload")
        lines.append(f"{metric:26s} {value}")
    if trace:
        lines += [f"{k:34s} {v['value']} {v['unit']}" for k, v in layer_metrics.items()]
        metrics = layer_metrics
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    lines += [f"CHECK FAILED: {msg}" for msg in problems]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="offline end-to-end benchmark of the egolog CLI")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still unwinds, so the stub process is stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the stub listens on loopback; keep any configured proxy out of the way
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    try:
        result, lines = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
