#!/usr/bin/env python3
"""advtext benchmark: one command that builds, prepares, runs, checks and
reports one workload. See perfbench/README.md for the workloads, the
metrics and what each per-layer metric should move.

    python3 perfbench/run.py --lo-rate 20 --hi-rate 40 --job-limit-ms 100 \\
        --workload news_lstm_greedy --seed 1 --seconds 25 --trace 0

Run from the repository root. The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

SWEEPS = ("news_lstm_greedy", "news_wcnn_joint")
DAEMON = "yelp_bow_daemon"
# The end-to-end tail: >= 60 documents per sweep; the daemon streams
# thousands, but their p95 and p99 swung 30-40% between runs of the same
# code on a shared 4-vCPU guest.
TAIL_Q = 0.80
RATE_TAIL_Q = 0.90    # >= 120 jobs per rate step
SPAN_TAIL_Q = 0.95    # service spans pooled over all phases
# A run must end within 180 s; the driver gets what is left of this,
# less the margin run.py needs to turn its output into metrics.
RUN_LIMIT_S = 175.0
MARGIN_S = 5.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once per checkout, then build incrementally."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
            ROOT / "examples" / "advtextd.cpp").is_file():
        fail("the advtext sources (src/, examples/) are not here; run from "
             "the repository root")
    BUILD.mkdir(exist_ok=True)
    log = open(BUILD / "build.log", "w")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                  "perfbench_driver", "advtextd"])
    for step in steps:
        if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
            log.close()
            tail = (BUILD / "build.log").read_text()[-3000:]
            fail(f"build failed:\n{tail}")
    log.close()


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    with open(os.devnull, "w") as sink:
        result = unittest.TextTestRunner(stream=sink).run(suite)
    if not result.wasSuccessful():
        fail("the benchmark's own arithmetic tests fail "
             "(python3 perfbench/test_stats.py)")


def run_driver(args, cwd, deadline):
    """Runs the driver in its own process group so a timeout takes down
    the daemon it spawned too."""
    proc = subprocess.Popen([str(BUILD / "perfbench_driver"), *args], cwd=cwd,
                            stdout=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver {args[0]} timed out")
    if proc.returncode != 0:
        fail(f"driver {args[0]} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


# ---- end-to-end metrics ------------------------------------------------------

def attacked(records):
    return [r for r in records if r["kind"] == 1]


def per_kquery_ms(seconds, queries):
    return 1e6 * seconds / queries


def sweep_end_to_end(raw):
    docs = attacked(raw["records"])
    if not docs:
        fail("the sweep attacked no document in the time it had")
    cost = [per_kquery_ms(r["seconds"], r["queries"]) for r in docs
            if r["queries"] > 0]
    # Documents the time guard kept the sweep from reaching count as failed.
    unreached = raw["sample_docs"] - len(raw["records"])
    failed = unreached + sum(1 for r in raw["records"] if r["kind"] == 2) + sum(
        1 for r in docs if r["termination"] in (2, 3))  # budget, deadline
    metrics = {
        "setup_s": (stats.median(raw["setup_s"]), "s"),
        "docs_per_s": (len(docs) / raw["sweep_s"], "docs/s"),
        "ms_per_kquery_p50": (stats.percentile(cost, 0.5), "ms/kquery"),
        "ms_per_kquery_tail": (stats.percentile(cost, TAIL_Q),
                               "ms/kquery"),
        "success_rate": (sum(r["flipped"] for r in docs) / len(docs), "frac"),
        "queries_per_doc": (sum(r["queries"] for r in docs) / len(docs),
                            "count"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    summary = (f"{len(docs)} attacked of {len(raw['records'])} docs in "
               f"{raw['sweep_s']:.2f} s; per-doc attack time p50 "
               f"{1e3 * stats.percentile([r['seconds'] for r in docs], 0.5):.1f}"
               f" ms")
    return metrics, raw["sample_docs"], failed, summary


def all_jobs(raw):
    return [job for phase in raw["phases"].values() for job in phase["jobs"]]


def doc_gaps(job, records):
    """(seconds, queries) of each document a job streamed after its first:
    the time between consecutive DocResult frames is that document's
    attack as the client sees it, with no queueing or admission in it."""
    times = job["doc_times"]
    return [(b - a, records[i + 1]["queries"])
            for i, (a, b) in enumerate(zip(times, times[1:]))
            if records[i + 1]["queries"] > 0]


def daemon_end_to_end(raw, limit_s):
    records = raw["records"]
    closed = raw["phases"]["closed"]
    jobs = all_jobs(raw)
    ok = [job for job in jobs if stats.job_ok(job)]
    cost = [per_kquery_ms(seconds, queries) for job in ok
            for seconds, queries in doc_gaps(job, records)]
    served = stats.jobs_within_limit(closed["jobs"], limit_s)
    # Every completed job's stream equals the reference records (checked),
    # so a job of k documents is reference records 0..k-1.
    docs = [r for job in ok for r in records[:job["docs"]] if r["kind"] == 1]
    # Capacity counts every completed closed-loop job, whatever its
    # latency. With a fixed number of connections, job latency is about
    # connections / throughput, so a latency filter here would turn a small
    # slowdown into a cliff; the filtered rate is per-layer
    # (service.max_jobs_per_s).
    metrics = {
        "setup_s": (stats.median(raw["setup_s"]), "s"),
        "docs_per_s": (stats.windowed_rate(
            [(job["complete"], job["docs"]) for job in closed["jobs"]
             if stats.job_ok(job)], closed["seconds"]), "docs/s"),
        "ms_per_kquery_p50": (stats.percentile(cost, 0.5), "ms/kquery"),
        "ms_per_kquery_tail": (stats.percentile(cost, TAIL_Q),
                               "ms/kquery"),
        "success_rate": (sum(r["flipped"] for r in docs) / len(docs), "frac"),
        "queries_per_doc": (sum(r["queries"] for r in docs) / len(docs),
                            "count"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    lo_ms = [1e3 * stats.job_latency_s(job) for job in raw["phases"]["lo"]["jobs"]]
    summary = (f"state dir on {raw['state_fs']}; "
               f"{len(jobs)} jobs sent, {stats.failed_jobs(jobs)} failed; "
               f"low-rate job latency p50 {stats.percentile(lo_ms, 0.5):.2f} ms "
               f"p90 {stats.percentile(lo_ms, RATE_TAIL_Q):.2f} ms; closed loop "
               f"{stats.windowed_rate([(j['complete'], 1) for j in served], closed['seconds']):.1f}"
               f" jobs/s within "
               f"{limit_s * 1e3:g} ms")
    return metrics, len(jobs), stats.failed_jobs(jobs), summary


# ---- per-layer metrics ---------------------------------------------------------

NN_KINDS = ("swap", "tokens", "rebase", "predict", "gradient", "evaluator")


def span_dicts(traced):
    return [{"name": s[0], "start": s[1], "end": s[2], "parent": int(s[3]),
             "id": int(s[4]), "rows": s[5], "steps": s[6]}
            for s in traced["spans"]]


def layer_metrics(raw):
    """Per-layer metrics from the traced run's spans and probes. The traced
    records equal the first traced["docs"] of raw["records"] (checked),
    once per traced sweep."""
    traced = raw["traced"]
    spans = span_dicts(traced)
    own = stats.self_times(spans)
    sweeps = [s for s in spans if s["name"] == "eval.sweep"]
    wall = sum(s["end"] - s["start"] for s in sweeps)
    # A traced sweep cut by its time guard covers a prefix of the records.
    docs = attacked(raw["records"][:int(traced["docs"])])
    n_docs = max(len(docs), 1)
    queries = len(sweeps) * sum(r["queries"] for r in docs)

    def total(name, key=None):
        return sum((s[key] if key else s["end"] - s["start"])
                   for s in spans if s["name"] == name)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    m = {}
    nn_s = 0.0
    for kind in NN_KINDS:
        name = f"nn.{kind}"
        nn_s += total(name)
        m[f"{name}_calls"] = (count(name), "count")
        m[f"{name}_share"] = (total(name) / wall, "frac")
    for kind in ("swap", "tokens"):
        rows = total(f"nn.{kind}", "rows")
        m[f"nn.{kind}_rows"] = (rows, "count")
        m[f"nn.{kind}_rows_per_call"] = (rows / max(count(f"nn.{kind}"), 1),
                                         "count")
    steps = total("nn.swap", "steps")
    m["nn.swap_steps"] = (steps, "count")
    m["nn.swap_ns_per_step"] = (1e9 * total("nn.swap") / steps if steps else
                                0.0, "ns")
    scored = total("nn.swap", "rows") + total("nn.tokens", "rows")
    m["nn.us_per_row"] = (1e6 * (total("nn.swap") + total("nn.tokens"))
                          / max(scored, 1), "us")
    m["nn.scored_frac"] = (scored / max(queries, 1), "frac")
    m["nn.share"] = (nn_s / wall, "frac")

    text = traced["text"]
    text_s = total("text.candidates")
    m["text.neighbor_sets_s"] = (text["neighbor_sets_s"], "s")
    m["text.candidates_s"] = (text["candidates_s"], "s")
    m["text.paraphrases_per_doc"] = (text["paraphrases"] / text["docs"],
                                     "count")
    m["text.lm_keep_frac"] = (text["candidates_kept"]
                              / max(text["candidates_unfiltered"], 1), "frac")
    m["text.share"] = (text_s / wall, "frac")

    attack_spans = [i for i, s in enumerate(spans) if s["name"] == "core.attack"]
    attack_s = traced["attack_s"]
    core_self = sum(own[i] for i in attack_spans)
    flips = len(sweeps) * sum(r["flipped"] for r in docs)
    m["core.attack_s"] = (attack_s, "s")
    m["core.self_s"] = (core_self, "s")
    m["core.share"] = (core_self / wall, "frac")
    m["core.flips_per_kquery"] = (1e3 * flips / max(queries, 1), "1/kquery")
    m["core.words_changed"] = (sum(r["words"] for r in docs) / n_docs, "count")
    m["core.sentences_changed"] = (sum(r["sentences"] for r in docs) / n_docs,
                                   "count")

    eval_self = sum(own[i] for i, s in enumerate(spans)
                    if s["name"] in ("eval.sweep", "eval.doc", "eval.finish"))
    m["eval.sweep_s"] = (wall, "s")
    m["eval.self_s"] = (eval_self, "s")
    m["eval.share"] = (eval_self / wall, "frac")
    m["eval.ckpt_writes"] = (count("util.ckpt_write"), "count")
    m["eval.ckpt_bytes"] = (total("util.ckpt_write", "rows"), "bytes")
    m["util.io_share"] = (total("util.ckpt_write") / wall, "frac")

    m["tensor.gemm_lstm_gflops"] = (traced["gemm_lstm_gflops"], "GFLOP/s")
    m["tensor.gemm_wcnn_gflops"] = (traced["gemm_wcnn_gflops"], "GFLOP/s")
    m["trace.overhead_frac"] = (traced["sweep_s"] / traced["untraced_s"] - 1,
                                "frac")
    m["env.calib_ms"] = (traced["calib_ms"], "ms")
    return m


def service_metrics(raw, limit_s):
    """Service spans from the generator's frame timestamps (daemon only)."""
    m = {}
    jobs = all_jobs(raw)
    ok = [job for job in jobs if stats.job_ok(job)]
    spans = {
        "service.admit_ms": [j["accepted"] - j["connect"] for j in ok],
        "service.first_doc_ms": [j["doc_times"][0] - j["accepted"] for j in ok],
        "service.doc_gap_ms": [b - a for j in ok
                               for a, b in zip(j["doc_times"],
                                               j["doc_times"][1:])],
        "service.finalize_ms": [j["complete"] - j["doc_times"][-1] for j in ok],
    }
    for key, values in spans.items():
        m[f"{key}_p50"] = (1e3 * stats.percentile(values, 0.5), "ms")
        m[f"{key}_p95"] = (1e3 * stats.percentile(values, SPAN_TAIL_Q), "ms")
    refused = [j["status"] for j in jobs if j["status"].startswith("refused")]
    m["service.state_bytes_per_job"] = (
        raw["state_bytes"] / max(raw["jobs_accepted"], 1), "bytes")
    m["service.refused_overload"] = (refused.count("refused:overload"), "count")
    m["service.refused_other"] = (len(refused)
                                  - refused.count("refused:overload"), "count")
    for phase in ("lo", "hi"):
        step = raw["phases"][phase]["jobs"]
        latency = [stats.job_latency_s(j) for j in step]
        late = [j["connect"] - j["due"] for j in step]
        m[f"service.{phase}_p50_ms"] = (1e3 * stats.percentile(latency, 0.5),
                                        "ms")
        m[f"service.{phase}_p90_ms"] = (
            1e3 * stats.percentile(latency, RATE_TAIL_Q), "ms")
        m[f"loadgen.late_p90_ms_{phase}"] = (
            1e3 * stats.percentile(late, RATE_TAIL_Q), "ms")
    closed = raw["phases"]["closed"]
    m["service.max_jobs_per_s"] = (stats.windowed_rate(
        [(j["complete"], 1) for j in stats.jobs_within_limit(closed["jobs"],
                                                            limit_s)],
        closed["seconds"]), "jobs/s")
    m["loadgen.conns_max"] = (max(stats.max_overlap(
        [(j["connect"], j["complete"]) for j in raw["phases"][phase]["jobs"]])
        for phase in ("lo", "hi", "closed")), "count")
    return m


def declared_metrics(kind):
    """Metric names and units, in order, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def print_shares(name, metrics):
    """One line per layer: its share of the traced sweep's wall time."""
    layers = [("nn", "nn.share"), ("text", "text.share"),
              ("core", "core.share"), ("eval", "eval.share"),
              ("util io", "util.io_share")]
    parts = [f"{label} {100 * metrics[key][0]:.1f}%" for label, key in layers]
    total = sum(metrics[key][0] for _, key in layers)
    print(f"{name} layer shares of wall: " + ", ".join(parts)
          + f" (sum {100 * total:.1f}%)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*SWEEPS, DAEMON))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The daemon's fixed load points and latency limit live in
    # BENCHMARK.json's command.
    parser.add_argument("--lo-rate", type=float, required=True)
    parser.add_argument("--hi-rate", type=float, required=True)
    parser.add_argument("--job-limit-ms", type=float, required=True)
    args = parser.parse_args()
    deadline = time.time() + RUN_LIMIT_S

    build()
    deadline = max(deadline, time.time() + RUN_LIMIT_S)  # a first build
    self_test()

    run_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        started = time.time()
        run_driver(["prepare", *common, "--seconds", repr(args.seconds)],
                   run_dir, deadline)
        prepare_s = time.time() - started

        measure = [*common, "--seconds", repr(args.seconds),
                   "--trace", str(args.trace)]
        if args.workload == DAEMON:
            raw = run_driver(["daemon", *measure, "--advtextd",
                              str(BUILD / "advtextd"), "--lo-rate",
                              repr(args.lo_rate), "--hi-rate",
                              repr(args.hi_rate)], run_dir, deadline)
        else:
            budget = deadline - MARGIN_S - time.time()
            raw = run_driver(["sweep", *measure, "--budget-s", repr(budget)],
                             run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    limit_s = args.job_limit_ms / 1e3
    try:
        if args.workload == DAEMON:
            e2e, attempted, failed, summary = daemon_end_to_end(raw, limit_s)
        else:
            e2e, attempted, failed, summary = sweep_end_to_end(raw)
    except stats.InsufficientSamples as error:
        fail(f"too few samples for a reported percentile: {error}")
    print(f"{args.workload} seed {args.seed}: {summary}")
    for error in raw["errors"]:
        print(f"CHECK FAILED: {error}")

    if args.trace:
        if "traced" not in raw or raw["traced"]["docs"] < 1:
            fail("the traced sweep reached no document in the time left")
        if raw["traced"]["docs"] < len(raw["records"]):
            print(f"traced sweep cut by its time guard after "
                  f"{raw['traced']['docs']:.0f} of {len(raw['records'])} "
                  f"documents; per-layer metrics cover those")
        try:
            metrics = layer_metrics(raw)
            if args.workload == DAEMON:
                metrics.update(service_metrics(raw, limit_s))
        except stats.InsufficientSamples as error:
            fail(f"too few samples for a reported percentile: {error}")
        metrics["prepare_s"] = (prepare_s, "s")
        print_shares(args.workload, metrics)
    else:
        metrics = e2e
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if any(declared.get(name) != unit for name, (_, unit) in metrics.items()):
        fail("a computed metric is not in BENCHMARK.json under that unit")
    if not args.trace and len(metrics) != len(declared):
        fail("an end-to-end metric in BENCHMARK.json was not computed")
    # A layer this workload does not have reads 0.
    metrics = {name: metrics.get(name, (0.0, unit))
               for name, unit in declared.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    result = {
        "correct": not raw["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
