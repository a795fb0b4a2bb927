"""Benchmark driver for hueckel-green.

    python3 perfbench/run.py --workload cli_dense --seed 1 --seconds 20 --trace 0

Workloads: cli_dense, cli_point, cli_verify, library (or `all`, which runs
each in turn and prints one table).  One client runs a closed loop: the
next request starts only after the previous one has finished.  With
`--trace 0` the run is timed and reports the end-to-end metrics; with
`--trace 1` it runs the same requests in-process through `cli.main` (or
the library calls), with spans around each layer, and reports per-layer
metrics.  Every answer is checked by `check.py`, outside the
timed interval.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import check
import mix
from client import Launcher, Worker, cli_command, program_env, spawn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"       # staged program copies and span files
SETUP_REPEATS = 5

END_TO_END = (
    ("throughput_rps", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


def stage(k: int) -> Path:
    """A fresh copy of the package, without bytecode, to run the program from.

    The warm-up that follows compiles it, as the first call after an
    install or an edit does, and the benchmark writes nothing under src/.
    """
    dst = OUT / "stage" / str(k)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(SRC / "hueckel_green", dst / "hueckel_green",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dst


# -- timed runs -------------------------------------------------------------

class Record(NamedTuple):
    block: int              # sequence number of the block within the run
    latency: float
    cpu: float
    rss_kb: int
    reason: str | None      # why the answer failed, None when correct


def _requests(blocks):
    """Endless (block sequence number, request) stream over the deck.

    Runs stop only between blocks, so every run serves whole blocks and its
    metrics never depend on where in a block the time ran out.
    """
    seq = 0
    while True:
        for block in blocks:
            for req in block:
                yield seq, req
            seq += 1


class CliTarget:
    """Runs CLI requests as fresh processes."""

    def __init__(self, workload: str, env: dict):
        self.workload = workload
        self.launcher = Launcher(env)

    def setup(self) -> None:
        for req in mix.warmup(self.workload):
            self.launcher.run(cli_command(req["argv"]))

    def serve(self, req: dict):
        """(latency, cpu, rss_kb, reason, sample)."""
        out = self.launcher.run(cli_command(req["argv"]))
        if out.timed_out:
            return out.wall_s, out.cpu_s, out.maxrss_kb, "timeout", None
        reason = check.check(req, out.code, out.stdout)
        if reason:
            reason += f" [stderr: {out.stderr.strip()[-200:]}]"
        return out.wall_s, out.cpu_s, out.maxrss_kb, reason, (out.code, out.stdout)

    def close(self) -> None:
        self.launcher.close()


class LibraryTarget:
    """Feeds library calls to one worker process."""

    def __init__(self, workload: str, env: dict):
        self.worker = Worker(env)

    def setup(self) -> None:
        for req in mix.warmup("library"):
            self.worker.call(req)

    def serve(self, req: dict):
        reply, rtt = self.worker.call(req)
        if reply is None:
            return rtt, 0.0, 0, "timeout or worker crash", None
        reason = check.check_call(req, reply)
        return reply["seconds"], reply["cpu"], reply["maxrss_kb"], reason, reply

    def close(self) -> None:
        self.worker.close()


def _target(workload: str, env: dict):
    return (LibraryTarget if workload == "library" else CliTarget)(workload, env)


def _setup(workload: str, seed: int):
    """Build the deck, stage a fresh program copy, start the target and warm
    it up, SETUP_REPEATS times.  Returns the deck, the last (warm) target,
    its environment and the median set-up seconds."""
    times, target = [], None
    for k in range(SETUP_REPEATS):
        if target:
            target.close()
        start = time.perf_counter()
        blocks = mix.build(workload, seed)
        env = program_env(stage(k))
        target = _target(workload, env)
        target.setup()
        times.append(time.perf_counter() - start)
    return blocks, target, env, statistics.median(times)


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    blocks, target, env, setup_s = _setup(workload, seed)
    try:
        records: list[Record] = []
        samples: dict = {}
        ref: list[float] = []
        busy = 0.0
        for seq, req in _requests(blocks):
            if busy >= seconds and seq > records[-1].block:
                break
            latency, cpu, rss, reason, sample = target.serve(req)
            busy += latency
            records.append(Record(seq, latency, cpu, rss, reason))
            ref.append(ref_loop_s())
            if reason:
                print(f"FAILED {workload} {req['id']} {req.get('argv') or req['op']}: "
                      f"{reason}", file=sys.stderr)
            elif sample is not None:
                samples.setdefault(_sample_kind(req), (req, sample))
    finally:
        target.close()
    selftest = check.self_test(list(samples.values()))
    return {"records": records, "setup_s": setup_s, "selftest": selftest,
            "env": env, "ref": ref}


def _sample_kind(req: dict) -> str:
    if "op" in req:
        return f"{req['op']}:{check.expected(req)['code']}"
    want = check.expected(req)
    return f"{want.get('kind')}:{want['code']}:{req['params'].get('format')}"


def end_to_end(run: dict) -> dict:
    recs: list[Record] = run["records"]
    lat = sorted(r.latency for r in recs)
    values = {
        "throughput_rps": len(recs) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "cpu_s": sum(r.cpu for r in recs) / (recs[-1].block + 1),
        "peak_rss_mb": max(r.rss_kb for r in recs) / 1024.0,
        "setup_s": run["setup_s"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


# -- traced runs ------------------------------------------------------------

def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Run whole blocks (at least one) in-process, traced and untraced.

    Each request also goes once through the CLI process (or the library
    worker), which gives the checked answer and the process overhead.
    """
    import spans
    src = stage(0)
    sys.path.insert(0, str(src))
    env = program_env(src)
    blocks = mix.build(workload, seed)
    tracer = spans.Tracer()
    acc = {"traced": 0.0, "untraced": 0.0, "bytes": 0}
    overhead: list[float] = []
    ref: list[float] = []
    library = workload == "library"
    step = _trace_call if library else _trace_cli
    target = _target(workload, env)
    start = time.perf_counter()
    attempted = failed = 0
    try:
        target.setup()
        if library:
            for req in mix.warmup("library"):
                spans.replay_library(req, spans.UNTRACED)
        else:
            spans.cli_main(mix.warmup(workload)[0]["argv"])
        for b, block in enumerate(blocks):
            if b and time.perf_counter() - start >= seconds:
                break
            for i, req in enumerate(block):
                attempted += 1
                tracer.request = req["id"]
                reason = step(req, tracer, acc, overhead, target,
                              traced_first=i % 2 == 0)
                ref.append(ref_loop_s())
                if reason:
                    failed += 1
                    print(f"FAILED {workload} {req['id']}: {reason}", file=sys.stderr)
    finally:
        target.close()
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    return {"tracer": tracer, "acc": acc, "overhead": overhead,
            "attempted": attempted, "failed": failed, "env": env, "ref": ref}


def _trace_cli(req, tracer, acc, overhead, target, traced_first):
    import spans
    out = target.launcher.run(cli_command(req["argv"]))
    for traced in ((True, False) if traced_first else (False, True)):
        if traced:
            with spans.instrumented(tracer):
                _, text, t = spans.cli_main(req["argv"])
            acc["traced"] += t
            acc["bytes"] += len(text)
        else:
            _, _, t = spans.cli_main(req["argv"])
            acc["untraced"] += t
            overhead.append(out.wall_s - t)
    return "timeout" if out.timed_out else check.check(req, out.code, out.stdout)


def _trace_call(req, tracer, acc, overhead, target, traced_first):
    import spans
    reply, rtt = target.worker.call(req)
    if reply is None:
        return "timeout or worker crash"
    overhead.append(rtt - reply["seconds"])
    for traced in ((True, False) if traced_first else (False, True)):
        if traced:
            with spans.instrumented(tracer):
                acc["traced"] += spans.replay_library(req, tracer)
        else:
            acc["untraced"] += spans.replay_library(req, spans.UNTRACED)
    return check.check_call(req, reply)


def per_layer(run: dict, probes: dict) -> dict:
    import spans
    tracer, acc = run["tracer"], run["acc"]
    totals = tracer.totals()
    m = {}
    for name in spans.SPANS:
        self_s, calls = totals[name]
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.calls"] = (calls, "count")
    gm = totals["closed_form.green_matrix"][0]
    m["closed_form.entries_per_s"] = (
        tracer.work["closed_form.green_matrix"] / gm if gm else 0.0, "1/s")
    wr = totals["output.write"][0]
    m["output.bytes_per_s"] = (acc["bytes"] / wr if wr else 0.0, "B/s")
    spans_s = tracer.root_seconds()
    m["cli.main.self_s"] = (acc["untraced"], "s")
    m["trace.spans_s"] = (spans_s, "s")
    m["trace.traced_s"] = (acc["traced"], "s")
    m["trace.coverage"] = (spans_s / acc["traced"], "ratio")
    m["trace.overhead_frac"] = (acc["traced"] / acc["untraced"] - 1.0, "ratio")
    m["cli.process_overhead_ms"] = (1e3 * statistics.median(run["overhead"]), "ms")
    for name, value in probes.items():
        m[name] = (value, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# -- environment ------------------------------------------------------------

PROBES = (("cli.python_ms", "pass"), ("cli.numpy_import_ms", "import numpy"),
          ("cli.import_ms", "import hueckel_green"))


def startup_probes(env: dict) -> dict:
    """Fresh-interpreter floors: bare start, numpy import, package import."""
    return {name: 1e3 * spawn([sys.executable, "-c", code], env).wall_s
            for name, code in PROBES}


def ref_loop_s() -> float:
    """Time of a fixed pure-Python loop in the benchmark's own process.

    No program code runs in it.  Timed after every request, its median
    (`host.ref_loop_ms`) shows how fast the host ran during the run, so
    the time metrics of runs made at different moments can be read
    against it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - start


def machine() -> dict:
    import numpy
    return {"machine": platform.machine(), "processor": platform.processor(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


# -- entry point ------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        run = traced_run(workload, seed, seconds)
        probes = startup_probes(run["env"])
        probes["host.ref_loop_ms"] = 1e3 * statistics.median(run["ref"])
        metrics = per_layer(run, probes)
        attempted, failed, selftest = run["attempted"], run["failed"], []
    else:
        run = timed_run(workload, seed, seconds)
        probes = startup_probes(run["env"])
        probes["host.ref_loop_ms"] = 1e3 * statistics.median(run["ref"])
        metrics = end_to_end(run)
        attempted = len(run["records"])
        failed = sum(1 for r in run["records"] if r.reason)
        selftest = run["selftest"]
    if selftest:
        raise SystemExit(f"checker self-test failed: {selftest}")
    print("# env " + json.dumps({"workload": workload, "seed": seed, **machine(),
                                 **{k: round(v, 3) for k, v in probes.items()}}))
    count = "" if trace else f"  (n={attempted} requests)"
    for name, m in metrics.items():
        print(f"{workload:<10} {name:<44} {m['value']:>14.6g} {m['unit']}{count}")
    print(f"{workload:<10} {'failed_frac':<44} {failed / attempted:>14.6g} "
          f"({failed}/{attempted} requests)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=mix.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hueckel_green" / "__init__.py").is_file():
        print(f"no hueckel_green sources under {SRC}", file=sys.stderr)
        return 2
    names = mix.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_one(w, args.seed, args.seconds, bool(args.trace))
               for w in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
