"""The three workloads: how each is driven, timed, checked and attributed.

``table1_steady``   one warm process, serial passes over the 20 Table-1 jobs
                    with fresh seeds: the engine's home workload.
``reproduce_cold``  back-to-back fresh ``repro reproduce --subset all
                    --workers 2`` processes, each with an empty result store
                    and codegen cache: import, codegen, pool and store.
``service_fabric``  ``repro serve --fabric`` plus one ``repro worker``,
                    driven closed-loop by two client threads: HTTP, queue,
                    lease, upload and event delivery on every request.

Set-up is repeated and its median reported: ``table1_steady`` and
``service_fabric`` split the timed phase over three fresh instances (each
with its own cache roots), and ``reproduce_cold`` starts five probe
processes (interpreter, ``import repro``, native-library load).

Job seeds and the fabric request order derive from the workload seed.
``repro reproduce`` takes no seed (its jobs use seed 0), so
``reproduce_cold`` runs the same inputs for every workload seed.
"""

from __future__ import annotations

import json
import random
import re
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    SPANS_ENV_VAR,
    SeedStream,
    TOP_PHASES,
    add_layers,
    count_programs,
    digest,
    interval_layers,
    layer_of,
    mean,
    median,
    paper_errors,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    self_times,
    tail,
)

HERE = Path(__file__).resolve().parent
SUT = str(HERE / "sut.py")

#: Instances a run's timed phase is split over (set-up is measured once per
#: instance); the middle one runs untraced in a traced run, as the control
#: that the tracing overhead is measured against.
INSTANCES = 3

#: Seconds a process or request may take beyond its share of the timed
#: phase before it counts as hung (normal runs stay far below).
HUNG_S = 40.0

#: ``repro reproduce`` arguments of one ``reproduce_cold`` request.
REPRODUCE = ["reproduce", "--subset", "all", "--workers", "2"]

#: Probe processes per ``reproduce_cold`` run, for its set-up time.
COLD_PROBES = 5
PROBE = ("import time, repro.cli\n"
         "from repro.snitch import native\n"
         "assert native.available(), native.disabled_reason()\n"
         "print(time.monotonic())\n")

#: The fabric worker's idle poll.  The default (0.5 s) makes the latency
#: tail measure the poll timer instead of the service path.
WORKER_POLL_S = 0.02
CLIENT_THREADS = 2
#: Every REPEAT_EVERY-th request repeats an earlier one (the memo read
#: path); repeats pick requests at least REPEAT_LAG positions back.
REPEAT_EVERY = 4
REPEAT_LAG = 8
#: Traced instances fetch traces for every TRACE_EVERY-th request.
TRACE_EVERY = 4


class Outcome:
    """What a workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: List[Tuple[str, bool, str]] = []
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.info: List[str] = []
        self.layer_seconds: Dict[str, float] = {}
        self.layer_wall = 0.0
        self.spans: List[dict] = []

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.checks.append((name, bool(ok), str(detail)))


def _runner_metrics(phases: Dict[str, float], jobs: int,
                    cycles: int) -> Dict[str, float]:
    """Per-job runner phase means (ms) and engine time per simulated cycle."""
    per_job = (lambda key: 1e3 * phases.get(key, 0.0) / jobs) if jobs else \
        (lambda key: 0.0)
    return {
        "runner.codegen_ms": per_job("codegen"),
        "runner.codegen.lower_ms": per_job("codegen.lower"),
        "runner.codegen.schedule_ms": per_job("codegen.schedule"),
        "runner.codegen.regalloc_ms": per_job("codegen.regalloc"),
        "runner.setup_ms": per_job("setup"),
        "runner.verify_ms": per_job("verify"),
        "runner.simulate_ns_per_cycle": (1e9 * phases.get("simulate", 0.0)
                                         / cycles if cycles else 0.0),
    }


def _store_metrics(spans: List[dict]) -> Dict[str, float]:
    loads = [s for s in spans if s["name"] == "store.load"]
    saves = [s for s in spans if s["name"] == "store.save"]
    hits = sum(1 for s in loads if (s.get("attrs") or {}).get("hit"))
    return {
        "store.load_ms": 1e3 * mean(s["dur"] for s in loads),
        "store.save_ms": 1e3 * mean(s["dur"] for s in saves),
        "store.hit_ratio": hits / len(loads) if loads else 0.0,
    }


def _latency_metrics(out: Outcome, latencies_ms: List[float],
                     what: str) -> None:
    value, percentile, n = tail(latencies_ms)
    out.end_to_end["latency_p50_ms"] = median(latencies_ms)
    out.end_to_end["latency_tail_ms"] = value
    out.info.append(f"latency per {what}: p50 {median(latencies_ms):.3f} ms,"
                    f" tail p{percentile:.2f} {value:.3f} ms over {n} "
                    f"samples" + (" (too few samples for a tail percentile"
                                  " above the median: the maximum)"
                                  if percentile == 100.0 else ""))


def _overhead(out: Outcome, traced: float, untraced: float,
              what: str) -> None:
    if traced > 0 and untraced > 0:
        out.info.append(f"tracing overhead ({what}): traced "
                        f"{traced:.4g} vs untraced {untraced:.4g} "
                        f"({traced / untraced - 1.0:+.1%})")


# ---------------------------------------------------------------------------
# table1_steady
# ---------------------------------------------------------------------------

def table1_steady(ctx) -> Outcome:
    out = Outcome()
    reports = []
    for i in range(INSTANCES):
        traced = ctx.trace and i != 1
        cache = ctx.fresh_dir(f"steady-{i}")
        path = ctx.work / f"steady-{i}.json"
        cmd = [sys.executable, SUT, "steady", "--seed", str(ctx.seed),
               "--instance", str(i), "--seconds",
               repr(ctx.seconds / INSTANCES), "--report", str(path)]
        launch = time.monotonic()
        ctx.run(cmd + (["--trace"] if traced else []), ctx.env(cache),
                timeout=ctx.seconds / INSTANCES + HUNG_S)
        report = json.loads(path.read_text())
        report["setup_s"] = report["t_ready"] - launch
        report["traced"] = traced
        reports.append(report)

    out.attempted = sum(r["jobs"] for r in reports)
    out.failed = sum(r["failed"] for r in reports)
    wall = sum(r["t_end"] - r["t_ready"] for r in reports)
    out.end_to_end["setup_s"] = median(r["setup_s"] for r in reports)
    out.end_to_end["jobs_per_s"] = out.attempted / wall
    out.end_to_end["sim_cycles_per_cpu_s"] = (
        sum(r["cycles"] for r in reports) / sum(r["cpu_s"] for r in reports))
    _latency_metrics(out, [x for r in reports for x in r["latencies_ms"]],
                     "pass of 20 jobs")
    out.end_to_end["peak_rss_mb"] = median(r["peak_rss_mb"] for r in reports)
    out.end_to_end.update(reports[0]["errors"])

    out.check("timed phase compiles nothing",
              all(r["programs_compiled_timed"] == 0 for r in reports),
              [r["programs_compiled_timed"] for r in reports])
    out.check("warm-up compiled every program",
              all(r["programs_compiled_warmup"] > 0 for r in reports))
    out.check("native engine carried every run",
              all(r["fallback_runs"] == 0 for r in reports))
    out.check("same cycles for every seed",
              all(r["cycle_mismatches"] == 0 for r in reports))
    out.check("fresh seeds give disjoint job hashes",
              all(r["duplicate_job_hashes"] == 0 for r in reports))
    out.check("accuracy metrics agree across instances",
              all(r["errors"] == reports[0]["errors"] for r in reports))
    out.info.append(f"simulated-statistics digest {reports[0]['digest']} "
                    f"over the 20 (kernel, variant) results, "
                    f"{reports[0]['digest_cycles']} simulated cycles")

    traced = [r for r in reports if r["traced"]]
    if traced:
        layer: Dict[str, float] = {}
        phases: Dict[str, float] = {}
        for r in traced:
            for key, value in r["phase_totals"].items():
                phases[key] = phases.get(key, 0.0) + value
        jobs = sum(r["jobs"] - r["failed"] for r in traced)
        layer.update(_runner_metrics(phases, jobs,
                                     sum(r["cycles"] for r in traced)))
        runs = sum(r["native_runs"] + r["fallback_runs"] for r in traced)
        layer.update({
            "import.repro_s": median(r["import_s"] for r in traced),
            "native.load_s": median(r["native_load_s"] for r in traced),
            "native.fallback_ratio": (sum(r["fallback_runs"] for r in traced)
                                      / runs if runs else 0.0),
            "codegen.programs_compiled": sum(r["programs_compiled_timed"]
                                             for r in traced),
        })
        out.per_layer = layer
        for r in traced:
            add_layers(out.layer_seconds, self_times(r["spans"]))
            out.spans.extend(r["spans"])
        out.layer_wall = sum(r["t_end"] - r["t_ready"] for r in traced)
        control = reports[1]
        _overhead(out, mean(r["jobs"] / (r["t_end"] - r["t_ready"])
                            for r in traced),
                  control["jobs"] / (control["t_end"] - control["t_ready"]),
                  "jobs/s")
    return out


# ---------------------------------------------------------------------------
# reproduce_cold
# ---------------------------------------------------------------------------

def _read_store(cache: Path) -> Dict[str, dict]:
    """Result-store entries by job content hash (the file name's suffix)."""
    return {path.stem.rsplit("-", 1)[1]: json.loads(path.read_text())
            for path in sorted(cache.glob("v*/*.json"))}


def reproduce_cold(ctx) -> Outcome:
    from repro.runner import KernelRunResult
    from repro.sweep.artifacts import paper_jobs
    from repro.sweep.engine import run_sweep

    out = Outcome()
    setups = []
    for i in range(COLD_PROBES):
        launch = time.monotonic()
        ready = ctx.run([sys.executable, "-c", PROBE],
                        ctx.env(ctx.fresh_dir(f"probe-{i}")),
                        timeout=HUNG_S, capture=True)
        setups.append(float(ready.split()[-1]) - launch)

    requests = []
    start = time.monotonic()
    deadline = start + ctx.seconds
    while not requests or time.monotonic() < deadline:
        i = len(requests)
        traced = ctx.trace and i % 2 == 0
        cache = ctx.fresh_dir(f"cold-{i}")
        env = ctx.env(cache)
        spans_path = ctx.work / f"cold-{i}-spans.json"
        if traced:
            env[SPANS_ENV_VAR] = str(spans_path)
            cmd = [sys.executable, SUT, "cli", *REPRODUCE]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *REPRODUCE]
        launch_wall, launch = time.time(), time.monotonic()
        rc, usage = ctx.run_rusage(cmd, env, timeout=HUNG_S)
        end, end_wall = time.monotonic(), time.time()
        requests.append({"rc": rc, "cache": cache, "traced": traced,
                         "latency_s": end - launch,
                         "window": (launch_wall, end_wall),
                         "cpu_s": usage.ru_utime + usage.ru_stime,
                         "peak_rss_mb": usage.ru_maxrss / 1024.0,
                         "spans_path": spans_path})
    wall = time.monotonic() - start

    # Read every request's fresh store after the timed phase.
    for req in requests:
        req["by_hash"] = {
            job_hash: KernelRunResult.from_json_dict(payload["result"])
            for job_hash, payload in _read_store(req["cache"]).items()}
        results = req["results"] = list(req["by_hash"].values())
        req["programs"] = count_programs(req["cache"])
        req["digest"] = digest(r.metrics_hash() for r in results)
        req["ok"] = (req["rc"] == 0 and bool(results)
                     and all(r.correct for r in results))
    first = requests[0]
    out.attempted = len(requests)
    out.failed = sum(1 for r in requests if not r["ok"])
    delivered = sum(len(r["results"]) for r in requests if r["ok"])
    out.end_to_end["setup_s"] = median(setups)
    out.end_to_end["jobs_per_s"] = delivered / wall
    out.end_to_end["sim_cycles_per_cpu_s"] = (
        sum(res.cycles for r in requests for res in r["results"])
        / sum(r["cpu_s"] for r in requests))
    _latency_metrics(out, [1e3 * r["latency_s"] for r in requests],
                     "reproduce process")
    out.end_to_end["peak_rss_mb"] = median(r["peak_rss_mb"] for r in requests)

    reference = paper_jobs()
    serial = run_sweep(reference, workers=1, store=None).results
    paper = {}
    mismatched = 0
    for job, res in zip(reference, serial):
        stored = first["by_hash"].get(job.content_hash())
        mismatched += (stored is None
                       or stored.metrics_hash() != res.metrics_hash())
        paper[(res.kernel, res.variant)] = stored or res
    out.end_to_end.update(paper_errors(paper))

    out.check("every request exited cleanly with correct results",
              out.failed == 0, [r["rc"] for r in requests])
    out.check("every request simulated the same jobs",
              all(len(r["results"]) == len(first["results"])
                  for r in requests), len(first["results"]))
    out.check("every request compiled every program",
              first["programs"] > 0 and all(
                  r["programs"] == first["programs"] for r in requests),
              first["programs"])
    out.check("identical results in every request",
              all(r["digest"] == first["digest"] for r in requests))
    out.check("native engine carried every run",
              all(res.engine == "native" for r in requests
                  for res in r["results"]))
    out.check("pool results equal serial in-process results",
              mismatched == 0, mismatched)
    out.info.append(f"simulated-statistics digest {first['digest']} over "
                    f"{len(first['results'])} distinct results, "
                    f"{sum(r.cycles for r in first['results'])} simulated "
                    f"cycles")
    out.info.append(f"set-up probes (s): "
                    + ", ".join(f"{s:.4f}" for s in setups))

    traced = [r for r in requests if r["traced"] and r["ok"]]
    if traced:
        _cold_layers(out, traced)
        _overhead(out, median(r["latency_s"] for r in traced),
                  median(r["latency_s"] for r in requests
                         if not r["traced"]), "request latency s")
    return out


def _cold_layers(out: Outcome, traced: List[dict]) -> None:
    layer: Dict[str, float] = {}
    spans_all: List[dict] = []
    imports, loads, artifacts, timeline, programs = [], [], [], [], []
    phases: Dict[str, float] = {}
    jobs = cycles = fallbacks = retries = foreign = 0
    busy = capacity = 0.0
    for req in traced:
        dump = json.loads(req["spans_path"].read_text())
        spans = dump["spans"]
        spans_all.extend(spans)
        lo, hi = req["window"]
        layers = self_times(spans)
        cli = next(s for s in spans if s["name"] == "cli")
        imp = next(s for s in spans if s["name"] == "import")
        layers["process"] = ((imp["ts"] - lo)
                             + max(0.0, hi - (cli["ts"] + cli["dur"])))
        add_layers(out.layer_seconds, layers)
        out.layer_wall += hi - lo
        imports.append(imp["dur"])
        artifacts.append(layers.get("artifacts", 0.0))
        timeline.append(sum(s["dur"] for s in spans
                            if s["name"] == "scaleout.timeline"))
        programs.append(req["programs"])
        saved = set()
        for span in sorted(spans, key=lambda s: s["ts"]):
            if span["name"] == "store.save":
                saved.add(span["attrs"]["job"])
            elif span["name"] == "store.load" and span["attrs"]["hit"]:
                foreign += span["attrs"]["job"] not in saved
        per_request_loads = []
        for s in spans:
            attrs = s.get("attrs") or {}
            if s["name"] != "run_sweep":
                continue
            retries += attrs.get("retries", 0)
            per_request_loads.extend(attrs.get("native_load", []))
            if attrs.get("parallel"):
                busy += sum(v for k, v in attrs["phases"].items()
                            if k in TOP_PHASES)
                capacity += attrs["workers"] * s["dur"]
        loads.append(mean(per_request_loads))
        for res in req["results"]:
            jobs += 1
            cycles += res.cycles
            fallbacks += res.engine != "native"
            for key, value in res.phase_seconds.items():
                phases[key] = phases.get(key, 0.0) + value
    out.check("store hits only on entries the same request wrote",
              foreign == 0, foreign)
    layer.update(_runner_metrics(phases, jobs, cycles))
    layer.update(_store_metrics(spans_all))
    layer.update({
        "import.repro_s": median(imports),
        "native.load_s": median(loads),
        "native.fallback_ratio": fallbacks / jobs if jobs else 0.0,
        "codegen.programs_compiled": median(programs),
        "sweep.parallel_efficiency": busy / capacity if capacity else 0.0,
        "artifacts.build_ms": 1e3 * median(artifacts),
        "scaleout.timeline_ms": 1e3 * median(timeline),
        "supervisor.retries": retries,
    })
    out.per_layer = layer
    out.spans = spans_all


# ---------------------------------------------------------------------------
# service_fabric
# ---------------------------------------------------------------------------

class Schedule:
    """The deterministic request order of one fabric instance.

    Three of four requests are a fresh-seed base+SARIS pair of the next
    kernel in a seeded shuffle (the write path); every fourth repeats an
    earlier pair, served from the coordinator's memo (the read path).
    """

    def __init__(self, ctx, instance: int, seeds: SeedStream,
                 warm: List[Tuple[str, int]]) -> None:
        from repro.core.kernels import TABLE1_KERNELS

        self.kernels = list(TABLE1_KERNELS)
        self.rng = random.Random(f"service_fabric:{ctx.seed}:{instance}")
        self.seeds = seeds
        self.warm = list(warm)
        self.fresh: List[Tuple[int, Tuple[str, int]]] = []
        self.order: List[str] = []
        self.issued = 0
        self.lock = threading.Lock()

    def next(self) -> Tuple[int, str, int, bool]:
        with self.lock:
            index = self.issued
            self.issued += 1
            if index % REPEAT_EVERY == REPEAT_EVERY - 1:
                pool = self.warm + [pair for j, pair in self.fresh
                                    if j <= index - REPEAT_LAG]
                kernel, seed = self.rng.choice(pool)
                return index, kernel, seed, True
            if not self.order:
                self.order = list(self.kernels)
                self.rng.shuffle(self.order)
            kernel, seed = self.order.pop(), self.seeds.take()
            self.fresh.append((index, (kernel, seed)))
            return index, kernel, seed, False


def _pair(kernel: str, seed: int) -> dict:
    from repro.core.variants import paper_variants

    return {"jobs": [{"kernel": kernel, "variant": variant, "seed": seed}
                     for variant in paper_variants()]}


class FabricInstance:
    """One coordinator + worker pair and the client that drives it."""

    def __init__(self, ctx, index: int, traced: bool) -> None:
        self.ctx = ctx
        self.index = index
        self.traced = traced
        self.requests: List[dict] = []
        self.warm: List[dict] = []
        self.spans: List[dict] = []
        self.lock = threading.Lock()

    def _cmd(self, args: List[str], env: dict, role: str) -> List[str]:
        if not self.traced:
            return [sys.executable, "-m", "repro.cli", *args]
        env[SPANS_ENV_VAR] = str(self.ctx.work /
                                     f"fabric-{self.index}-{role}.json")
        return [sys.executable, SUT, "cli", *args]

    def start(self) -> None:
        from repro.service.client import ServiceClient

        ctx = self.ctx
        self.cache = ctx.fresh_dir(f"fabric-{self.index}")
        self.launch = time.monotonic()
        env = ctx.env(self.cache)
        with open(ctx.work / f"fabric-{self.index}.log", "ab") as log:
            self.coordinator = ctx.popen(
                self._cmd(["serve", "--fabric", "--host", "127.0.0.1",
                           "--port", "0"], env, "coordinator"),
                env, stdout=subprocess.PIPE, stderr=log)
            pipe = self.coordinator.stdout
            line = (pipe.readline().decode()
                    if select.select([pipe], [], [], HUNG_S)[0] else "")
            match = re.search(r"listening on (\S+)", line)
            if match is None:
                raise RuntimeError(f"coordinator did not start: {line!r}")
            env = ctx.env(self.cache)
            self.worker = ctx.popen(
                self._cmd(["worker", "--url", match.group(1), "--poll",
                           str(WORKER_POLL_S)], env, "worker"),
                env, stderr=log)
        url = match.group(1)
        self.client = ServiceClient(url, timeout=HUNG_S)

    def request(self, kernel: str, seed: int, repeat: bool,
                index: int) -> dict:
        client = self.client
        w0, t0 = time.time(), time.monotonic()
        done: Dict[str, dict] = {}
        paths: Dict[str, str] = {}
        ok = True
        sweep = None
        try:
            receipt = client.submit(_pair(kernel, seed))
            t1 = time.monotonic()
            sweep = receipt["sweep"]
            for event in client.stream(sweep, timeout=HUNG_S / 2,
                                       max_retries=1):
                kind = event.get("event")
                if kind == "submitted":
                    # How the coordinator serves the job: "executed",
                    # "memo", "coalesced" or "store".
                    paths[event["job"]] = event.get("source")
                elif kind == "done":
                    done[event["job"]] = dict(event,
                                              path=paths.get(event["job"]))
                elif kind in ("failed", "cancelled"):
                    ok = False
        except Exception as exc:  # noqa: BLE001 - a failed request
            print(f"service_fabric: request failed: {exc!r}",
                  file=sys.stderr)
            ok = False
            t1 = time.monotonic()
        t2 = time.monotonic()
        ok = ok and len(done) == 2 and all(
            e["metrics"]["correct"] for e in done.values())
        return {"index": index, "kernel": kernel, "seed": seed,
                "repeat": repeat, "ok": ok, "sweep": sweep, "done": done,
                "latency_s": t2 - t0, "submit_s": t1 - t0,
                "wall": (w0, w0 + (t1 - t0), w0 + (t2 - t0))}

    def warm_up(self) -> List[Tuple[str, int]]:
        from repro.core.kernels import TABLE1_KERNELS

        self.seeds = SeedStream(self.ctx.seed, self.index)
        pairs = []
        for kernel in TABLE1_KERNELS:
            seed = self.seeds.take()
            self.warm.append(self.request(kernel, seed, False, -1))
            pairs.append((kernel, seed))
        self.compiled_warm = count_programs(self.cache)
        return pairs

    def timed(self, seconds: float, pairs: List[Tuple[str, int]]) -> None:
        schedule = Schedule(self.ctx, self.index, self.seeds, pairs)
        self.t_ready = time.monotonic()
        pids = (self.coordinator.pid, self.worker.pid)
        self.cpu0 = sum(proc_cpu_seconds(pid) for pid in pids)
        deadline = self.t_ready + seconds

        def loop() -> None:
            while time.monotonic() < deadline:
                index, kernel, seed, repeat = schedule.next()
                record = self.request(kernel, seed, repeat, index)
                with self.lock:
                    self.requests.append(record)

        threads = [threading.Thread(target=loop, name=f"client-{n}")
                   for n in range(CLIENT_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.t_end = time.monotonic()
        self.cpu1 = sum(proc_cpu_seconds(pid) for pid in pids)
        self.peak_rss_mb = max(proc_peak_rss_mb(pid) for pid in pids)

    def collect(self) -> None:
        client = self.client
        self.stats = client.stats()
        self.compiled_timed = count_programs(self.cache) - self.compiled_warm
        self.warm_results = {}
        for record in self.warm:
            for job_hash in record["done"]:
                self.warm_results[job_hash] = client.job(job_hash)["result"]
        if not self.traced:
            return
        self.sampled = [r for r in self.requests
                        if r["index"] % TRACE_EVERY == 0 and r["ok"]]
        for record in self.sampled:
            record["trace"] = client.trace(record["sweep"])["spans"]
            record["status"] = client.sweep(record["sweep"])
            record["results"] = {
                job_hash: client.job(job_hash)["result"]
                for job_hash, event in record["done"].items()
                if event["path"] == "executed"}

    def stop(self) -> None:
        """Worker first, so it never polls a coordinator that is gone."""
        self.unclean = []
        for role in ("worker", "coordinator"):
            proc = getattr(self, role, None)
            if proc is not None and not self.ctx.stop(proc):
                self.unclean.append(role)
        if self.traced:
            for role in ("coordinator", "worker"):
                path = self.ctx.work / f"fabric-{self.index}-{role}.json"
                if path.exists():
                    self.spans.extend(json.loads(path.read_text())["spans"])


def service_fabric(ctx) -> Outcome:
    from repro.core.variants import paper_variants
    from repro.runner import KernelRunResult
    from repro.sweep.engine import run_sweep
    from repro.sweep.job import SweepJob

    out = Outcome()
    instances: List[FabricInstance] = []
    for i in range(INSTANCES):
        inst = FabricInstance(ctx, i, ctx.trace and i != 1)
        instances.append(inst)
        try:
            inst.start()
            pairs = inst.warm_up()
            inst.timed(ctx.seconds / INSTANCES, pairs)
            inst.collect()
        finally:
            inst.stop()

    records = [r for inst in instances for r in inst.requests]
    out.attempted = len(records)
    out.failed = sum(1 for r in records if not r["ok"])
    wall = sum(inst.t_end - inst.t_ready for inst in instances)
    delivered = sum(len(r["done"]) for r in records if r["ok"])
    executed = [e for r in records for e in r["done"].values()
                if e["path"] == "executed"]
    out.end_to_end["setup_s"] = median(inst.t_ready - inst.launch
                                for inst in instances)
    out.end_to_end["jobs_per_s"] = delivered / wall
    out.end_to_end["sim_cycles_per_cpu_s"] = (
        sum(e["metrics"]["cycles"] for e in executed)
        / sum(inst.cpu1 - inst.cpu0 for inst in instances))
    _latency_metrics(out, [1e3 * r["latency_s"] for r in records],
                     "request")
    out.end_to_end["peak_rss_mb"] = median(inst.peak_rss_mb
                                           for inst in instances)

    # Service results against in-process results of the same jobs.
    first = instances[0]
    served = {h: KernelRunResult.from_json_dict(p)
              for h, p in first.warm_results.items()}
    jobs = [SweepJob.make(r["kernel"], variant, seed=r["seed"])
            for r in first.warm for variant in paper_variants()]
    local = run_sweep(jobs, workers=1, store=None).results
    mismatched = sum(
        1 for job, res in zip(jobs, local)
        if job.content_hash() not in served
        or served[job.content_hash()].metrics_hash() != res.metrics_hash())
    out.end_to_end.update(paper_errors({(r.kernel, r.variant): r
                                 for r in served.values()}))

    cycles_of = {(e["label"]): e["metrics"]["cycles"]
                 for inst in instances for w in inst.warm
                 for e in w["done"].values()}
    fresh_hashes = [h for r in records if not r["repeat"] for h in r["done"]]
    repeats = [r for r in records if r["repeat"]]
    out.check("every request delivered correct results", out.failed == 0,
              out.failed)
    out.check("service results equal in-process results", mismatched == 0,
              mismatched)
    out.check("same cycles for every seed", all(
        e["metrics"]["cycles"] == cycles_of[e["label"]]
        for r in records for e in r["done"].values()))
    out.check("fresh requests have disjoint job hashes",
              len(fresh_hashes) == len(set(fresh_hashes)))
    out.check("repeats executed nothing", all(
        e["path"] != "executed" for r in repeats
        for e in r["done"].values()))
    out.check("native engine carried every run",
              all(e["metrics"]["engine"] == "native" for e in executed))
    out.check("timed phase compiles nothing",
              all(inst.compiled_timed == 0 for inst in instances),
              [inst.compiled_timed for inst in instances])
    out.info.append(f"simulated-statistics digest "
                    f"{digest(r.metrics_hash() for r in served.values())} "
                    f"over the 20 (kernel, variant) warm-up results, "
                    f"{sum(r.cycles for r in served.values())} simulated "
                    f"cycles")
    out.info.append(f"worker idle poll {WORKER_POLL_S} s, "
                    f"{CLIENT_THREADS} closed-loop client threads, "
                    f"{len(repeats)} of {len(records)} requests repeated")
    for inst in instances:
        for role in inst.unclean:
            out.info.append(f"instance {inst.index}: the {role} did not exit "
                            f"within 10 s of SIGINT and was killed")

    traced = [inst for inst in instances if inst.traced]
    if traced:
        _fabric_layers(out, traced)
        _overhead(out, median(1e3 * r["latency_s"] for inst in traced
                              for r in inst.requests),
                  median(1e3 * r["latency_s"]
                         for r in instances[1].requests), "p50 ms")
    return out


def _fabric_layers(out: Outcome, traced: List[FabricInstance]) -> None:
    layer: Dict[str, float] = {}
    spans: List[dict] = []
    submits, attempts, loads = [], [], []
    phases: Dict[str, float] = {}
    jobs = cycles = retries = fallbacks = executed = 0
    for inst in traced:
        spans.extend(inst.spans)
        for record in inst.requests:
            submits.append(record["submit_s"])
            for event in record["done"].values():
                if event["path"] == "executed":
                    executed += 1
                    retries += max(0, int(event.get("attempts", 1)) - 1)
                    fallbacks += event["metrics"]["engine"] != "native"
        for payload in inst.warm_results.values():
            if "native.load" in payload.get("phase_seconds", {}):
                loads.append(payload["phase_seconds"]["native.load"])
        for record in inst.sampled:
            trace = record["trace"]
            spans.extend(trace)
            attempts.extend(s["dur"] for s in trace
                            if s["name"] == "attempt"
                            and (s.get("attrs") or {}).get("worker"))
            for payload in record["results"].values():
                jobs += 1
                cycles += payload["cycles"]
                for key, value in payload.get("phase_seconds", {}).items():
                    phases[key] = phases.get(key, 0.0) + value
            _request_layers(out, record, trace)
    def queue_ms(stage: str, quantile: str) -> float:
        """Mean over instances of the daemon's own latency quantile."""
        return 1e3 * mean(inst.stats["queue"]["latency"][stage][quantile]
                          or 0.0 for inst in traced)

    def counter(name: str) -> float:
        # The warm-up has no memo or store hits (fresh seeds, fresh store),
        # so the daemons' lifetime counters are the timed phase's.
        return sum(inst.stats["metrics"].get(name, 0) for inst in traced)

    imports = [s["dur"] for s in spans if s["name"] == "import"]
    layer.update(_runner_metrics(phases, jobs, cycles))
    layer.update(_store_metrics(spans))
    attempt_ms = 1e3 * median(attempts)
    layer.update({
        "import.repro_s": median(imports),
        "native.load_s": median(loads),
        "native.fallback_ratio": fallbacks / executed if executed else 0.0,
        "codegen.programs_compiled": sum(inst.compiled_timed
                                         for inst in traced),
        "http.submit_ms": 1e3 * median(submits),
        "queue.wait_ms.p50": queue_ms("queue", "p50"),
        "queue.wait_ms.p95": queue_ms("queue", "p95"),
        "queue.exec_ms.p50": queue_ms("exec", "p50"),
        "queue.exec_ms.p95": queue_ms("exec", "p95"),
        "queue.memo_hits": counter("repro_queue_memo_hits_total"),
        "queue.store_hits": counter("repro_queue_store_hits_total"),
        "worker.attempt_ms": attempt_ms,
        "fabric.lease_overhead_ms": queue_ms("exec", "p50") - attempt_ms,
        "fabric.requeues": sum((inst.stats.get("fabric") or {})
                               .get("requeues", 0) for inst in traced),
        "supervisor.retries": retries,
    })
    out.per_layer = layer
    out.spans.extend(spans)


#: Interval priorities for a fabric request: the deepest layer active at an
#: instant gets the instant.
_PRIORITY = {"http": 1, "queue": 2, "fabric": 3, "worker": 4}


def _request_layers(out: Outcome, record: dict, trace: List[dict]) -> None:
    """Charge one request's latency to the layers active at each instant."""
    start, submitted, end = record["wall"]
    intervals: List[Tuple[float, float, int, str]] = [
        (start, submitted, _PRIORITY["http"], "http")]
    last_finish = start
    for job in record["status"]["jobs"]:
        queued, running, finished = (job.get("submitted_at"),
                                     job.get("started_at"),
                                     job.get("finished_at"))
        if queued and running:
            intervals.append((queued, running, _PRIORITY["queue"], "queue"))
        if running and finished:
            intervals.append((running, finished, _PRIORITY["fabric"],
                              "fabric"))
        if finished:
            last_finish = max(last_finish, finished)
    intervals.append((max(submitted, last_finish), end, _PRIORITY["http"],
                      "http"))
    for span in trace:
        attrs = span.get("attrs") or {}
        if span["name"] == "attempt" and attrs.get("worker"):
            layer, priority = "worker", _PRIORITY["worker"]
        elif span["name"] in ("codegen", "setup", "simulate", "verify",
                              "store.load", "store.save"):
            layer, priority = layer_of(span["name"]), 5
        else:
            continue
        intervals.append((span["ts"], span["ts"] + span["dur"], priority,
                          layer))
    add_layers(out.layer_seconds, interval_layers((start, end), intervals))
    out.layer_wall += end - start
    # The client's side of the request, on the sweep's trace.
    for name, lo, hi in (("client.submit", start, submitted),
                         ("client.stream", submitted, end)):
        out.spans.append({"name": name, "trace": record["status"]["trace"],
                          "span": f"{name}-{record['index']}",
                          "parent": None, "ts": lo, "dur": hi - lo,
                          "proc": "client", "tid": 0,
                          "attrs": {"sweep": record["sweep"]}})


WORKLOADS = {
    "table1_steady": table1_steady,
    "reproduce_cold": reproduce_cold,
    "service_fabric": service_fabric,
}
