"""Code that runs inside the processes the benchmark measures.

``python perfbench/sut.py steady ...``
    The ``table1_steady`` system under test: one warm process that sets up
    (``import repro``, native-library load, one warm-up pass that compiles
    every program), then runs serial passes over the 20 Table-1 jobs with
    fresh seeds until its time is up, and writes a JSON report.  A pass
    (one ``run_sweep`` call) is the workload's request: per-job times are
    multimodal (3D kernels take three times as long as 2D ones), so their
    median jumps between kernel groups from run to run.

``python perfbench/sut.py cli <repro arguments>``
    Traced runs only: wraps the public entry points of each layer in spans,
    then hands over to ``repro.cli.main``.  The spans are kept in memory and
    written to ``$PERFBENCH_SPANS`` when the process exits.  Untraced runs
    start ``python -m repro.cli`` instead, so the program runs unmodified.

Spans use the program's own recorder (``repro.obs``), so spans the program
already opens (``codegen``, ``simulate``, a worker's ``attempt``) nest under
the wrappers' spans and the records share one format.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import os
import resource
import sys
import time
from pathlib import Path

from common import (
    SPANS_ENV_VAR,
    SeedStream,
    count_programs,
    digest,
    paper_errors,
    write_json,
)

class Tracer:
    """Wraps layer entry points in ``repro.obs`` spans and keeps the records.

    Records of a top-level span (one opened outside any other span) and of
    everything nested under it are moved out of the program's bounded
    recorder as soon as it closes.  Nested spans under a span the program
    opened itself stay with the program, which ships them on (a fabric
    worker uploads them with its result).
    """

    def __init__(self) -> None:
        from repro import obs

        self.obs = obs
        self.spans: list = []

    def span(self, name: str, call, *args, **kwargs):
        """Run ``call`` inside a span and return its result."""
        obs = self.obs
        top = obs.current_context() is None
        sources: dict = {}
        if name == "run_sweep":
            kwargs["progress"] = self._sources(kwargs.get("progress"),
                                               sources)
        span = obs.span(name)
        with span as ctx:
            result = call(*args, **kwargs)
        # The closed record holds this very dict: describing the outcome
        # afterwards keeps the work out of the span's duration.
        span.attrs.update(self.describe(name, args, result, sources))
        if top and ctx is not None:
            self.spans.extend(obs.take_spans(ctx.trace_id))
        return result

    @staticmethod
    def _sources(progress, sources: dict):
        """A sweep progress callback that also records where each job's
        result came from (``cache`` or executed)."""
        def record(done, total, job, source):
            sources[id(job)] = source
            if progress is not None:
                progress(done, total, job, source)
        return record

    @staticmethod
    def describe(name: str, args, result, sources: dict) -> dict:
        """Attributes a span carries about its call's outcome."""
        if name in ("store.load", "store.save"):
            attrs = {"job": args[1].content_hash()}
            if name == "store.load":
                attrs["hit"] = result is not None
            return attrs
        if name != "run_sweep":
            return {}
        executed = [item for job, item in zip(args[0], result.results)
                    if item is not None
                    and sources.get(id(job)) in ("serial", "parallel")]
        phases: dict = {}
        for item in executed:
            for phase, seconds in item.phase_seconds.items():
                phases[phase] = phases.get(phase, 0.0) + seconds
        return {
            "workers": result.workers,
            "parallel": bool(result.parallel),
            "executed": result.executed,
            "cache_hits": result.cache_hits,
            "retries": result.retries,
            "phases": phases,
            "native_load": [item.phase_seconds["native.load"]
                            for item in executed
                            if "native.load" in item.phase_seconds],
        }

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (and every ``repro`` module's binding of
        the same function) by a span-recording wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        setattr(owner, attr, wrapper)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original):
                setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of the sweep, store, artifact,
        scale-out and native layers."""
        import repro.scaleout.sim as scaleout_sim
        import repro.sweep.artifacts as artifacts
        import repro.sweep.engine as engine
        from repro.snitch import native
        from repro.sweep.store import ResultStore

        self.wrap(engine, "run_sweep", "run_sweep")
        self.wrap(ResultStore, "load", "store.load")
        self.wrap(ResultStore, "save", "store.save")
        for artifact in ("table1", "fig3a", "fig3b", "fig4", "fig5",
                         "scaleout_direct", "table2", "listing1",
                         "ablations"):
            self.wrap(artifacts, "build_" + artifact,
                      "artifacts." + artifact)
        self.wrap(scaleout_sim, "run_timeline", "scaleout.timeline")
        self._wrap_native_load(native)

    def _wrap_native_load(self, native) -> None:
        """Time the first native-library load as a span and as the
        ``native.load`` phase, so a load inside ``run_kernel`` (in a pool
        worker too) reaches the parent in ``phase_seconds``."""
        original = native._load_engine
        obs = self.obs

        def load():
            if native._ENGINE is not None:
                return original()
            with obs.phase("native.load"):
                return self.span("native.load", original)

        native._load_engine = load


def _record(obs, name: str, wall: float, seconds: float) -> dict:
    """A span record for an interval timed outside ``obs.span``."""
    return {"name": name, "trace": "process", "span": obs.new_span_id(),
            "parent": None, "ts": wall, "dur": seconds,
            "proc": obs.process_label(), "tid": 0, "attrs": {}}


# ---------------------------------------------------------------------------
# Traced CLI entry
# ---------------------------------------------------------------------------

def cli_main(argv) -> int:
    """Import, wrap, run ``repro.cli.main``; write spans at exit."""
    import_wall, import_start = time.time(), time.monotonic()
    import repro.cli

    import_end = time.monotonic()
    tracer = Tracer()
    tracer.install()
    obs = tracer.obs
    tracer.spans.append(_record(obs, "import", import_wall,
                                import_end - import_start))
    out = os.environ.get(SPANS_ENV_VAR)
    pid = os.getpid()
    main_wall, main_start = time.time(), time.monotonic()

    def dump() -> None:
        # Forked pool workers inherit this hook; only the entry process
        # owns the file.
        if os.getpid() != pid or not out:
            return
        cli = _record(obs, "cli", main_wall, time.monotonic() - main_start)
        for span in tracer.spans:
            if span["parent"] is None and span["name"] != "import":
                span["parent"] = cli["span"]
        tracer.spans.append(cli)
        write_json(Path(out), {"spans": tracer.spans})

    atexit.register(dump)
    return repro.cli.main(list(argv))


# ---------------------------------------------------------------------------
# table1_steady
# ---------------------------------------------------------------------------

def steady_main(args) -> int:
    import_start = time.monotonic()
    import repro  # noqa: F401 - the import is part of the measured set-up

    import_end = time.monotonic()
    from repro.snitch import native

    if not native.available():
        raise SystemExit(f"native engine unavailable: "
                         f"{native.disabled_reason()}")
    native_end = time.monotonic()
    from dataclasses import replace

    from repro.sweep.artifacts import paper_jobs
    from repro.sweep.engine import run_sweep

    cache_root = Path(os.environ["REPRO_CACHE_DIR"])
    template = paper_jobs()
    seeds = SeedStream(args.seed, args.instance)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        from repro.sweep import engine

        tracer.wrap(engine, "execute_job", "job")

    def fresh_pass():
        return [replace(job, seed=seeds.take()) for job in template]

    warm_jobs = fresh_pass()
    warm = run_sweep(warm_jobs, workers=1, store=None)
    compiled_warm = count_programs(cache_root)
    cycles_of = {(r.kernel, r.variant): r.cycles for r in warm.results}
    if tracer is not None:
        tracer.spans.clear()  # the table covers the timed phase only
    runs_before = dict(native.run_stats)
    usage_before = resource.getrusage(resource.RUSAGE_SELF)
    t_ready = time.monotonic()
    deadline = t_ready + args.seconds

    latencies = []
    phase_totals = {}
    jobs = failed = cycles = mismatched = 0
    issued = list(warm_jobs)
    while time.monotonic() < deadline:
        pass_jobs = fresh_pass()
        jobs += len(pass_jobs)
        issued.extend(pass_jobs)
        start = time.perf_counter()
        try:
            if tracer is not None:
                report = tracer.span("run_sweep", run_sweep, pass_jobs,
                                     workers=1, store=None)
            else:
                report = run_sweep(pass_jobs, workers=1, store=None)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            print(f"steady: pass failed: {exc!r}", file=sys.stderr)
            failed += len(pass_jobs)
            continue
        latencies.append(1e3 * (time.perf_counter() - start))
        for result in report.results:
            cycles += result.cycles
            same = result.cycles == cycles_of[(result.kernel,
                                               result.variant)]
            mismatched += not same
            failed += not (result.correct and same)
            for phase, seconds in result.phase_seconds.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
    t_end = time.monotonic()
    usage_after = resource.getrusage(resource.RUSAGE_SELF)
    runs_after = dict(native.run_stats)
    spans = list(tracer.spans) if tracer is not None else []

    errors = paper_errors({(r.kernel, r.variant): r for r in warm.results})
    report = {
        "t_ready": t_ready,
        "t_end": t_end,
        "import_s": import_end - import_start,
        "native_load_s": native_end - import_end,
        "jobs": jobs,
        "failed": failed,
        "cycle_mismatches": mismatched,
        "duplicate_job_hashes": len(issued) - len({job.content_hash()
                                                   for job in issued}),
        "cycles": cycles,
        "cpu_s": (usage_after.ru_utime + usage_after.ru_stime
                  - usage_before.ru_utime - usage_before.ru_stime),
        "peak_rss_mb": usage_after.ru_maxrss / 1024.0,
        "latencies_ms": latencies,
        "programs_compiled_warmup": compiled_warm,
        "programs_compiled_timed": count_programs(cache_root) - compiled_warm,
        "native_runs": runs_after["native"] - runs_before["native"],
        "fallback_runs": runs_after["fallback"] - runs_before["fallback"],
        "phase_totals": phase_totals,
        "digest": digest(r.metrics_hash() for r in warm.results),
        "digest_cycles": sum(r.cycles for r in warm.results),
        "errors": errors,
        "spans": spans,
    }
    write_json(Path(args.report), report)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "cli":
        return cli_main(argv[1:])
    parser = argparse.ArgumentParser(prog="perfbench/sut.py steady")
    parser.add_argument("mode", choices=["steady"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instance", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    return steady_main(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
