"""Benchmark of the SARIS reproduction, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1_steady --seed 0 --seconds 20 \\
        --trace 0

Workloads (see ``workloads.py`` for how each is driven and why):

``table1_steady``   the simulation engine, warm, in one process;
``reproduce_cold``  a researcher's first ``repro reproduce``, in fresh
                    processes with empty caches;
``service_fabric``  the sweep daemon in fabric mode with one worker, under
                    a closed loop of two clients.

``--trace 0`` runs the program with its defaults and reports the end-to-end
metrics; ``--trace 1`` wraps each layer's public entry points in spans and
reports the per-layer metrics, a table of layer self times, the tracing
overhead against an untraced control, and writes the spans as Chrome
trace-event JSON under ``.perfbench/``.  Everything the run writes lives
under ``.perfbench/`` in the current directory; its scratch part is removed
at the end.  The native engine is built once per invocation and shared by
every process of the run; each set-up instance and each cold request gets
fresh result-store and codegen-cache roots.

Metric definitions (time is host time unless it says simulated):

``setup_s``             median time from launching a set-up instance's
                        processes to its first timed request;
``jobs_per_s``          job results delivered per second of the timed phase;
``sim_cycles_per_cpu_s`` simulated cycles of executed jobs per CPU second of
                        the system under test (every measured process, pool
                        workers included, never the load generator);
``latency_p50_ms``      median latency of a pass over the 20 Table-1 jobs
                        (``table1_steady``), a reproduce process
                        (``reproduce_cold``) or a request
                        (``service_fabric``);
``latency_tail_ms``     the highest percentile with ten samples beyond it,
                        or the maximum when that percentile is not above
                        the median; percentile and sample count are printed;
``peak_rss_mb``         the largest per-process peak resident set (VmHWM) of
                        the system under test, median over instances.
                        Processes are combined by max, not sum: forked pool
                        workers share most pages with their parent;
``ok_ratio``            correct results delivered / attempted (``1 -
                        failed_ratio``; the failures are the JSON's
                        ``failed``);
``*_err``               the reproduction's distance to the paper's numbers,
                        through the program's own ``build_fig*`` functions.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402 - needs HERE on sys.path

BENCH_DIR = ".perfbench"


class Context:
    """One benchmark invocation: paths, environment, child processes."""

    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.out_dir = root / BENCH_DIR
        self.work = self.out_dir / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.procs: list = []
        src = str(root / "src")
        # The program runs with its defaults: no REPRO_* setting of the
        # caller leaks in, only the per-run cache locations.
        self.base_env = {k: v for k, v in os.environ.items()
                         if not k.startswith("REPRO_") and k != "PYTHONPATH"}
        self.base_env["PYTHONPATH"] = src
        self.base_env["REPRO_NATIVE_DIR"] = str(self.work / "native")
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        os.environ["REPRO_NATIVE_DIR"] = self.base_env["REPRO_NATIVE_DIR"]
        os.environ["REPRO_CACHE_DIR"] = str(self.fresh_dir("harness"))
        sys.path.insert(0, src)

    def build_native(self) -> float:
        """Build the native engine for this invocation; returns seconds."""
        start = time.perf_counter()
        from repro.snitch import native

        if not native.available():
            raise RuntimeError(f"native engine unavailable: "
                               f"{native.disabled_reason()}")
        return time.perf_counter() - start

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        if path.exists():
            raise RuntimeError(f"{path} is not fresh")
        return path

    def env(self, cache: Path) -> dict:
        env = dict(self.base_env)
        env["REPRO_CACHE_DIR"] = str(cache)
        return env

    def popen(self, cmd, env, **kwargs) -> subprocess.Popen:
        kwargs.setdefault("stdout", subprocess.DEVNULL)
        kwargs.setdefault("stderr", None)
        proc = subprocess.Popen(cmd, env=env, cwd=self.root, **kwargs)
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, grace: float = 10.0) -> bool:
        """Interrupt a long-lived process (its clean exit path writes its
        spans); kill it if it has not ended after ``grace`` seconds.
        Returns whether it ended on its own."""
        if proc.poll() is not None:
            return True
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace)
            return True
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return False

    def run(self, cmd, env, timeout: float, capture: bool = False):
        """Run to completion; returns stdout text when ``capture``."""
        proc = self.popen(cmd, env, stdout=subprocess.PIPE if capture
                          else subprocess.DEVNULL)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{cmd} did not finish") from None
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd} exited with {proc.returncode}")
        return stdout.decode() if capture else None

    def run_rusage(self, cmd, env, timeout: float):
        """Run to completion (killed after ``timeout`` seconds); returns
        ``(exit code, rusage)`` of the process and every descendant it
        waited for (its pool workers)."""
        proc = self.popen(cmd, env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def close(self) -> None:
        for proc in self.procs:
            self.stop(proc)
        shutil.rmtree(self.work, ignore_errors=True)


def _print_outcome(ctx: Context, workload: str, outcome, metrics: dict,
                   native_build_s: float) -> None:
    print(f"perfbench {workload} seed={ctx.seed} seconds={ctx.seconds:g} "
          f"trace={int(ctx.trace)} cpus={os.cpu_count()}")
    print(f"native engine built in {native_build_s:.3f} s")
    for line in outcome.info:
        print(line)
    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail and not ok else ""))
    failed_ratio = (outcome.failed / outcome.attempted
                    if outcome.attempted else 1.0)
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, "
          f"failed_ratio {failed_ratio:.6f}")
    for name, value in metrics.items():
        print(f"{name:<28} {value['value']:>16.6g} {value['unit']}")
    if ctx.trace:
        from common import layer_table

        print(f"layer self times over {outcome.layer_wall:.3f} s of timed "
              f"wall time (sum of request latencies where requests overlap)")
        for line in layer_table(outcome.layer_seconds, outcome.layer_wall):
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a "
              "checkout of the program", file=sys.stderr)
        return 2
    # BENCHMARK.json names every reported metric and its unit.
    spec = json.loads((root / "BENCHMARK.json").read_text())

    ctx = Context(root, args)
    try:
        native_build_s = ctx.build_native()
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        ctx.close()

    if ctx.trace:
        from repro.obs import chrome_trace

        from common import write_json

        trace_path = ctx.out_dir / f"trace-{args.workload}-{args.seed}.json"
        write_json(trace_path, chrome_trace(outcome.spans))
        # A layer the workload does not exercise reads 0.
        metrics = {m["name"]: {"value": float(outcome.per_layer.get(m["name"],
                                                                0.0)),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = dict(outcome.end_to_end, ok_ratio=(
            1.0 - outcome.failed / outcome.attempted
            if outcome.attempted else 0.0))
        metrics = {m["name"]: {"value": float(values[m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    _print_outcome(ctx, args.workload, outcome, metrics, native_build_s)
    if ctx.trace:
        print(f"trace written to {trace_path.relative_to(root)}")
    correct = outcome.failed == 0 and all(ok for _, ok, _ in outcome.checks)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
