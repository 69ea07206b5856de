"""CI drill: the reproduce pipeline, sweep daemon and fabric, end to end.

Three phases, each on fresh temporary cache directories, with every daemon
on an ephemeral port (``--port 0``):

1. **reproduce:** an injected native segfault degrades only its own job,
   and a ``--resume`` after it executes nothing; an injected hang is timed
   out (``--timeout 5``) and degraded; ``examples/quickstart.py`` runs; a
   second machine preset shares no cache entries.
2. **serve:** one local-dispatch ``repro serve``.  The SSE round trip runs
   every job on the native engine; an injected segfault and hang each
   degrade only their own job; the daemon exits within 10 s of SIGINT;
   after a restart, a resubmit is served purely from the cache.
3. **fabric:** one ``repro serve --fabric`` coordinator and two ``repro
   worker`` processes: w1 runs on the coordinator's cache root, as on a
   single box, and w2 on its own.  Metrics move between two scrapes; the
   coordinator writes no store entry that w1 has already written; a worker
   killed mid-lease has both its leases requeued uncharged; the merged
   results are bit-identical to serial runs; the coordinator answers more
   HTTP requests than it accepts connections and maps neither NumPy nor
   the native engine; in the ``repro trace`` export every ``attempt`` span
   has a ``submit`` parent.

Every process the drill starts is ended and its log printed, also when an
assertion fails.  The drill takes no options.

Usage::

    PYTHONPATH=src python benchmarks/drill.py
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Wall-clock ceiling of the whole drill: a wedged process fails it.
DEADLINE_SECONDS = 300

#: Seconds a daemon or worker may take to exit after SIGINT.
SIGINT_EXIT_SECONDS = 10

#: The service phases' jobs, as wire specs.
JOBS = [{"kernel": kernel, "variant": variant, "tile_shape": tile}
        for kernel, variant, tile in (("j3d27pt", "saris", [8, 8, 8]),
                                      ("jacobi_2d", "base", [12, 12]),
                                      ("jacobi_2d", "saris", [12, 12]),
                                      ("j2d5pt", "saris", [12, 12]))]

#: Native-only faults for the local daemon, each on one of the last two
#: jobs.
SERVE_FAULTS = ("mode=segfault:kernel=jacobi_2d:variant=saris:engine=native;"
                "mode=hang:kernel=j2d5pt:variant=saris:engine=native")


def scrape(text: str, name: str) -> float:
    """One unlabelled sample from a Prometheus text exposition."""
    match = re.search(rf"^{name} (\S+)$", text, re.M)
    return float(match.group(1)) if match else 0.0


class Drill:
    """Starts and ends the drill's processes, each logging to a file."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.procs: list = []  # (name, Popen, log path)

    def start(self, name: str, *args: str, cache: str,
              **env: str) -> subprocess.Popen:
        """Start ``python *args`` in its own session, on the result and
        codegen cache ``cache``; its output goes to ``<name>.log``."""
        log = self.root / f"{name}.log"
        with log.open("w") as out:
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.root, stdout=out,
                stderr=subprocess.STDOUT, start_new_session=True,
                env=dict(os.environ, REPRO_CACHE_DIR=str(self.root / cache),
                         **env))
        self.procs.append((name, proc, log))
        return proc

    def run(self, name: str, *args: str, cache: str, **env: str) -> None:
        """Run ``python *args`` to completion; it must exit 0."""
        code = self.start(name, *args, cache=cache, **env).wait()
        assert code == 0, f"{name} exited {code}"

    def reproduce(self, name: str, cache: str, *args: str,
                  **env: str) -> dict:
        """The report of ``repro reproduce --subset table1`` on 2 workers."""
        output = self.root / f"{name}.json"
        self.run(name, "-m", "repro.cli", "reproduce", "--subset", "table1",
                 "--workers", "2", "-q", "--output", str(output), *args,
                 cache=cache, **env)
        return json.loads(output.read_text())

    def serve(self, name: str, cache: str, *args: str, **env: str):
        """Start ``repro serve --port 0``; the process and its URL."""
        proc = self.start(name, "-m", "repro.cli", "serve", "--port", "0",
                          *args, cache=cache, **env)
        log = self.root / f"{name}.log"
        while not (banner := re.search(r"listening on (\S+)",
                                       log.read_text())):
            assert proc.poll() is None, f"{name} exited {proc.returncode}"
            time.sleep(0.1)
        return proc, banner[1]

    def worker(self, name: str, url: str, cache: str = "",
               **env: str) -> subprocess.Popen:
        """Start ``repro worker`` on ``cache`` (default: its own)."""
        return self.start(name, "-m", "repro.cli", "worker", "--url", url,
                          "--id", name, "--poll", "0.3", "--exit-on-idle",
                          "60", cache=cache or f"{name}-cache", **env)

    @staticmethod
    def interrupt(proc: subprocess.Popen) -> None:
        """Send SIGINT; the process must exit in time."""
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(SIGINT_EXIT_SECONDS)
        except subprocess.TimeoutExpired:
            raise AssertionError(f"pid {proc.pid} still alive "
                                 f"{SIGINT_EXIT_SECONDS} s after SIGINT"
                                 ) from None

    def close(self) -> None:
        """Kill every process group still alive, then print every log."""
        for name, proc, log in self.procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            print(f"--- {name} (exit {proc.returncode}) ---")
            print(log.read_text(errors="replace").rstrip(), flush=True)


def reproduce_phase(drill: Drill) -> None:
    crash = drill.reproduce(
        "segfault", "fault-cache", "--on-error", "collect",
        REPRO_FAULT_INJECT="kernel=box3d1r:variant=saris:mode=segfault:"
                           "engine=native")
    sweep = crash["sweep"]
    assert crash["failures"] == [], crash["failures"]
    assert sweep["degraded"] == ["box3d1r/saris"], sweep
    assert sweep["pool_restarts"] >= 1, sweep
    # The degraded job's result is stored too: a resume runs nothing.
    resume = drill.reproduce("resume", "fault-cache", "--resume")
    sweep = resume["sweep"]
    assert resume["failures"] == [], resume["failures"]
    assert (sweep["cache_hits"], sweep["executed"]) == (20, 0), sweep

    hang = drill.reproduce(
        "hang", "hang-cache", "--on-error", "collect", "--timeout", "5",
        REPRO_FAULT_INJECT="kernel=j2d9pt:variant=saris:mode=hang:"
                           "hang_seconds=120:engine=native")
    assert hang["failures"] == [], hang["failures"]
    assert hang["sweep"]["degraded"] == ["j2d9pt/saris"], hang["sweep"]
    assert hang["sweep"]["timeouts"] == 3, hang["sweep"]

    drill.run("quickstart", str(REPO / "examples" / "quickstart.py"),
              cache="quickstart-cache")
    # The warm default-machine cache holds no entry for another preset.
    other = drill.reproduce("snitch-4", "fault-cache", "--machine", "snitch-4")
    assert resume["machine"] is None and other["machine"] == "snitch-4"
    assert resume["sweep"]["jobs"] == other["sweep"]["jobs"] == 20
    assert other["sweep"]["cache_hits"] == 0, other["sweep"]


def serve_phase(drill: Drill) -> None:
    from repro.service.client import ServiceClient

    daemon, url = drill.serve("serve", "serve-cache", "--workers", "2",
                              REPRO_FAULT_INJECT=SERVE_FAULTS,
                              REPRO_SWEEP_TIMEOUT="3")
    client = ServiceClient(url)
    assert client.healthz()["ok"]
    receipt = client.submit({"jobs": JOBS[:2]})
    events = list(client.events(receipt["sweep"]))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "submitted" and kinds[-1] == "sweep_done", kinds
    assert "progress" in kinds, kinds
    assert kinds.index("running") < kinds.index("done"), kinds
    engines = [e["metrics"]["engine"] for e in events if e["event"] == "done"]
    assert engines == ["native", "native"], engines
    assert client.sweep(receipt["sweep"])["counts"]["done"] == 2

    # The crashed and the timed-out job each end on the Python engine.
    receipt = client.submit({"jobs": JOBS[2:]})
    client.wait(receipt["sweep"])
    for member in receipt["jobs"]:
        status = client.job(member["hash"])
        outcome = status["label"], status["state"], status["degraded"]
        assert outcome[1:] == ("done", True), outcome
    assert client.healthz()["ok"]
    client.close()
    drill.interrupt(daemon)

    daemon, url = drill.serve("serve-restart", "serve-cache")
    client = ServiceClient(url)
    receipt = client.submit({"jobs": JOBS})
    assert receipt["cache_hits"] == 4, receipt["cache_hits"]
    stats = client.stats()
    assert stats["queue"]["executed"] == 0, stats["queue"]
    assert stats["store"]["entries"] == 4, stats["store"]
    assert stats["native"]["available"], stats["native"]
    client.close()
    drill.interrupt(daemon)


def fabric_phase(drill: Drill) -> None:
    from repro.result import KernelRunResult
    from repro.service.client import ServiceClient
    from repro.service.spec import job_from_wire
    from repro.sweep.engine import execute_job

    coordinator, url = drill.serve("coordinator", "coordinator-cache",
                                   "--fabric", "--lease-ttl", "2")
    client = ServiceClient(url)
    before = client.metrics()
    assert "# TYPE repro_queue_submitted_total counter" in before
    # Grants are FIFO: w2 (one lane) wedges on j3d27pt and holds
    # jacobi_2d/base as its waiting grant.
    sweep_id = client.submit({"jobs": JOBS})["sweep"]
    w2 = drill.worker("w2", url, REPRO_FAULT_INJECT="mode=hang:kernel=j3d27pt:"
                                                    "hang_seconds=600")
    while not any(w["id"] == "w2" and w["leases"] == 2
                  for w in client.fabric()["workers"]["detail"]):
        assert w2.poll() is None, f"w2 exited {w2.returncode}"
        time.sleep(0.2)
    # w1 shares the coordinator's cache root, as one box started in one
    # directory does.
    w1 = drill.worker("w1", url, cache="coordinator-cache")
    time.sleep(1.0)
    w2.kill()
    assert w2.wait() == -signal.SIGKILL, w2.returncode
    assert client.wait(sweep_id)["counts"]["done"] == len(JOBS)
    drill.interrupt(w1)

    # Both of w2's leases expire together and requeue.  Neither lease
    # death is charged to its job, and the waiting grant never ran on w2:
    # every job executed once, on its first attempt.
    stats = client.stats()
    fabric, queue = stats["fabric"], stats["queue"]
    assert fabric["expired_leases"] >= 2 and fabric["requeues"] >= 2, fabric
    requeued = [event for event in client.events(sweep_id)
                if event["event"] == "requeued"]
    assert len(requeued) >= 2, requeued
    assert all(event["attempt"] == 1 for event in requeued), requeued
    assert queue["executed"] == len(JOBS), queue
    assert queue["latency"]["exec"]["count"] == len(JOBS), queue["latency"]
    for wire in JOBS:
        spec = job_from_wire(dict(wire))
        served = client.job(spec.content_hash())
        assert served["attempts"] == 1, (served["label"], served["attempts"])
        remote = KernelRunResult.from_json_dict(served["result"])
        assert remote.metrics_hash() == execute_job(spec).metrics_hash(), wire

    after = client.metrics()
    for name in ("repro_queue_submitted_total", "repro_queue_executed_total",
                 "repro_fabric_leases_granted_total",
                 "repro_fabric_completed_total"):
        moved = scrape(after, name) - scrape(before, name)
        assert moved >= len(JOBS), (name, moved)
    # w1 ran every job and wrote each entry; the coordinator's save of
    # each upload found the same bytes there and wrote nothing.
    unchanged = (scrape(after, "repro_store_unchanged_total")
                 - scrape(before, "repro_store_unchanged_total"))
    assert unchanged == len(JOBS), unchanged

    # One trace across the coordinator and the worker.
    trace = drill.root / "trace.json"
    drill.run("trace", "-m", "repro.cli", "trace", sweep_id, "--url", url,
              "-o", str(trace), cache="coordinator-cache")
    slices = [event for event in json.loads(trace.read_text())["traceEvents"]
              if event.get("ph") == "X"]
    names = {event["name"] for event in slices}
    assert {"sweep", "submit", "attempt"} <= names, names
    traces = {event["args"]["trace"] for event in slices}
    assert len(traces) == 1, traces
    submits = {e["args"]["span"] for e in slices if e["name"] == "submit"}
    parents = [e["args"].get("parent") for e in slices
               if e["name"] == "attempt"]
    assert set(parents) <= submits, (parents, submits)

    # Kept-alive connections, and a coordinator that never loaded NumPy
    # or the native engine, also after answering /v1/stats.
    metrics = client.stats()["metrics"]
    requests, connections = (metrics[f"repro_http_{kind}_total"]
                             for kind in ("requests", "connections"))
    assert requests > connections, (requests, connections)
    maps = Path(f"/proc/{coordinator.pid}/maps").read_text()
    assert "numpy" not in maps, "NumPy is mapped into the coordinator"
    assert not re.search(r"/engine-[^/\s]*\.so$", maps, re.M), \
        "the native engine is mapped into the coordinator"
    client.close()
    drill.interrupt(coordinator)


def _deadline(signum, frame):
    raise TimeoutError(f"drill still running after {DEADLINE_SECONDS} s")


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    # A shell's background job starts with SIGINT ignored, which its
    # children inherit; a handler here is reset to the default at exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGALRM, _deadline)
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory(prefix="repro-drill-") as tmp:
        drill = Drill(Path(tmp))
        # One engine build serves every phase and this process.
        os.environ.update(PYTHONPATH=str(REPO / "src"),
                          REPRO_NATIVE_DIR=str(drill.root / "native"),
                          REPRO_CACHE_DIR=str(drill.root / "drill-cache"))
        signal.alarm(DEADLINE_SECONDS)
        try:
            for phase in (reproduce_phase, serve_phase, fabric_phase):
                start = time.monotonic()
                phase(drill)
                print(f"drill: {phase.__name__} passed in "
                      f"{time.monotonic() - start:.1f} s", flush=True)
        finally:
            signal.alarm(0)
            drill.close()
    print("drill: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
