"""``repro serve`` and ``repro worker`` run jobs on the supervised pool.

A job that kills its process or hangs costs one pool worker, never the
daemon or the fabric worker that holds it: the crash or the overrun
``REPRO_SWEEP_TIMEOUT`` is charged to that job alone, which ends
``degraded`` on the forced Python engine while the process keeps serving.
A Ctrl-C ends the pool's workers instead of waiting for a hung job.  The
daemons here are real subprocesses; the fabric coordinator runs
in-process.
"""

import os
import re
import select
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

from repro import obs
from repro.service import FabricWorker, ServiceClient
from repro.sweep import faults
from repro.sweep.supervisor import (RETRIES_ENV_VAR, TIMEOUT_ENV_VAR,
                                    RetryPolicy)
from tests.test_fabric import running_fabric, wait_until

REPO_ROOT = Path(__file__).resolve().parents[1]

SARIS = {"kernel": "jacobi_2d", "variant": "saris", "tile_shape": [12, 12]}
OTHER = {"kernel": "j2d5pt", "variant": "saris", "tile_shape": [12, 12]}

#: An injected native-engine crash (``os._exit(139)`` in a pool worker).
SEGFAULT = "mode=segfault:kernel=jacobi_2d:variant=saris:engine=native"

#: An injected native-engine hang of the same job.
HANG = "mode=hang:kernel=jacobi_2d:variant=saris:engine=native"

#: ``repro serve`` closing kept-alive connections after IDLE_S idle seconds.
IDLE_S = 5.0
SHORT_IDLE = ("import sys; from repro.service import server; "
              f"server.KEEPALIVE_IDLE_SECONDS = {IDLE_S}; "
              "from repro.cli import main; sys.exit(main())")


def cli_env(**extra):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), **extra)
    for name in ("REPRO_SERVICE_URL", faults.FAULT_ENV_VAR,
                 TIMEOUT_ENV_VAR, RETRIES_ENV_VAR):
        if name not in extra:
            env.pop(name, None)
    return env


def spawn(args, env, code=None):
    """Run the CLI (``code``: a ``python -c`` program standing in for it)."""
    entry = ["-c", code] if code else ["-m", "repro.cli"]
    return subprocess.Popen([sys.executable, *entry, *args],
                            cwd=str(REPO_ROOT), env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(30)
    output = proc.stdout.read().decode("utf-8", "replace")
    proc.stdout.close()
    return output


def serve(tmp_path, code=None, **env):
    """Start ``repro serve`` on an ephemeral port; return (proc, client)."""
    proc = spawn(["serve", "--port", "0", "--workers", "2",
                  "--cache-dir", str(tmp_path / "store")], cli_env(**env),
                 code)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if not select.select([proc.stdout], [], [], 1.0)[0]:
            continue
        line = proc.stdout.readline().decode("utf-8", "replace")
        match = re.search(r"listening on (\S+)", line)
        if match:
            return proc, ServiceClient(match.group(1))
        if not line:
            break
    raise AssertionError(f"repro serve did not start:\n{stop(proc)}")


def exit_seconds_after_sigint(proc):
    start = time.monotonic()
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(30)
    except subprocess.TimeoutExpired:
        pass
    return time.monotonic() - start


def stream_to_eof(client, sweep_id, timeout=60.0):
    """Read a sweep's raw event stream the way ``curl -N`` does: until the
    server closes the connection."""
    connection = HTTPConnection(client.host, client.port, timeout=timeout)
    try:
        connection.request("GET", f"/v1/sweeps/{sweep_id}/events")
        return connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()


def job_states(client, receipt):
    return {member["label"]: client.job(member["hash"])
            for member in receipt["jobs"]}


class TestServe:
    def test_segfault_degrades_its_job_and_the_daemon_keeps_serving(
            self, tmp_path):
        proc, client = serve(tmp_path, SHORT_IDLE,
                             **{faults.FAULT_ENV_VAR: SEGFAULT})
        idle = HTTPConnection(client.host, client.port, timeout=IDLE_S + 10)
        try:
            idle.request("GET", "/v1/healthz")
            assert idle.getresponse().read()
            idle_since = time.monotonic()  # kept alive, idle from here
            receipt = client.submit({"jobs": [SARIS, OTHER]})
            # The replacement workers are forked while this stream and
            # the idle connection are open; the stream must still end
            # when the sweep does...
            assert "event: sweep_done" in stream_to_eof(client,
                                                        receipt["sweep"])
            assert time.monotonic() - idle_since < IDLE_S
            # ...and the idle connection when the daemon closes it,
            # although a pool worker holds a copy of its socket.
            assert idle.sock.recv(1) == b""
            final = client.sweep(receipt["sweep"])
            assert final["counts"]["done"] == 2, final["counts"]
            jobs = job_states(client, receipt)
            assert jobs["jacobi_2d/saris"]["degraded"] is True
            assert jobs["jacobi_2d/saris"]["metrics"]["correct"] is True
            assert jobs["j2d5pt/saris"]["degraded"] is False
            assert client.healthz()["ok"] is True
            assert proc.poll() is None
        finally:
            idle.close()
            client.close()
            stop(proc)

    def test_timeout_degrades_the_hung_job(self, tmp_path):
        proc, client = serve(tmp_path, **{faults.FAULT_ENV_VAR: HANG,
                                          TIMEOUT_ENV_VAR: "3",
                                          RETRIES_ENV_VAR: "1"})
        try:
            receipt = client.submit({"jobs": [SARIS, OTHER]})
            final = client.wait(receipt["sweep"], timeout=120)
            assert final["counts"]["done"] == 2, final["counts"]
            assert job_states(client, receipt)[
                "jacobi_2d/saris"]["degraded"] is True
            assert "repro_supervisor_timeouts_total 1" in \
                client.metrics().splitlines()
            # Still serving: a later sweep runs on the replaced worker.
            later = client.submit({"jobs": [dict(OTHER, seed=3)]})
            assert client.wait(later["sweep"], timeout=60)["state"] == "done"
        finally:
            client.close()
            stop(proc)

    def test_sigint_does_not_wait_for_a_hung_job(self, tmp_path):
        proc, client = serve(tmp_path, **{
            faults.FAULT_ENV_VAR: HANG + ":hang_seconds=60"})
        try:
            receipt = client.submit({"jobs": [SARIS]})
            wait_until(lambda: client.sweep(receipt["sweep"])["counts"][
                "running"] == 1, message="the hung job running")
            time.sleep(0.5)  # inside the pool worker's hang
            assert exit_seconds_after_sigint(proc) < 5.0
        finally:
            client.close()
            stop(proc)


class TestWorker:
    def test_segfault_is_uploaded_as_the_jobs_own_outcome(self, tmp_path):
        with running_fabric(ttl=2.0) as (service, client):
            receipt = client.submit({"jobs": [SARIS, OTHER]})
            proc = spawn(["worker", "--url", service.url, "--id", "w1",
                          "--no-cache", "--poll", "0.1",
                          "--exit-on-idle", "10"],
                         cli_env(**{faults.FAULT_ENV_VAR: SEGFAULT}))
            try:
                final = client.wait(receipt["sweep"], timeout=120)
                assert proc.wait(60) == 0
            finally:
                output = stop(proc)
            assert final["counts"]["done"] == 2, output
            jobs = job_states(client, receipt)
            assert jobs["jacobi_2d/saris"]["degraded"] is True
            assert jobs["j2d5pt/saris"]["degraded"] is False
            stats = client.fabric()
            assert stats["expired_leases"] == 0 and stats["requeues"] == 0

    def test_timeout_degrades_the_hung_job_and_frees_the_waiting_one(self):
        before = obs.enabled()
        obs.set_enabled(True)
        timeouts = obs.counter("repro_supervisor_timeouts_total")
        counted = timeouts.value
        try:
            with running_fabric(ttl=2.0) as (service, client):
                # One pool worker: OTHER waits behind the hung job until
                # the timeout replaces the worker.
                receipt = client.submit({"jobs": [SARIS, OTHER]})
                worker = FabricWorker(
                    service.url, worker_id="w1", poll_seconds=0.1,
                    retry=RetryPolicy(max_attempts=1, timeout_seconds=3.0))
                with faults.injected(faults.FaultSpec.parse(HANG)):
                    worker.run(exit_on_idle=10)
                final = client.wait(receipt["sweep"], timeout=30)
                assert final["counts"]["done"] == 2
                jobs = job_states(client, receipt)
                assert jobs["jacobi_2d/saris"]["degraded"] is True
                assert jobs["j2d5pt/saris"]["degraded"] is False
                assert client.fabric()["expired_leases"] == 0
            assert timeouts.value == counted + 1
        finally:
            obs.set_enabled(before)

    def test_sigint_does_not_wait_for_a_hung_job(self):
        with running_fabric(ttl=1.0) as (service, client):
            receipt = client.submit({"jobs": [SARIS]})
            proc = spawn(["worker", "--url", service.url, "--id", "w1",
                          "--no-cache", "--poll", "0.1"],
                         cli_env(**{faults.FAULT_ENV_VAR:
                                    HANG + ":hang_seconds=60"}))
            try:
                wait_until(lambda: client.fabric()["leases_in_flight"] == 1,
                           timeout=60, message="the hung job leased")
                time.sleep(1.0)  # inside the pool worker's hang
                assert exit_seconds_after_sigint(proc) < 5.0
                assert proc.returncode == 130
            finally:
                stop(proc)
            # The worker's lease lapses and the job requeues.
            wait_until(lambda: client.fabric()["requeues"] == 1,
                       message="the lapsed lease requeued")
            assert client.sweep(receipt["sweep"])["counts"]["queued"] == 1
