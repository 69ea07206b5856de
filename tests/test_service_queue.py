"""Queue-core semantics: dedupe, coalescing, cancel, event ordering.

Most tests drive :class:`repro.service.queue.JobQueue` with a thread-backed
fake pool (no processes, no simulations) so they pin down *queue*
behaviour precisely; a few run real small-tile simulations on the default
supervised pool to prove it produces genuine results and persists them.

There is no pytest-asyncio in the image, so every test owns its loop via
``asyncio.run``.
"""

import asyncio
import threading

import pytest

from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobQueue,
    QueueError,
)
from repro.sweep import ResultStore, SweepJob, execute_job
from repro.sweep.faults import FaultSpec, injected
from repro.sweep.supervisor import RetryPolicy, SingleJobOutcome
from tests.conftest import ThreadPool, small_tile


def job_for(kernel="jacobi_2d", variant="base", **kwargs):
    return SweepJob.make(kernel, variant, tile_shape=small_tile(kernel),
                         **kwargs)


def fake_result(job):
    """A cheap but real KernelRunResult for fake-pool tests."""
    return execute_job(job_for())


async def drain(queue, sweep_id, from_index=0):
    """Collect the sweep's whole event stream (ends at sweep_done)."""
    return [event async for _i, event in queue.subscribe(sweep_id,
                                                         from_index)]


def kinds(events):
    return [event["event"] for event in events]


class TestEventOrdering:
    def test_submitted_running_progress_done_sweep_done(self):
        async def main():
            queue = await JobQueue(workers=1).start()
            try:
                sweep = await queue.submit([job_for()])
                return await drain(queue, sweep.id)
            finally:
                await queue.close()

        events = asyncio.run(main())
        seen = kinds(events)
        assert seen[0] == "submitted"
        assert seen[1] == "running"
        assert "progress" in seen
        assert seen[-2] == "done"
        assert seen[-1] == "sweep_done"
        # Ordering constraints, not just membership.
        assert seen.index("running") < seen.index("progress") < \
            seen.index("done")
        done = events[seen.index("done")]
        assert done["metrics"]["correct"] is True
        assert done["source"] == "executed"
        # Events carry a global monotonic sequence number.
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)

    def test_ladder_progress_precedes_the_terminal_event(self):
        # The pool's ladder steps (an in-band retry, and a crash retried
        # then degraded to the Python engine) reach the stream as progress
        # events before the job's terminal event.
        flaky = job_for("j2d5pt")
        crashy = job_for("jacobi_2d", "saris")

        async def main():
            queue = await JobQueue(workers=1, retry=RetryPolicy(
                max_attempts=2, backoff_seconds=0.001)).start()
            try:
                sweep = await queue.submit([flaky, crashy])
                return await drain(queue, sweep.id)
            finally:
                await queue.close()

        with injected(FaultSpec(mode="flaky", kernel="j2d5pt", n=1),
                      FaultSpec(mode="segfault", kernel="jacobi_2d",
                                engine="native")):
            events = asyncio.run(main())

        def steps(job):
            mine = [e for e in events if e.get("job") == job.content_hash()]
            done = kinds(mine).index("done")
            ladder = [(e["phase"], e["error"]) for e in mine[:done]
                      if e["event"] == "progress" and "error" in e]
            return ladder, mine[done]

        ladder, done = steps(flaky)
        assert ladder == [("retry", "InjectedFault")]
        assert done["attempts"] == 2 and done["degraded"] is False
        ladder, done = steps(crashy)
        assert ladder == [("retry", "WorkerCrash"),
                          ("degraded", "WorkerCrash")]
        assert done["attempts"] == 3 and done["degraded"] is True

    def test_subscribe_from_index_skips_replayed_history(self):
        async def main():
            queue = await JobQueue(workers=1).start()
            try:
                sweep = await queue.submit([job_for()])
                full = await drain(queue, sweep.id)
                resumed = await drain(queue, sweep.id, from_index=2)
                return full, resumed
            finally:
                await queue.close()

        full, resumed = asyncio.run(main())
        assert resumed == full[2:]

    def test_replay_past_end_of_finished_sweep_ends_immediately(self):
        """A resume cursor beyond a finished sweep's log must return, not
        await events that can never come (a reconnecting client may ask
        from one past the final sweep_done index)."""
        async def main():
            queue = await JobQueue(workers=1).start()
            try:
                sweep = await queue.submit([job_for()])
                full = await drain(queue, sweep.id)
                past_end = await asyncio.wait_for(
                    drain(queue, sweep.id, from_index=len(full) + 50),
                    timeout=5)
                at_end = await asyncio.wait_for(
                    drain(queue, sweep.id, from_index=len(full)), timeout=5)
                return past_end, at_end
            finally:
                await queue.close()

        past_end, at_end = asyncio.run(main())
        assert past_end == [] and at_end == []


class TestDedupe:
    def test_duplicate_hashes_within_one_submission_collapse(self):
        async def main():
            queue = await JobQueue(workers=1).start()
            try:
                sweep = await queue.submit([job_for(), job_for()])
                await drain(queue, sweep.id)
                return queue.sweep_status(sweep.id), queue.stats()
            finally:
                await queue.close()

        status, stats = asyncio.run(main())
        assert len(status["jobs"]) == 1
        assert stats["executed"] == 1

    def test_memo_hit_after_done_in_same_queue(self):
        async def main():
            queue = await JobQueue(workers=1).start()
            try:
                first = await queue.submit([job_for()])
                await drain(queue, first.id)
                second = await queue.submit([job_for()])
                events = await drain(queue, second.id)
                return (queue.sweep_status(second.id), events,
                        queue.stats())
            finally:
                await queue.close()

        status, events, stats = asyncio.run(main())
        assert status["cache_hits"] == 1 and status["state"] == DONE
        assert kinds(events) == ["submitted", "done", "sweep_done"]
        assert events[0]["source"] == "memo"
        assert stats["executed"] == 1  # the memo hit simulated nothing

    def test_store_hit_on_fresh_queue_zero_simulations(self, tmp_path):
        """Server restart with a warm store: pure cache hit, no execution."""
        job = job_for()

        async def cold():
            queue = await JobQueue(store=ResultStore(tmp_path),
                                   workers=1).start()
            try:
                sweep = await queue.submit([job])
                await drain(queue, sweep.id)
                return queue.stats()
            finally:
                await queue.close()

        async def warm():
            boom = pytest.fail  # a simulation here would be a regression

            def runner(_job):
                boom("warm restart must not simulate")

            queue = await JobQueue(store=ResultStore(tmp_path), workers=1,
                                   pool=ThreadPool(runner)).start()
            try:
                sweep = await queue.submit([job])
                events = await drain(queue, sweep.id)
                return queue.sweep_status(sweep.id), events, queue.stats()
            finally:
                await queue.close()

        cold_stats = asyncio.run(cold())
        assert cold_stats["executed"] == 1
        status, events, stats = asyncio.run(warm())
        assert status["state"] == DONE and status["cache_hits"] == 1
        assert stats["executed"] == 0 and stats["cache_hits"] == 1
        assert kinds(events) == ["submitted", "done", "sweep_done"]
        assert events[1]["source"] == "store"


class TestCoalescing:
    def test_inflight_submissions_share_one_execution(self):
        release = threading.Event()
        runs = []

        def runner(job):
            runs.append(job.content_hash())
            release.wait(timeout=30)
            return fake_result(job)

        async def main():
            queue = await JobQueue(workers=1, pool=ThreadPool(runner)).start()
            try:
                first = await queue.submit([job_for()])
                # Let the worker pick the job up and block inside runner.
                while not runs:
                    await asyncio.sleep(0.01)
                second = await queue.submit([job_for()])
                assert queue.sweep_status(second.id)["coalesced"] == 1
                release.set()
                events_a = await drain(queue, first.id)
                events_b = await drain(queue, second.id)
                return events_a, events_b, queue.stats()
            finally:
                release.set()
                await queue.close()

        events_a, events_b, stats = asyncio.run(main())
        assert len(runs) == 1  # one execution served both sweeps
        assert stats["executed"] == 1 and stats["coalesced"] == 1
        assert kinds(events_a)[-2:] == ["done", "sweep_done"]
        # The coalesced subscriber still sees a full lifecycle.
        assert kinds(events_b)[0] == "submitted"
        assert "running" in kinds(events_b)
        assert kinds(events_b)[-2:] == ["done", "sweep_done"]
        assert events_b[0]["source"] == "coalesced"


class TestCancel:
    def test_cancel_queued_job_and_flag_running_one(self):
        release = threading.Event()
        started = threading.Event()

        def runner(job):
            started.set()
            release.wait(timeout=30)
            return fake_result(job)

        async def main():
            queue = await JobQueue(workers=1, pool=ThreadPool(runner)).start()
            try:
                running = job_for("jacobi_2d")
                queued = job_for("j2d5pt")
                sweep = await queue.submit([running, queued])
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30)
                receipt = queue.cancel(sweep.id)
                release.set()
                events = await drain(queue, sweep.id)
                return (receipt, events, queue.sweep_status(sweep.id),
                        queue.job_status(running.content_hash()),
                        queue.job_status(queued.content_hash()))
            finally:
                release.set()
                await queue.close()

        receipt, events, status, running_job, queued_job = asyncio.run(main())
        assert receipt["cancelled_jobs"] == [queued_job["hash"]]
        assert receipt["still_running"] == [running_job["hash"]]
        assert queued_job["state"] == CANCELLED
        assert running_job["cancel_requested"] is True
        assert status["state"] == CANCELLED
        seen = kinds(events)
        assert "sweep_cancelled" in seen
        assert seen[-1] == "sweep_done"
        assert events[-1]["state"] == CANCELLED

    def test_cancel_is_idempotent_and_unknown_raises(self):
        async def main():
            queue = await JobQueue(workers=1).start()
            try:
                sweep = await queue.submit([job_for()])
                await drain(queue, sweep.id)
                first = queue.cancel(sweep.id)
                second = queue.cancel(sweep.id)
                with pytest.raises(KeyError):
                    queue.cancel("s9999-deadbeef")
                return first, second
            finally:
                await queue.close()

        first, second = asyncio.run(main())
        # Cancelling a finished sweep cancels nothing (jobs are terminal).
        assert first["cancelled_jobs"] == [] == second["cancelled_jobs"]

    def test_cancel_racing_coalesced_inflight_job(self):
        """Cancel of sweep A while its job is RUNNING *and* coalesced into
        sweep B: the in-flight execution survives, B gets the result, and
        nothing is double-counted."""
        release = threading.Event()
        started = threading.Event()

        def runner(job):
            started.set()
            release.wait(timeout=30)
            return fake_result(job)

        async def main():
            queue = await JobQueue(workers=1, pool=ThreadPool(runner)).start()
            try:
                job = job_for()
                first = await queue.submit([job])
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30)
                second = await queue.submit([job])  # coalesces onto RUNNING
                receipt = queue.cancel(first.id)    # races the execution
                release.set()
                events_b = await drain(queue, second.id)
                events_a = await drain(queue, first.id)
                return (receipt, events_a, events_b,
                        queue.sweep_status(second.id),
                        queue.job_status(job.content_hash()), queue.stats())
            finally:
                release.set()
                await queue.close()

        receipt, events_a, events_b, status_b, job_status, stats = \
            asyncio.run(main())
        # The cancel could not abort the in-flight job, only flag it.
        assert receipt["cancelled_jobs"] == []
        assert receipt["still_running"] == [job_status["hash"]]
        # The shared execution completed for sweep B's benefit.
        assert job_status["state"] == DONE
        assert status_b["state"] == DONE
        assert kinds(events_b)[-2:] == ["done", "sweep_done"]
        # Sweep A ended as cancelled, with a full terminating stream.
        assert "sweep_cancelled" in kinds(events_a)
        assert kinds(events_a)[-1] == "sweep_done"
        assert events_a[-1]["state"] == CANCELLED
        assert stats["executed"] == 1 and stats["coalesced"] == 1
        assert stats["cancelled"] == 0  # no job was actually cancelled

    def test_shared_queued_job_survives_other_tenants_cancel(self):
        release = threading.Event()
        started = threading.Event()

        def runner(job):
            started.set()
            release.wait(timeout=30)
            return fake_result(job)

        async def main():
            queue = await JobQueue(workers=1, pool=ThreadPool(runner)).start()
            try:
                blocker = job_for("jacobi_2d")
                shared = job_for("j2d5pt")
                victim = await queue.submit([blocker, shared])
                survivor = await queue.submit([shared])
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30)
                queue.cancel(victim.id)
                # The shared job must still be queued: the survivor sweep
                # legitimately owns it.
                state = queue.job_status(shared.content_hash())["state"]
                release.set()
                events = await drain(queue, survivor.id)
                return state, events, queue.sweep_status(survivor.id)
            finally:
                release.set()
                await queue.close()

        state, events, status = asyncio.run(main())
        assert state == QUEUED
        assert status["state"] == DONE
        assert kinds(events)[-2:] == ["done", "sweep_done"]


class TestFailures:
    def test_failed_job_fans_structured_error(self):
        def runner(job):
            raise ValueError("synthetic runner explosion")

        async def main():
            queue = await JobQueue(workers=1, pool=ThreadPool(runner)).start()
            try:
                sweep = await queue.submit([job_for()])
                events = await drain(queue, sweep.id)
                return events, queue.sweep_status(sweep.id), queue.stats()
            finally:
                await queue.close()

        events, status, stats = asyncio.run(main())
        assert status["state"] == FAILED
        assert status["counts"][FAILED] == 1
        assert stats["failed"] == 1
        failed = events[kinds(events).index("failed")]
        assert failed["error"]["error_type"] == "ValueError"
        assert "synthetic runner explosion" in failed["error"]["message"]
        assert kinds(events)[-1] == "sweep_done"
        assert events[-1]["state"] == FAILED

    def test_failed_jobs_are_not_memoized(self):
        calls = []

        def runner(job):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("first time fails")
            return fake_result(job)

        async def main():
            queue = await JobQueue(workers=1, pool=ThreadPool(runner)).start()
            try:
                first = await queue.submit([job_for()])
                await drain(queue, first.id)
                second = await queue.submit([job_for()])
                await drain(queue, second.id)
                return queue.sweep_status(second.id)
            finally:
                await queue.close()

        status = asyncio.run(main())
        assert len(calls) == 2  # resubmit re-executed, no poisoned cache
        assert status["state"] == DONE and status["cache_hits"] == 0


class TestLifecycleAndStats:
    def test_submit_before_start_or_after_close_raises(self):
        async def main():
            queue = JobQueue(workers=1)
            with pytest.raises(QueueError):
                await queue.submit([job_for()])
            await queue.start()
            with pytest.raises(QueueError):
                await queue.start()  # double start
            with pytest.raises(QueueError):
                await queue.submit([])  # empty sweep
            await queue.close()
            with pytest.raises(QueueError):
                await queue.submit([job_for()])

        asyncio.run(main())

    def test_stats_counts_states_and_progress_report_from_thread(self):
        def runner(job):
            return SingleJobOutcome(result=fake_result(job), progress=[
                {"phase": "warmup", "step": 1}])

        async def main():
            queue = await JobQueue(workers=2,
                                   pool=ThreadPool(runner, 2)).start()
            try:
                sweep = await queue.submit([job_for("jacobi_2d"),
                                            job_for("j2d5pt")])
                events = await drain(queue, sweep.id)
                return events, queue.stats()
            finally:
                await queue.close()

        events, stats = asyncio.run(main())
        progress = [event for event in events
                    if event["event"] == "progress"
                    and event.get("phase") == "warmup"]
        assert len(progress) == 2 and progress[0]["step"] == 1
        assert stats["jobs"] == 2 and stats["sweeps"] == 1
        assert stats["states"][DONE] == 2
        assert stats["states"][RUNNING] == 0 and stats["pending"] == 0

    def test_default_runner_persists_to_store(self, tmp_path):
        async def main():
            store = ResultStore(tmp_path)
            queue = await JobQueue(store=store, workers=1).start()
            try:
                job = job_for()
                sweep = await queue.submit([job])
                await drain(queue, sweep.id)
                return store.load(job)
            finally:
                await queue.close()

        loaded = asyncio.run(main())
        assert loaded is not None and loaded.correct


class TestFabricDispatch:
    def test_invalid_dispatch_rejected(self):
        with pytest.raises(QueueError):
            JobQueue(dispatch="carrier-pigeon")

    def test_fabric_dispatch_spawns_no_local_lanes(self):
        """In fabric mode the queue is a pure state machine: submitted jobs
        stay queued until a coordinator leases them out."""
        async def main():
            queue = await JobQueue(dispatch="fabric").start()
            try:
                sweep = await queue.submit([job_for()])
                await asyncio.sleep(0.2)
                return (queue.sweep_status(sweep.id), queue.stats(),
                        len(queue._tasks))
            finally:
                await queue.close()

        status, stats, lanes = asyncio.run(main())
        assert lanes == 0
        assert stats["dispatch"] == "fabric"
        assert status["state"] == QUEUED
        assert stats["states"][QUEUED] == 1 and stats["executed"] == 0
