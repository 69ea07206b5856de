"""Command-line interface for the SARIS reproduction.

Usage examples::

    python -m repro.cli list
    python -m repro.cli machines
    python -m repro.cli run j3d27pt --variant saris --machine snitch-16
    python -m repro.cli compare jacobi_2d --json
    python -m repro.cli scaleout star3d2r
    python -m repro.cli reproduce --subset table1 --machine snitch-4
    python -m repro.cli bench-speed
    python -m repro.cli serve --port 8765
    python -m repro.cli submit jacobi_2d j3d27pt --url http://127.0.0.1:8765 --watch
    python -m repro.cli watch s0001-abcd1234 --url http://127.0.0.1:8765
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

# Nothing from ``repro`` is imported at module level: each subcommand
# imports what it needs when it runs, and only a subcommand whose arguments
# name kernels, variants, machines or artifact subsets loads those
# registries while its arguments are parsed.


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=1, sort_keys=True))


def _cmd_list(args) -> int:
    from repro.analysis import format_table
    from repro.core.kernels import get_kernel, kernel_names
    from repro.core.variants import VARIANT_REGISTRY
    from repro.machine import MACHINES

    kernels = [get_kernel(name) for name in kernel_names()]
    if args.json:
        _print_json({
            "kernels": [{"name": k.name, "dims": k.dims, "radius": k.radius,
                         "loads": k.loads_per_point,
                         "coeffs": k.coeffs_per_point,
                         "flops": k.flops_per_point,
                         "default_tile": list(k.default_tile),
                         "interior_points": k.interior_points(),
                         "description": k.description}
                        for k in kernels],
            "variants": [{"name": spec.name, "description": spec.description,
                          "paper": spec.paper}
                         for spec in VARIANT_REGISTRY.values()],
            "machines": [_machine_json(spec) for spec in MACHINES.values()],
        })
        return 0
    rows = [[k.name, f"{k.dims}D", k.radius, k.loads_per_point,
             k.coeffs_per_point, k.flops_per_point,
             "x".join(str(d) for d in k.default_tile),
             k.interior_points()]
            for k in kernels]
    print(format_table(
        ["code", "dims", "radius", "loads", "coeffs", "flops", "tile",
         "points"],
        rows, title="Registered stencil kernels"))
    print()
    print(format_table(
        ["variant", "paper", "description"],
        [[spec.name, "yes" if spec.paper else "no", spec.description]
         for spec in VARIANT_REGISTRY.values()],
        title="Registered codegen variants"))
    print()
    _print_machines()
    return 0


def _print_machines() -> None:
    from repro.analysis import format_table
    from repro.machine import MACHINES

    rows = [[s["name"], s["cores"], s["lanes"], s["clusters"], s["tcdm"],
             s["clock"], s["peak"], s["overrides"], s["description"]]
            for s in (spec.summary() for spec in MACHINES.values())]
    print(format_table(
        ["machine", "cores", "lanes", "clusters", "TCDM", "clock", "peak",
         "overrides", "description"],
        rows, title="Registered machine presets"))


def _machine_json(spec) -> dict:
    """Typed machine payload for scripting (raw parameter values)."""
    return {"name": spec.name,
            "num_cores": spec.num_cores,
            "x_interleave": spec.x_interleave,
            "y_interleave": spec.y_interleave,
            "tcdm_banks": spec.tcdm_banks,
            "tcdm_size": spec.tcdm_size,
            "tcdm_bank_width": spec.tcdm_bank_width,
            "clock_ghz": spec.clock_ghz,
            "groups": spec.groups,
            "clusters_per_group": spec.clusters_per_group,
            "hbm_device_gbs": spec.hbm_device_gbs,
            "timing_overrides": dict(spec.timing_overrides),
            "peak_gflops": spec.peak_system_gflops,
            "description": spec.description}


def _cmd_machines(args) -> int:
    from repro.machine import MACHINES

    if args.json:
        _print_json([_machine_json(spec) for spec in MACHINES.values()])
        return 0
    _print_machines()
    return 0


def _run_payload(result, machine: str) -> dict:
    payload = dict(result.as_dict())
    payload["machine"] = machine
    payload["tile_shape"] = list(result.tile_shape)
    return payload


def _cmd_run(args) -> int:
    from repro.analysis import format_table
    from repro.machine import resolve_machine
    from repro.runner import run_kernel

    machine = resolve_machine(args.machine)
    result = run_kernel(args.kernel, variant=args.variant,
                        tile_shape=tuple(args.tile) if args.tile else None,
                        seed=args.seed, machine=machine)
    if args.json:
        _print_json(_run_payload(result, machine.name))
        return 0 if result.correct else 1
    rows = [[key, value] for key, value in result.as_dict().items()]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.kernel} ({args.variant}) on {machine.name}"))
    return 0 if result.correct else 1


def _cmd_compare(args) -> int:
    from repro.analysis import format_table
    from repro.energy import energy_comparison
    from repro.machine import resolve_machine
    from repro.runner import compare_variants

    machine = resolve_machine(args.machine)
    cmp = compare_variants(args.kernel,
                           tile_shape=tuple(args.tile) if args.tile else None,
                           seed=args.seed, machine=machine)
    energy = energy_comparison(cmp.base, cmp.saris,
                               params=machine.timing_params())
    if args.json:
        _print_json({
            "kernel": cmp.kernel,
            "machine": machine.name,
            "base": _run_payload(cmp.base, machine.name),
            "saris": _run_payload(cmp.saris, machine.name),
            "speedup": cmp.speedup,
            "energy": energy,
        })
        return 0 if (cmp.base.correct and cmp.saris.correct) else 1
    rows = [
        ["cycles", cmp.base.cycles, cmp.saris.cycles],
        ["FPU utilization", f"{cmp.base.fpu_util:.3f}", f"{cmp.saris.fpu_util:.3f}"],
        ["IPC", f"{cmp.base.ipc:.3f}", f"{cmp.saris.ipc:.3f}"],
        ["power [W]", f"{energy['base_power_w']:.3f}", f"{energy['saris_power_w']:.3f}"],
    ]
    print(format_table(["metric", "base", "saris"], rows,
                       title=f"{args.kernel} on {machine.name}"))
    print(f"speedup: {cmp.speedup:.2f}x, "
          f"energy-efficiency gain: {energy['energy_efficiency_gain']:.2f}x")
    return 0


#: ``repro scaleout --config`` keys (and their aliases) -> topology fields.
_CONFIG_KEYS = {
    "groups": "groups",
    "clusters": "clusters_per_group",
    "clusters_per_group": "clusters_per_group",
    "hbm": "hbm_device_gbs",
    "hbm_device_gbs": "hbm_device_gbs",
}


def _parse_config(items) -> dict:
    """Parse repeated ``--config KEY=VALUE`` topology overrides."""
    overrides = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        field = _CONFIG_KEYS.get(key.strip())
        if not sep or field is None:
            choices = "/".join(sorted(set(_CONFIG_KEYS)))
            raise ValueError(
                f"--config expects KEY=VALUE with KEY one of {choices}, "
                f"got {item!r}")
        try:
            overrides[field] = (float(value) if field == "hbm_device_gbs"
                                else int(value))
        except ValueError:
            raise ValueError(f"--config {key}: invalid value {value!r}") from None
    return overrides


def _scaleout_machine(args, default_name: str):
    """Topology the scaleout command targets: preset + ``--config`` overrides."""
    from repro.machine import resolve_machine

    machine = resolve_machine(args.machine or default_name)
    overrides = _parse_config(args.config)
    if overrides:
        machine = machine.with_topology(**overrides)
    return machine


def _cmd_scaleout(args) -> int:
    from repro.core.kernels import get_kernel

    kernel = get_kernel(args.kernel)
    try:
        if args.direct:
            return _scaleout_direct(args, kernel)
        return _scaleout_analytical(args, kernel)
    except ValueError as exc:
        print(f"scaleout: {exc}", file=sys.stderr)
        return 2


def _scaleout_analytical(args, kernel) -> int:
    from repro.analysis import format_table
    from repro.runner import compare_variants
    from repro.scaleout import ManticoreConfig, estimate_scaleout_pair

    machine = _scaleout_machine(args, "manticore-32")
    if machine.is_multi_cluster:
        config = ManticoreConfig.from_machine(machine)
    else:
        # A single-cluster preset projects onto the stock 8x4 Manticore
        # topology built from clusters of that shape (an explicit
        # ``--config hbm=`` override still applies).
        config = ManticoreConfig(cores_per_cluster=machine.num_cores,
                                 clock_ghz=machine.clock_ghz,
                                 hbm_device_gbs=machine.hbm_device_gbs)
    cmp = compare_variants(kernel, seed=args.seed, machine=machine.cluster_spec())
    pair = estimate_scaleout_pair(kernel, cmp.base, cmp.saris, config=config)
    saris = pair["saris"]
    if args.json:
        _print_json({
            "kernel": kernel.name,
            "machine": machine.name,
            "model": "analytical",
            "groups": config.num_groups,
            "clusters_per_group": config.clusters_per_group,
            "hbm_device_gbs": config.hbm_device_gbs,
            "memory_bound": pair["memory_bound"],
            "cmtr": pair["cmtr"],
            "fpu_util": saris.fpu_util,
            "base_fpu_util": pair["base"].fpu_util,
            "speedup": pair["speedup"],
            "gflops": saris.gflops,
            "fraction_of_peak": saris.fraction_of_peak,
        })
        return 0
    rows = [
        ["regime", "memory-bound" if pair["memory_bound"] else "compute-bound"],
        ["compute-to-memory time ratio", f"{pair['cmtr']:.2f}"],
        ["saris FPU utilization", f"{saris.fpu_util:.2f}"],
        ["saris speedup over base", f"{pair['speedup']:.2f}"],
        ["saris throughput [GFLOP/s]", f"{saris.gflops:.0f}"],
        ["fraction of peak", f"{saris.fraction_of_peak:.2f}"],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{kernel.name} on {machine.name} "
              f"({config.num_groups}x{config.clusters_per_group} clusters, "
              f"analytical)"))
    return 0


def _scaleout_direct(args, kernel) -> int:
    from repro.analysis import format_table
    from repro.scaleout import direct_scaleout_pair
    from repro.scaleout.sim import DEFAULT_TILES_PER_CLUSTER

    if args.tiles is not None and args.tiles < 1:
        raise ValueError("--tiles must be >= 1")
    machine = _scaleout_machine(args, "manticore-2")
    pair = direct_scaleout_pair(kernel, machine=machine,
                                tiles_per_cluster=(DEFAULT_TILES_PER_CLUSTER
                                                   if args.tiles is None
                                                   else args.tiles),
                                seed=args.seed, workers=args.workers)
    saris = pair["saris"]
    analytical = pair["analytical"]
    if args.json:
        payload = saris.to_json_dict()
        payload.update({
            "model": "direct",
            "base": pair["base"].to_json_dict(),
            "speedup": pair["speedup"],
            "analytical": {
                "fpu_util": analytical["saris"].fpu_util,
                "speedup": analytical["speedup"],
                "cmtr": analytical["cmtr"],
                "memory_bound": analytical["memory_bound"],
            },
            "speedup_delta": pair["speedup_delta"],
            "fpu_util_delta": pair["fpu_util_delta"],
        })
        _print_json(payload)
        return 0
    rows = [
        ["regime", "memory-bound" if pair["memory_bound"] else "compute-bound"],
        ["tiles per cluster", saris.tiles_per_cluster],
        ["HBM arbitration", f"{saris.granularity}-granular"],
        ["compute-to-memory time ratio", f"{pair['cmtr']:.2f}"],
        ["saris FPU utilization", f"{saris.fpu_util:.2f}"],
        ["saris speedup over base", f"{pair['speedup']:.2f}"],
        ["saris throughput [GFLOP/s]", f"{saris.gflops:.1f}"],
        ["fraction of peak", f"{saris.fraction_of_peak:.2f}"],
        ["analytical speedup (cross-check)", f"{analytical['speedup']:.2f}"],
        ["speedup delta vs analytical", f"{pair['speedup_delta']:+.1%}"],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{kernel.name} on {machine.name} "
              f"({machine.groups}x{machine.clusters_per_group} clusters, "
              f"direct simulation)"))
    return 0


def _cmd_bench_speed(args) -> int:
    # Imported lazily: the harness pulls in the sweep engine and is only
    # needed for this subcommand.
    from repro.bench import print_report, run_benchmark

    if args.repetitions < 1:
        print("bench-speed: --repetitions must be >= 1", file=sys.stderr)
        return 2
    report = run_benchmark(repetitions=args.repetitions, output=args.output,
                           quick=args.quick)
    print_report(report)
    print(f"report written to {args.output}")
    return 0


def _cmd_reproduce(args) -> int:
    from repro.sweep.artifacts import render_report, reproduce

    if args.resume and args.no_cache:
        print("reproduce: --resume needs the result store; it cannot be "
              "combined with --no-cache", file=sys.stderr)
        return 2

    def progress(done, total, job, source):
        if not args.quiet:
            print(f"[{done:>2}/{total}] {job.label} ({source})")

    # The result store takes these as parameters; the codegen compile cache
    # and the native-engine build cache read the environment, so thread the
    # CLI's cache choices through to them (workers inherit the env).
    if args.no_cache:
        os.environ["REPRO_CODEGEN_CACHE"] = "0"
    if args.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    try:
        report = reproduce(subset=args.subset, workers=args.workers,
                           use_cache=not args.no_cache,
                           cache_dir=args.cache_dir,
                           progress=progress, machine=args.machine,
                           on_error=args.on_error, timeout=args.timeout,
                           retries=args.retries)
    except KeyboardInterrupt:
        # Completed jobs are already persisted in the result store; a
        # follow-up resume only executes what is still missing.
        print("\ninterrupted — completed jobs are saved; re-run with "
              "--resume to finish the remainder", file=sys.stderr)
        return 130
    print(render_report(report))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.output}")
    if report["failures"]:
        print(f"reproduce: {len(report['failures'])} job(s) failed; see the "
              f"report above (a --resume re-run re-executes only the "
              f"missing jobs)", file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args) -> int:
    from pathlib import Path

    from repro.fuzz import run_fuzz
    from repro.snitch import native

    if args.budget < 1:
        print("fuzz: --budget must be >= 1", file=sys.stderr)
        return 2
    if not native.available():
        print(f"fuzz: native engine unavailable "
              f"({native.disabled_reason()}); differential fuzzing needs "
              f"both engines — run `repro doctor` for build diagnostics",
              file=sys.stderr)
        return 2

    def progress(done, total):
        if not args.quiet and (done % 50 == 0 or done == total):
            print(f"[{done}/{total}] cases checked")

    report = run_fuzz(budget=args.budget, seed=args.seed,
                      shrink=not args.no_shrink,
                      corpus_dir=Path(args.corpus_dir),
                      progress=progress)
    if args.json:
        _print_json(report.to_dict())
    else:
        print(f"fuzz: {report.cases_run} cases (seed {report.seed}), "
              f"{report.native_cases} native / {report.fallback_cases} "
              f"fallback, {report.error_cases} model-error, "
              f"{len(report.divergences)} divergence(s) in "
              f"{report.wall_seconds:.1f}s")
        for divergence in report.divergences:
            print(f"  case seed {divergence.case.seed}:")
            for diff in divergence.diffs[:8]:
                print(f"    {diff}")
            if divergence.shrunk is not None:
                lines = sum(len(s.splitlines())
                            for s in divergence.shrunk.sources)
                print(f"    shrunk to {len(divergence.shrunk.sources)} "
                      f"core(s), {lines} line(s) — saved under "
                      f"{args.corpus_dir}/")
    if not report.ok:
        print(f"fuzz: {len(report.divergences)} divergence(s) found; "
              f"reproduce with --seed {report.seed}", file=sys.stderr)
        return 1
    return 0


def _metrics_rows(metrics, prefix: str = "") -> List[List[object]]:
    """Compact doctor rows from an ``obs.snapshot()`` payload: every
    nonzero counter/gauge plus p50/p95 of every histogram with samples."""
    if not isinstance(metrics, dict):
        return []
    rows: List[List[object]] = []
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, dict):
            if value.get("count"):
                rows.append([f"{prefix}{name}",
                             f"n={value['count']} p50={value.get('p50')}s "
                             f"p95={value.get('p95')}s"])
        elif value:
            rows.append([f"{prefix}{name}",
                         f"{value:g}" if isinstance(value, float)
                         else value])
    return rows


def _cmd_doctor(args) -> int:
    from repro.analysis import format_table
    from repro.doctor import doctor_report
    from repro.service import configured_url

    payload = doctor_report(cache_dir=args.cache_dir,
                            service_url=configured_url(args.url))
    info = payload["native"]
    store_stats = payload["store"]
    if args.json:
        _print_json(payload)
        return 0 if payload["ok"] else 1
    rows = [
        ["C compiler", info["compiler"] or "NOT FOUND"],
        ["compiler version", info["compiler_version"] or "-"],
        ["build flags", " ".join(info["cflags"])],
        ["native engine", "available" if info["available"]
         else f"DISABLED: {info['disabled_reason']}"],
        ["engine ABI version", info["abi_version"]],
        ["source+flags digest", info["source_digest"]],
        ["native build cache", info["cache_dir"]],
        ["watchdog ceiling", info["watchdog_cycles"] or "off"],
        ["runs this process", f"native={info['run_stats']['native']} "
                              f"fallback={info['run_stats']['fallback']}"],
        ["result store", store_stats["root"]],
        ["store entries (current)", store_stats["entries"]],
        ["store entries (all versions)", store_stats["total_entries"]],
        ["store version dirs", store_stats["version_dirs"]],
        ["store size", f"{store_stats['total_bytes'] / 1024:.0f} KiB"],
        ["corrupt entries quarantined", store_stats["corrupt_files"]],
    ]
    telemetry = payload.get("telemetry") or {}
    rows.append(["telemetry", "enabled" if telemetry.get("enabled")
                 else "DISABLED ($REPRO_OBS)"])
    rows.extend(_metrics_rows(telemetry.get("metrics"), prefix="local "))
    service = payload.get("service")
    if service is not None:
        if not service.get("reachable"):
            rows.append(["sweep daemon",
                         f"UNREACHABLE: {service.get('error')}"])
        else:
            queue_stats = service.get("queue") or {}
            rows.append(["sweep daemon",
                         f"{service['url']} "
                         f"({queue_stats.get('dispatch', 'local')} dispatch, "
                         f"{queue_stats.get('jobs', 0)} job(s))"])
            fabric = service.get("fabric")
            if fabric:
                workers = fabric.get("workers", {})
                rows.extend([
                    ["fabric workers (live/total)",
                     f"{workers.get('live', 0)}/{workers.get('total', 0)}"],
                    ["fabric leases in flight",
                     fabric.get("leases_in_flight", 0)],
                    ["fabric requeues", fabric.get("requeues", 0)],
                    ["fabric expired leases",
                     fabric.get("expired_leases", 0)],
                ])
            rows.extend(_metrics_rows(service.get("metrics"),
                                      prefix="daemon "))
    print(format_table(["check", "status"], rows,
                       title="repro environment diagnostics"))
    if not info["available"]:
        print("doctor: the native engine is disabled — simulations fall "
              "back to the (bit-identical, ~10x slower) Python engine",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    """Run the long-lived sweep daemon (Ctrl-C stops it cleanly)."""
    import asyncio

    import dataclasses

    from repro import obs
    from repro.doctor import doctor_report
    from repro.service import DEFAULT_HOST, DEFAULT_PORT, JobQueue, ReproService
    from repro.sweep.engine import resolve_workers
    from repro.sweep.store import ResultStore
    from repro.sweep.supervisor import RetryPolicy

    obs.set_process_label("coordinator")
    store = None if args.no_cache else ResultStore(args.cache_dir)
    retry = RetryPolicy.resolve(None, None)
    if args.retries is not None:
        retry = dataclasses.replace(retry, max_attempts=int(args.retries))
    queue = JobQueue(store=store, workers=resolve_workers(args.workers),
                     retry=retry,
                     dispatch="fabric" if args.fabric else "local")
    fabric = None
    if args.fabric:
        from repro.service.fabric import TTL_ENV_VAR, FabricCoordinator

        ttl = args.lease_ttl
        if ttl is None:
            env_ttl = os.environ.get(TTL_ENV_VAR, "").strip()
            ttl = float(env_ttl) if env_ttl else None
        fabric = FabricCoordinator(queue, ttl=ttl)
    service = ReproService(
        queue,
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
        token=args.token,
        stats_extra=lambda: doctor_report(cache_dir=args.cache_dir,
                                          store=store),
        fabric=fabric)

    async def main() -> None:
        await service.start()
        mode = (f"fabric coordinator, lease ttl {fabric.ttl}s"
                if fabric is not None else f"workers={queue.workers}")
        print(f"repro service listening on {service.url} "
              f"({mode}, "
              f"store={store.root if store is not None else 'disabled'}, "
              f"auth={'on' if service.token else 'off'})", flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.close()  # ends the pool's workers, also mid-job

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("\nservice stopped (the result store keeps every finished "
              "job; restart and resubmit for warm cache hits)",
              file=sys.stderr)
    return 0


def _cmd_worker(args) -> int:
    """Run one fabric worker against a coordinator daemon."""
    import dataclasses

    from repro.service import configured_url
    from repro.service.client import ServiceError
    from repro.service.worker import FabricWorker
    from repro.sweep.store import ResultStore
    from repro.sweep.supervisor import RetryPolicy

    url = configured_url(args.url)
    if url is None:
        print("worker: no coordinator configured — pass --url or set "
              "$REPRO_SERVICE_URL", file=sys.stderr)
        return 2
    retry = RetryPolicy.resolve(None, None)
    if args.retries is not None:
        retry = dataclasses.replace(retry, max_attempts=int(args.retries))
    store = None if args.no_cache else ResultStore(args.cache_dir)
    worker = FabricWorker(
        url, token=args.token, worker_id=args.id, capacity=args.jobs,
        store=store, retry=retry, poll_seconds=args.poll,
        log=lambda line: print(line, file=sys.stderr, flush=True))
    print(f"repro worker {worker.worker_id} pulling from {url} "
          f"(capacity={worker.capacity}, "
          f"store={store.root if store is not None else 'disabled'})",
          flush=True)
    try:
        worker.run(exit_on_idle=args.exit_on_idle)
    except KeyboardInterrupt:
        print(f"\nworker stopped: {json.dumps(worker.stats())}",
              file=sys.stderr)
        return 130
    except ServiceError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    print(f"worker idle-exit: {json.dumps(worker.stats())}", flush=True)
    return 0


def _print_failure_summary(command: str, final: dict) -> None:
    """Stderr failure summary shared by submit --watch and watch
    (mirrors `repro reproduce`'s behaviour on failed jobs)."""
    failed = [job for job in final.get("jobs", ())
              if job.get("state") == "failed"]
    total = len(final.get("jobs", ()))
    print(f"{command}: {len(failed)} of {total} job(s) failed:",
          file=sys.stderr)
    for job in failed:
        error = job.get("error", {})
        print(f"  {job.get('label', job.get('hash', '?'))}: "
              f"{error.get('kind', 'error')} "
              f"{error.get('error_type', '')}: {error.get('message', '')}",
              file=sys.stderr)


def _print_event(event: dict) -> None:
    """One human-readable progress line per service event."""
    kind = event.get("event", "?")
    label = event.get("label") or event.get("sweep", "")
    detail = ""
    if kind == "progress":
        detail = f" {event.get('phase', '')}"
        if "elapsed" in event:
            detail += f" ({event['elapsed']}s)"
    elif kind == "done":
        metrics = event.get("metrics", {})
        detail = (f" cycles={metrics.get('cycles')} "
                  f"correct={metrics.get('correct')} "
                  f"source={event.get('source')}")
    elif kind == "failed":
        error = event.get("error", {})
        detail = f" {error.get('error_type')}: {error.get('message')}"
    elif kind == "sweep_done":
        detail = (f" state={event.get('state')} "
                  f"cache_hits={event.get('cache_hits')} "
                  f"coalesced={event.get('coalesced')}")
    print(f"[{kind:>11}] {label}{detail}")


def _submit_payload(args) -> dict:
    from repro.service import experiment_to_wire

    return experiment_to_wire(
        kernels=args.kernels,
        variants=args.variants or (),
        machines=args.machines or (),
        tiles=[args.tile] if args.tile else (),
        seeds=args.seeds or ())


def _cmd_submit(args) -> int:
    from repro.service import ServiceClient, ServiceError, configured_url

    payload = _submit_payload(args)
    url = configured_url(args.url)
    if url is None:
        return _submit_local(args, payload)
    client = ServiceClient(url, token=args.token)
    try:
        receipt = client.submit(payload)
        if not args.watch:
            if args.json:
                _print_json(receipt)
            else:
                print(f"sweep {receipt['sweep']}: "
                      f"{len(receipt['jobs'])} job(s), "
                      f"{receipt['cache_hits']} cache hit(s), "
                      f"{receipt['coalesced']} coalesced")
                for job in receipt["jobs"]:
                    print(f"  {job['state']:>9} {job['hash']} {job['label']}")
                print(f"watch with: repro watch {receipt['sweep']} "
                      f"--url {url}")
            return 0
        final = client.wait(receipt["sweep"],
                            on_event=None if args.json else _print_event)
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _print_json(final)
    if final["counts"]["failed"]:
        _print_failure_summary("submit", final)
        return 1
    return 0


def _submit_local(args, payload: dict) -> int:
    """Graceful fallback: no server configured -> run the same queue core
    in-process (bit-identical results, same event stream)."""
    import asyncio

    from repro.service import JobQueue, SpecError, jobs_from_payload
    from repro.sweep.engine import resolve_workers
    from repro.sweep.store import ResultStore

    try:
        jobs = jobs_from_payload(payload)
    except SpecError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    if not args.json:
        print("submit: no server configured (--url / $REPRO_SERVICE_URL); "
              "executing in-process", file=sys.stderr)

    async def main() -> dict:
        store = None if args.no_cache else ResultStore(args.cache_dir)
        queue = JobQueue(store=store, workers=resolve_workers(args.workers))
        await queue.start()
        try:
            sweep = await queue.submit(jobs)
            async for _index, event in queue.subscribe(sweep.id):
                if not args.json:
                    _print_event(event)
            return queue.sweep_status(sweep.id)
        finally:
            await queue.close()

    final = asyncio.run(main())
    if args.json:
        _print_json(final)
    if final["counts"]["failed"]:
        _print_failure_summary("submit", final)
        return 1
    return 0


def _cmd_watch(args) -> int:
    from repro.service import ServiceClient, ServiceError, configured_url

    url = configured_url(args.url)
    if url is None:
        print("watch: no server configured — pass --url or set "
              "$REPRO_SERVICE_URL", file=sys.stderr)
        return 2
    client = ServiceClient(url, token=args.token)
    try:
        final = client.wait(args.sweep, from_index=args.from_index,
                            on_event=None if args.json else _print_event)
    except ServiceError as exc:
        print(f"watch: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _print_json(final)
    if final["counts"]["failed"]:
        _print_failure_summary("watch", final)
        return 1
    return 0


def _cmd_trace(args) -> int:
    from repro import obs
    from repro.service import ServiceClient, ServiceError, configured_url

    url = configured_url(args.url)
    if url is None:
        print("trace: no server configured — pass --url or set "
              "$REPRO_SERVICE_URL", file=sys.stderr)
        return 2
    client = ServiceClient(url, token=args.token)
    try:
        payload = client.trace(args.sweep)
    except ServiceError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    spans = payload.get("spans") or []
    document = obs.chrome_trace(spans)
    text = json.dumps(document, indent=1, sort_keys=True)
    if args.output == "-":
        print(text)
        return 0
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    processes = {span.get("proc") for span in spans if span.get("proc")}
    print(f"trace: wrote {len(spans)} span(s) from "
          f"{max(1, len(processes))} process(es) to {args.output} "
          f"(open at https://ui.perfetto.dev or chrome://tracing)")
    return 0


def _cmd_profile(args) -> int:
    from repro import obs
    from repro.analysis import format_table
    from repro.sweep.engine import run_sweep
    from repro.sweep.job import SweepJob

    if not obs.enabled():
        # Profiling *is* the telemetry: a REPRO_OBS=0 environment would
        # otherwise yield an empty table, so enable it for this process.
        print("profile: telemetry is disabled in the environment "
              f"(${obs.ENV_VAR}) — enabling it for this run", file=sys.stderr)
        obs.set_enabled(True)
    variants = args.variants or ["saris"]
    jobs = [SweepJob.make(args.kernel, variant=variant,
                          tile_shape=tuple(args.tile) if args.tile else None,
                          seed=args.seed, machine=args.machine)
            for variant in variants]
    report = run_sweep(jobs, workers=1, store=None)
    totals = report.phase_totals()
    top_level = {name: seconds for name, seconds in totals.items()
                 if "." not in name}
    nested = {name: seconds for name, seconds in totals.items()
              if "." in name}
    phase_sum = sum(top_level.values())
    if args.json:
        _print_json({
            "kernel": args.kernel,
            "variants": variants,
            "wall_seconds": round(report.wall_seconds, 6),
            "phase_sum_seconds": round(phase_sum, 6),
            "phases": {name: round(seconds, 6)
                       for name, seconds in sorted(totals.items())},
        })
        return 0
    ordered = sorted(top_level.items(), key=lambda item: -item[1])
    if args.top is not None:
        ordered = ordered[:max(0, args.top)]
    rows = []
    for name, seconds in ordered:
        share = 100.0 * seconds / phase_sum if phase_sum else 0.0
        rows.append([name, f"{seconds:.4f}", f"{share:5.1f}%"])
        for sub, sub_seconds in sorted(nested.items(),
                                       key=lambda item: -item[1]):
            if sub.startswith(name + "."):
                sub_share = (100.0 * sub_seconds / phase_sum
                             if phase_sum else 0.0)
                rows.append([f"  {sub}", f"{sub_seconds:.4f}",
                             f"{sub_share:5.1f}%"])
    print(format_table(
        ["phase", "seconds", "share"], rows,
        title=f"phase profile: {args.kernel} ({', '.join(variants)})"))
    print(f"wall {report.wall_seconds:.4f}s, phases sum {phase_sum:.4f}s "
          f"across {report.executed} executed job(s)")
    return 0


def _kernel_choices() -> List[str]:
    from repro.core.kernels import kernel_names

    return sorted(kernel_names())


def _variant_choices() -> List[str]:
    from repro.core.variants import variant_names

    return list(variant_names())


def _machine_choices() -> List[str]:
    from repro.machine import machine_names

    return machine_names()


def _positive(kind):
    """Argparse type for flags that must be positive: a ``kind`` > 0."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" message
    return parse


def build_parser(command: str = "") -> argparse.ArgumentParser:
    """Build the CLI argument parser (choices track the live registries).

    Every subcommand is listed.  A subcommand whose arguments name kernels,
    variants, machines or artifact subsets gets those arguments only when
    it is ``command``, so parsing loads the registries only for a
    subcommand that takes them.
    """
    parser = argparse.ArgumentParser(prog="repro",
                                     description="SARIS reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    def wanted(name: str) -> bool:
        return command == name

    list_p = sub.add_parser(
        "list", help="list registered kernels, variants and machine presets")
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable output")
    list_p.set_defaults(func=_cmd_list)

    machines_p = sub.add_parser("machines",
                                help="list registered machine presets")
    machines_p.add_argument("--json", action="store_true",
                            help="machine-readable output")
    machines_p.set_defaults(func=_cmd_machines)

    def add_common(p):
        p.add_argument("kernel", choices=_kernel_choices())
        p.add_argument("--tile", type=int, nargs="+", default=None,
                       help="tile shape including halo (default: paper size)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--machine", choices=_machine_choices(), default=None,
                       help="machine preset (default: snitch-8)")
        p.add_argument("--json", action="store_true",
                       help="print the metrics as JSON (for scripting)")

    run_p = sub.add_parser("run", help="simulate one kernel variant")
    if wanted("run"):
        add_common(run_p)
        run_p.add_argument("--variant", choices=_variant_choices(),
                           default="saris")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="compare base and saris variants")
    if wanted("compare"):
        add_common(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    scale_p = sub.add_parser(
        "scaleout",
        help="scale a kernel out to a Manticore topology (analytical "
             "projection, or --direct multi-cluster simulation)")
    if wanted("scaleout"):
        scale_p.add_argument("kernel", choices=_kernel_choices())
        scale_p.add_argument("--seed", type=int, default=0)
        scale_p.add_argument("--machine", choices=_machine_choices(),
                             default=None,
                             help="topology preset (default: manticore-32 "
                                  "analytical / manticore-2 direct)")
    scale_p.add_argument("--config", action="append", metavar="KEY=VALUE",
                         help="topology overrides: groups=N, clusters=N "
                              "(clusters per group), hbm=GB/s; repeatable")
    scale_p.add_argument("--direct", action="store_true",
                         help="directly simulate the clusters through the "
                              "shared-HBM model instead of projecting "
                              "analytically")
    scale_p.add_argument("--tiles", type=int, default=None,
                         help="tiles per cluster for --direct (default: 4)")
    scale_p.add_argument("--workers", type=int, default=None,
                         help="worker processes for the --direct cluster "
                              "fan-out (default: $REPRO_SWEEP_WORKERS or "
                              "the CPU count)")
    scale_p.add_argument("--json", action="store_true",
                         help="print the metrics as JSON (for scripting)")
    scale_p.set_defaults(func=_cmd_scaleout)

    bench_p = sub.add_parser(
        "bench-speed",
        help="time the Table-1 sweep and write BENCH_simspeed.json")
    bench_p.add_argument("-o", "--output", default="BENCH_simspeed.json")
    bench_p.add_argument("-r", "--repetitions", type=int, default=2)
    bench_p.add_argument("--quick", action="store_true",
                         help="Table-1 sweep repetitions only (CI perf smoke)")
    bench_p.set_defaults(func=_cmd_bench_speed)

    repro_p = sub.add_parser(
        "reproduce",
        help="regenerate every paper artifact through the parallel sweep "
             "engine and write a consolidated report")
    if wanted("reproduce"):
        from repro.sweep.artifacts import subset_choices

        repro_p.add_argument("--subset", choices=subset_choices(),
                             default="all",
                             help="artifact subset to regenerate "
                                  "(default: all)")
        repro_p.add_argument("--machine", choices=_machine_choices(),
                             default=None,
                             help="machine preset to run the pipeline on "
                                  "(default: snitch-8)")
    repro_p.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: $REPRO_SWEEP_WORKERS "
                              "or the CPU count)")
    repro_p.add_argument("--no-cache", action="store_true",
                         help="ignore and do not update the result store "
                              "(force a cold run)")
    repro_p.add_argument("--cache-dir", default=None,
                         help="result store directory (default: "
                              "$REPRO_CACHE_DIR or .repro_cache)")
    repro_p.add_argument("-o", "--output", default="reproduction_report.json",
                         help="consolidated JSON report path "
                              "(default: %(default)s; '' to skip)")
    repro_p.add_argument("-q", "--quiet", action="store_true",
                         help="suppress per-job progress lines")
    repro_p.add_argument("--resume", action="store_true",
                         help="continue an interrupted or partially failed "
                              "run: only jobs missing from the result store "
                              "are executed (the default warm-cache pass "
                              "already does this; --resume states the "
                              "intent and refuses --no-cache)")
    repro_p.add_argument("--on-error", choices=["raise", "collect"],
                         default="raise",
                         help="what a job that fails for good does: abort "
                              "the run (raise, default) or leave a "
                              "structured failure beside every healthy "
                              "job's result (collect)")
    repro_p.add_argument("--timeout", type=_positive(float), default=None,
                         help="per-job wall-clock timeout in seconds "
                              "(default: $REPRO_SWEEP_TIMEOUT or none)")
    repro_p.add_argument("--retries", type=_positive(int), default=None,
                         help="maximum attempts per job (default: "
                              "$REPRO_SWEEP_RETRIES or 3)")
    repro_p.set_defaults(func=_cmd_reproduce)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="differentially fuzz the native engine against the Python "
             "reference: random valid SPMD programs must be bit-identical "
             "on both")
    fuzz_p.add_argument("--budget", type=int, default=100,
                        help="number of generated cases (default: "
                             "%(default)s)")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="base seed; the case stream is a pure function "
                             "of it (default: %(default)s)")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="report divergences without minimizing them")
    fuzz_p.add_argument("--corpus-dir", default="tests/fuzz_corpus",
                        help="where shrunk divergences are written "
                             "(default: %(default)s)")
    fuzz_p.add_argument("--json", action="store_true",
                        help="machine-readable report")
    fuzz_p.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress lines")
    fuzz_p.set_defaults(func=_cmd_fuzz)

    doctor_p = sub.add_parser(
        "doctor",
        help="diagnose the native-engine build and the result store")
    doctor_p.add_argument("--cache-dir", default=None,
                          help="result store directory (default: "
                               "$REPRO_CACHE_DIR or .repro_cache)")
    doctor_p.add_argument("--url", default=None,
                          help="also probe a running sweep daemon / fabric "
                               "coordinator (default: $REPRO_SERVICE_URL "
                               "when set)")
    doctor_p.add_argument("--json", action="store_true",
                          help="machine-readable output")
    doctor_p.set_defaults(func=_cmd_doctor)

    serve_p = sub.add_parser(
        "serve",
        help="run the sweep daemon: an HTTP job queue over the shared "
             "result store")
    serve_p.add_argument("--host", default=None,
                         help="bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=None,
                         help="bind port; 0 picks an ephemeral one "
                              "(default: 8751)")
    serve_p.add_argument("--workers", type=int, default=None,
                         help="worker processes, one simulation each at a "
                              "time (default: $REPRO_SWEEP_WORKERS or the "
                              "CPU count)")
    serve_p.add_argument("--retries", type=_positive(int), default=None,
                         help="max attempts per job before it is reported "
                              "failed (default: supervisor policy)")
    serve_p.add_argument("--cache-dir", default=None,
                         help="result store directory (default: "
                              "$REPRO_CACHE_DIR or .repro_cache)")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="run without a result store (no dedupe, no "
                              "warm restarts)")
    serve_p.add_argument("--token", default=None,
                         help="static api key clients must present "
                              "(default: $REPRO_SERVICE_TOKEN; empty = "
                              "auth off)")
    serve_p.add_argument("--fabric", action="store_true",
                         help="coordinator mode: no local simulations; "
                              "jobs are leased to `repro worker` processes "
                              "over /v1/fabric with TTL-based ownership")
    serve_p.add_argument("--lease-ttl", type=_positive(float), default=None,
                         help="fabric lease TTL in seconds (default: "
                              "$REPRO_FABRIC_TTL or 10)")
    serve_p.set_defaults(func=_cmd_serve)

    worker_p = sub.add_parser(
        "worker",
        help="run a fabric worker: lease jobs from a coordinator daemon, "
             "simulate them through the supervised path, publish results")
    worker_p.add_argument("--url", default=None,
                          help="coordinator URL (default: "
                               "$REPRO_SERVICE_URL)")
    worker_p.add_argument("--token", default=None,
                          help="api key (default: $REPRO_SERVICE_TOKEN)")
    worker_p.add_argument("--id", default=None,
                          help="worker id (default: <hostname>-<pid>)")
    worker_p.add_argument("--jobs", type=_positive(int), default=1,
                          help="pool worker processes, one simulation each "
                               "at a time; one more grant per process is "
                               "held ahead (default: %(default)s)")
    worker_p.add_argument("--retries", type=_positive(int), default=None,
                          help="max attempts per job in the local "
                               "supervised ladder (default: supervisor "
                               "policy)")
    worker_p.add_argument("--cache-dir", default=None,
                          help="local result-store cache tier (default: "
                               "$REPRO_CACHE_DIR or .repro_cache)")
    worker_p.add_argument("--no-cache", action="store_true",
                          help="run without a local result store")
    worker_p.add_argument("--poll", type=_positive(float), default=0.5,
                          help="idle poll interval in seconds (default: "
                               "%(default)s)")
    worker_p.add_argument("--exit-on-idle", type=int, default=None,
                          help="exit after this many consecutive empty "
                               "polls (CI/batch mode; default: run forever)")
    worker_p.set_defaults(func=_cmd_worker)

    submit_p = sub.add_parser(
        "submit",
        help="submit a sweep to a running daemon (or run it in-process "
             "when no server is configured)")
    submit_p.add_argument("kernels", nargs="+",
                          help="kernel names (see `repro list`)")
    submit_p.add_argument("--variants", nargs="+", default=None,
                          help="variants to run (default: base saris)")
    submit_p.add_argument("--machines", nargs="+", default=None,
                          help="machine presets (default: snitch-8)")
    submit_p.add_argument("--tile", type=int, nargs="+", default=None,
                          help="tile shape, e.g. --tile 8 8")
    submit_p.add_argument("--seeds", type=int, nargs="+", default=None,
                          help="input seeds (default: 0)")
    submit_p.add_argument("--url", default=None,
                          help="daemon URL (default: $REPRO_SERVICE_URL; "
                               "unset = in-process fallback)")
    submit_p.add_argument("--token", default=None,
                          help="api key (default: $REPRO_SERVICE_TOKEN)")
    submit_p.add_argument("--watch", action="store_true",
                          help="follow the event stream until the sweep "
                               "finishes")
    submit_p.add_argument("--workers", type=int, default=None,
                          help="in-process fallback only: worker "
                               "processes")
    submit_p.add_argument("--cache-dir", default=None,
                          help="in-process fallback only: result store "
                               "directory")
    submit_p.add_argument("--no-cache", action="store_true",
                          help="in-process fallback only: disable the "
                               "result store")
    submit_p.add_argument("--json", action="store_true",
                          help="machine-readable output")
    submit_p.set_defaults(func=_cmd_submit)

    watch_p = sub.add_parser(
        "watch",
        help="follow a submitted sweep's event stream to completion")
    watch_p.add_argument("sweep", help="sweep id from `repro submit`")
    watch_p.add_argument("--url", default=None,
                         help="daemon URL (default: $REPRO_SERVICE_URL)")
    watch_p.add_argument("--token", default=None,
                         help="api key (default: $REPRO_SERVICE_TOKEN)")
    watch_p.add_argument("--from", dest="from_index", type=int, default=0,
                         help="replay events starting at this index "
                              "(default: %(default)s)")
    watch_p.add_argument("--json", action="store_true",
                         help="print the final sweep status as JSON")
    watch_p.set_defaults(func=_cmd_watch)

    trace_p = sub.add_parser(
        "trace",
        help="export a sweep's tracing spans as Chrome trace-event JSON "
             "(coordinator and worker spans under one trace id)")
    trace_p.add_argument("sweep", help="sweep id from `repro submit`")
    trace_p.add_argument("--url", default=None,
                         help="daemon URL (default: $REPRO_SERVICE_URL)")
    trace_p.add_argument("--token", default=None,
                         help="api key (default: $REPRO_SERVICE_TOKEN)")
    trace_p.add_argument("-o", "--output", default="trace.json",
                         help="output file, '-' for stdout "
                              "(default: %(default)s)")
    trace_p.set_defaults(func=_cmd_trace)

    profile_p = sub.add_parser(
        "profile",
        help="run a kernel in-process and print where the time goes "
             "(codegen / setup / simulate / verify phase breakdown)")
    if wanted("profile"):
        profile_p.add_argument("kernel", choices=_kernel_choices())
        profile_p.add_argument("--variants", nargs="+", default=None,
                               choices=_variant_choices(),
                               help="variants to profile (default: saris)")
        profile_p.add_argument("--machine", choices=_machine_choices(),
                               default=None,
                               help="machine preset (default: snitch-8)")
    profile_p.add_argument("--tile", type=int, nargs="+", default=None,
                           help="tile shape including halo")
    profile_p.add_argument("--seed", type=int, default=0)
    profile_p.add_argument("--top", type=int, default=None,
                           help="show only the N most expensive top-level "
                                "phases")
    profile_p.add_argument("--json", action="store_true",
                           help="machine-readable output")
    profile_p.set_defaults(func=_cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no options besides --help, so the first bare
    # word names the subcommand ("" when there is none).
    command = next((arg for arg in argv if not arg.startswith("-")), "")
    args = build_parser(command).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
