"""Dual-engine execution and full-state diffing of fuzz cases.

``run_case`` materializes a :class:`~repro.fuzz.generator.FuzzCase` into a
:class:`~repro.snitch.cluster.SnitchCluster`, runs it under the requested
engine and snapshots *everything the Python engine leaves behind*: cycle
count, TCDM bytes and arbitration counters, icache bookkeeping, DMA state,
and per-core registers, stall attribution, FPU statistics and stream-mover
state.  ``tests/test_native_engine.py`` compares the same snapshot.  A case
where any of it differs between engines is a divergence.

Model-level exceptions (deadlock, memory range, SSR misuse) are part of
the observable behavior: both engines must raise the same *exception type*
for the same case, so errors are folded into the result rather than
aborting the fuzz run.  Post-error cluster state is deliberately not
compared — the engines' error-path contract has always been type parity
only (each settles its cycle counters at slightly different points of the
abandoned cycle), and generated programs are valid by construction so
errored cases are a corner, not the workload.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.fuzz.generator import CORE_WINDOW, FuzzCase, generate_case
from repro.snitch.trace import FPU_COUNTERS

#: Default location of the checked-in regression corpus.
CORPUS_DIR = Path("tests") / "fuzz_corpus"


def _build_cluster(case: FuzzCase):
    from repro.isa.assembler import assemble
    from repro.snitch.cluster import SnitchCluster
    from repro.snitch.dma import DmaTransfer
    from repro.snitch.params import TimingParams

    params = TimingParams(**case.params)
    cluster = SnitchCluster(params)
    programs = [assemble(src, name=f"fuzz{i}")
                for i, src in enumerate(case.sources)]
    cluster.load_programs(programs)
    for core_index in range(len(case.sources)):
        base = cluster.tcdm.base + core_index * CORE_WINDOW
        for word_index, word in enumerate(case.mem_words):
            cluster.tcdm.write_f64(base + 8 * word_index, word)
    for desc in case.dma:
        cluster.dma.enqueue(DmaTransfer(**desc))
    return cluster


def snapshot(cluster) -> Dict[str, object]:
    """Every piece of state the Python engine leaves behind after a run."""
    state: Dict[str, object] = {
        "cycle": cluster.cycle,
        "tcdm": (cluster.tcdm.cycles, cluster.tcdm.total_requests,
                 cluster.tcdm.granted_requests, cluster.tcdm.conflicts),
        "icache": (cluster.icache.hits, cluster.icache.misses,
                   tuple(cluster.icache._lines.keys())),
        "mem": bytes(cluster.tcdm._data),
        "dma": (cluster.dma.bytes_moved, cluster.dma.busy_cycles,
                cluster.dma.transfers_completed,
                cluster.dma._remaining_cycles, len(cluster.dma._queue)),
    }
    for core in cluster.cores:
        state[f"core{core.hart_id}"] = {
            "pc": core.pc,
            "finished": core.finished,
            "finish_cycle": core.finish_cycle,
            "int_retired": core.int_retired,
            "stalls": core.stalls.as_dict(),
            "iregs": tuple(core.int_regs._regs),
            "fregs": tuple(core.fp_regs._regs),
            "scoreboard": tuple(core.fpu._scoreboard),
            "fpu": {name: getattr(core.fpu.stats, name)
                    for name in FPU_COUNTERS},
            "ssr": core.ssr.enabled,
            "movers": tuple(
                (m.cfg.write, m.cfg.indirect, m.elements_streamed,
                 m.data_requests, m.index_requests, m.denied_requests,
                 tuple(m._fifo))
                for m in core.ssr.movers),
        }
    return state


@dataclass
class CaseResult:
    """Outcome of one engine's run of one case."""

    state: Optional[Dict[str, object]]
    #: "native" when the C engine actually carried the run, else "python".
    engine_used: str
    #: Model exception raised by the run ("TypeName: message"), if any.
    error: Optional[str] = None


def run_case(case: FuzzCase, force_python: bool = False) -> CaseResult:
    """Build and run one case; model exceptions fold into the result."""
    from repro.snitch import native

    cluster = _build_cluster(case)
    error = None
    try:
        if force_python:
            with native.forced_python():
                cluster.run(max_cycles=case.max_cycles)
        else:
            cluster.run(max_cycles=case.max_cycles)
    except native.NativeEngineError:
        # Guard faults are never acceptable on generator output: the case
        # is valid by construction, so treat this as a hard failure of the
        # engine rather than behavior to compare.
        raise
    except Exception as exc:  # noqa: BLE001 - model errors are comparable
        error = f"{type(exc).__name__}: {exc}"
    return CaseResult(state=snapshot(cluster), engine_used=cluster.engine,
                      error=error)


def diff_states(native_result: CaseResult, python_result: CaseResult
                ) -> List[str]:
    """Human-readable description of every difference between two runs."""
    diffs: List[str] = []
    err_a, err_b = native_result.error, python_result.error
    if err_a is not None or err_b is not None:
        type_a = err_a.split(":", 1)[0] if err_a else None
        type_b = err_b.split(":", 1)[0] if err_b else None
        if type_a != type_b:
            diffs.append(f"error: native={err_a!r} python={err_b!r}")
        # Same exception type: the error-path contract holds; post-error
        # state is not part of the bit-identity surface.
        return diffs
    a, b = native_result.state, python_result.state
    if a is None or b is None:
        if (a is None) != (b is None):
            diffs.append("one engine produced no state snapshot")
        return diffs
    for key in sorted(set(a) | set(b), key=str):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if isinstance(va, dict) and isinstance(vb, dict):
            for sub in sorted(set(va) | set(vb)):
                if va.get(sub) != vb.get(sub):
                    diffs.append(f"{key}.{sub}: native={va.get(sub)!r} "
                                 f"python={vb.get(sub)!r}")
        elif isinstance(va, bytes) and isinstance(vb, bytes):
            first = next((i for i, (x, y) in enumerate(zip(va, vb))
                          if x != y), min(len(va), len(vb)))
            diffs.append(f"{key}: first differing byte at offset {first}")
        else:
            diffs.append(f"{key}: native={va!r} python={vb!r}")
    return diffs


def check_case(case: FuzzCase) -> List[str]:
    """Run ``case`` on both engines; return the differences (empty = pass)."""
    native_result = run_case(case, force_python=False)
    python_result = run_case(case, force_python=True)
    return diff_states(native_result, python_result)


@dataclass
class Divergence:
    """One confirmed engine divergence, before and after shrinking."""

    case: FuzzCase
    diffs: List[str]
    shrunk: Optional[FuzzCase] = None
    shrunk_diffs: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "case": self.case.to_dict(),
            "diffs": list(self.diffs),
        }
        if self.shrunk is not None:
            payload["shrunk"] = self.shrunk.to_dict()
            payload["shrunk_diffs"] = list(self.shrunk_diffs)
        return payload


@dataclass
class FuzzReport:
    """Result of one fuzz run."""

    budget: int
    seed: int
    cases_run: int = 0
    native_cases: int = 0
    fallback_cases: int = 0
    error_cases: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, object]:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "cases_run": self.cases_run,
            "native_cases": self.native_cases,
            "fallback_cases": self.fallback_cases,
            "error_cases": self.error_cases,
            "divergences": [d.to_dict() for d in self.divergences],
            "ok": self.ok,
            "wall_seconds": round(self.wall_seconds, 3),
        }


def case_seed(base_seed: int, index: int) -> int:
    """Per-case seed: decouples the case stream from the budget size."""
    return base_seed * 1_000_003 + index


def run_fuzz(budget: int, seed: int = 0, shrink: bool = True,
             corpus_dir: Optional[Path] = None,
             progress: Optional[Callable[[int, int], None]] = None
             ) -> FuzzReport:
    """Run ``budget`` generated cases through both engines.

    Divergent cases are shrunk (unless ``shrink=False``) and, when
    ``corpus_dir`` is given, written there as JSON for triage and corpus
    check-in.  The run continues past divergences so one fuzz session
    reports every distinct failure it can find within budget.
    """
    from repro.fuzz.shrink import shrink_case

    report = FuzzReport(budget=budget, seed=seed)
    start = time.perf_counter()
    for index in range(budget):
        case = generate_case(case_seed(seed, index))
        native_result = run_case(case, force_python=False)
        python_result = run_case(case, force_python=True)
        report.cases_run += 1
        if native_result.engine_used == "native":
            report.native_cases += 1
        else:
            report.fallback_cases += 1
        if python_result.error is not None:
            report.error_cases += 1
        diffs = diff_states(native_result, python_result)
        if diffs:
            divergence = Divergence(case=case, diffs=diffs)
            if shrink:
                divergence.shrunk = shrink_case(case)
                divergence.shrunk_diffs = check_case(divergence.shrunk)
            report.divergences.append(divergence)
            if corpus_dir is not None:
                save_divergence(divergence, corpus_dir)
        if progress is not None:
            progress(index + 1, budget)
    report.wall_seconds = time.perf_counter() - start
    return report


def save_divergence(divergence: Divergence, corpus_dir: Path) -> Path:
    """Persist a shrunk divergence for triage / corpus check-in."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / f"divergence-{divergence.case.seed}.json"
    path.write_text(json.dumps(divergence.to_dict(), indent=2,
                               sort_keys=True) + "\n")
    return path


def save_case(case: FuzzCase, path: Path) -> None:
    """Write one corpus case as stable, reviewable JSON."""
    Path(path).write_text(json.dumps(case.to_dict(), indent=2,
                                     sort_keys=True) + "\n")


def load_corpus(corpus_dir: Optional[Path] = None) -> List[FuzzCase]:
    """Load every ``case-*.json`` regression case from the corpus."""
    corpus_dir = Path(corpus_dir) if corpus_dir is not None else CORPUS_DIR
    cases = []
    for path in sorted(corpus_dir.glob("case-*.json")):
        cases.append(FuzzCase.from_dict(json.loads(path.read_text())))
    return cases
