"""Native symmetry-folded execution engine: build, decode and state bridging.

This package accelerates :meth:`repro.snitch.cluster.SnitchCluster.run` by
running the cycle loop in a small C library (``engine.c``) that is a
decision-for-decision port of the Python engine — same rotation order, same
bank arbitration, same stall attribution, same IEEE-754 double arithmetic —
so results are bit-identical (``tests/test_golden_cycles.py`` and
``tests/test_native_engine.py`` enforce this).

Architecture
------------

* **Compile cache**: the C source is compiled once per content hash with the
  host ``cc`` and cached as a shared library under
  ``$REPRO_CACHE_DIR/native/`` (or ``.repro_cache/native/``), so every later
  process — sweep workers included — just ``dlopen``\\ s it.  If no compiler
  is available the engine silently stays on the Python fallback.
* **Binding**: the standard library's :mod:`ctypes`.  The struct and
  prototype mirrors are generated from ``engine.c``'s CDEF block, checked
  against the library's ``nat_abi`` / ``nat_sizeof_*`` entry points at load
  time, and every run is stamped with a magic number and the ABI version.
  Only the program decoder needs NumPy, so loading the engine does not.
* **Symmetry fold**: SPMD programs are *decoded once per unique program
  object* into a flat ``(plen, 12)`` int64 opcode table shared by reference
  with the C core; per-core state lives in flat structure-of-arrays records;
  the whole cluster's TCDM bank conflicts resolve against one 64-bit busy
  mask per cycle.
* **Eligibility prescan**: a program/cluster combination that the C core
  cannot reproduce exactly (unsupported instruction, icache capacity
  pressure requiring LRU evictions, in-flight stream or offload-queue
  state, a DMA transfer whose rows do not resolve into TCDM/main memory,
  a TCDM bank count or width that is not a power of two) falls back to
  the Python engine, which remains the reference
  implementation.  Queued/in-flight DMA work itself is natively supported
  since ABI 2: ``engine.c`` ports the ``DmaEngine`` countdown + bulk-copy
  model, so double-buffered workloads — the steady state of multi-cluster
  runs — keep the fold.

Set ``REPRO_ENGINE=python`` to force the Python engine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from collections import deque
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

from repro import obs

ENGINE_ENV_VAR = "REPRO_ENGINE"
NATIVE_DIR_ENV_VAR = "REPRO_NATIVE_DIR"

#: Extra compiler flags appended to the mandatory base set, e.g.
#: ``REPRO_NATIVE_CFLAGS="-fsanitize=address,undefined -g"`` for an
#: instrumented build.  Folded into the compile-cache key, so sanitized and
#: plain builds coexist side by side.
CFLAGS_ENV_VAR = "REPRO_NATIVE_CFLAGS"

#: Hard cycle ceiling for native runs, independent of each run's
#: ``max_cycles`` budget (0 / unset = disabled).  A run that exceeds it
#: raises :class:`NativeEngineError` (code ``watchdog``) instead of spinning
#: until the much larger deadlock budget — the supervisor's defense against
#: runaway native programs.
WATCHDOG_ENV_VAR = "REPRO_NATIVE_WATCHDOG"

#: Mutation self-test hook: any non-empty value makes :func:`execute`
#: deliberately perturb one piece of post-run state (core 0's retired
#: instruction counter) after every *successful* native run.  Exists solely
#: to prove the differential fuzz harness catches real divergences; never
#: set it outside tests.
CORRUPT_ENV_VAR = "REPRO_NATIVE_CORRUPT"

_SOURCE_PATH = Path(__file__).resolve().parent / "engine.c"

#: Mandatory compiler flags.  -ffp-contract=off and -fno-fast-math are
#: REQUIRED for bit-identical floating point (CPython never fuses a*b+c).
_CFLAGS = ("-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off",
           "-fwrapv")

_ABI_VERSION = 4

#: Handshake magic stamped on every NatCluster before nat_run ("NAT4").
_MAGIC = 0x4E415434

# error codes (keep in sync with engine.c)
_ERR_MAX_CYCLES = 1
_ERR_MEM_RANGE = 2
_ERR_SSR_MISUSE = 3
_ERR_INTERNAL = 4
_ERR_HANDSHAKE = 5
_ERR_DECODE = 6
_ERR_BOUNDS = 7
_ERR_WATCHDOG = 8

#: Error-code taxonomy (documented in the README's robustness section).
#: ``max_cycles`` / ``mem_range`` / ``ssr_misuse`` have authentic Python-
#: engine counterparts and keep raising the matching model exception types;
#: the rest are guard-level faults raised as :class:`NativeEngineError`.
ERROR_NAMES = {
    _ERR_MAX_CYCLES: "max_cycles",
    _ERR_MEM_RANGE: "mem_range",
    _ERR_SSR_MISUSE: "ssr_misuse",
    _ERR_INTERNAL: "internal",
    _ERR_HANDSHAKE: "handshake",
    _ERR_DECODE: "decode",
    _ERR_BOUNDS: "bounds",
    _ERR_WATCHDOG: "watchdog",
}


class NativeEngineError(RuntimeError):
    """Structured fault from the native engine's defense-in-depth guards.

    Raised for error codes with no Python-engine counterpart: a failed ABI
    handshake, a corrupt decoded program table, an out-of-bounds internal
    access caught by a runtime guard, the cycle-budget watchdog, or an
    internal invariant violation.  The supervised sweep executor counts
    this as a ``native_fault`` and retries the job once under the forced
    Python engine — in-band, without a pool respawn.

    Attributes: ``code`` (numeric), ``name`` (taxonomy key from
    :data:`ERROR_NAMES`), ``hart`` (faulting core, -1 if unattributable),
    ``pc`` (faulting decoded-program index, -1 likewise) and ``addr``.
    """

    def __init__(self, code: int, name: str, hart: int = -1, pc: int = -1,
                 addr: int = 0) -> None:
        parts = [f"native engine fault [{name}] (code {code})"]
        if hart >= 0:
            parts.append(f"core {hart}")
        if pc >= 0:
            parts.append(f"pc {pc}")
        if addr:
            parts.append(f"addr 0x{addr:08x}")
        super().__init__(", ".join(parts))
        self.code = int(code)
        self.name = name
        self.hart = int(hart)
        self.pc = int(pc)
        self.addr = int(addr)

# decoded-program columns (keep in sync with engine.c)
_NCOL = 12
(_C_OP, _C_RD, _C_RS1, _C_RS2, _C_RS3, _C_IMM, _C_IMM2, _C_TGT,
 _C_A0, _C_A1, _C_A2, _C_A3) = range(_NCOL)

# opcodes (keep in sync with engine.c)
_OP_RETIRE = 1
_OP_ALU_RR = 2
_OP_ALU_RI = 3
_OP_LI = 4
_OP_AUIPC = 5
_OP_MV = 6
_OP_LOAD = 7
_OP_STORE = 8
_OP_BRANCH = 9
_OP_JUMP = 10
_OP_CSRR = 11
_OP_DIV = 12
_OP_FREP = 13
_OP_FP = 14
_OP_SSR_ENABLE = 15
_OP_SSR_DISABLE = 16
_OP_SSR_BARRIER = 17
_OP_CFG_IDX = 18
_OP_CFG_IDXSIZE = 19
_OP_CFG_DIMS = 20
_OP_CFG_BOUND = 21
_OP_CFG_STRIDE = 22
_OP_CFG_BASE = 23
_OP_CFG_WRITE = 24
_OP_LAUNCH = 25
_OP_START = 26

_ALU_RR_SUBOPS = {"add": 0, "sub": 1, "and": 2, "or": 3, "xor": 4, "sll": 5,
                  "srl": 6, "sra": 7, "slt": 8, "sltu": 9, "mul": 10,
                  "mulh": 11}
_ALU_RI_SUBOPS = {"addi": 0, "andi": 1, "ori": 2, "xori": 3, "slli": 4,
                  "srli": 5, "srai": 6, "slti": 7, "sltiu": 8}
_LOAD_SUBOPS = {"lw": 0, "lh": 1, "lhu": 2, "lb": 3, "lbu": 4}
_STORE_SUBOPS = {"sw": 0, "sh": 1, "sb": 2}
_BRANCH_SUBOPS = {"beq": 0, "bne": 1, "blt": 2, "bge": 3, "bltu": 4,
                  "bgeu": 5}
_FMA_KINDS = {"fmadd.d": 0, "fmsub.d": 1, "fnmadd.d": 2, "fnmsub.d": 3}
_ARITH2_KINDS = {"fadd.d": 10, "fsub.d": 11, "fmul.d": 12, "fdiv.d": 13,
                 "fmin.d": 14, "fmax.d": 15, "fsgnj.d": 16, "fsgnjn.d": 17,
                 "fsgnjx.d": 18}
_FP_FMV = 30
_FP_FABS = 31
_FP_FCVT = 40
_FP_FLD = 50
_FP_FSD = 51

_U32 = (1 << 32) - 1
_HART_SHIFT = 1 << 48


def _signed32(value: int) -> int:
    value &= _U32
    return value - 0x1_0000_0000 if value >= 0x8000_0000 else value


# ---------------------------------------------------------------------------
# Build + load (the engine side of the cross-job compile cache)
# ---------------------------------------------------------------------------

_ENGINE: Optional[tuple] = None  # (layout, lib) or (None, None) when disabled
_DISABLED_REASON: Optional[str] = None

#: C scalar types the CDEF block is written in.
_C_SCALARS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double,
              "uint8_t": ctypes.c_uint8}


class _BuildFailed(Exception):
    """No engine library could be found or compiled (message = reason)."""


def _extract_cdef(source: str) -> str:
    begin = source.index("/*CDEF-BEGIN*/") + len("/*CDEF-BEGIN*/")
    end = source.index("/*CDEF-END*/")
    return source[begin:end]


def _source_digest(source: str) -> str:
    """Compile-cache key: the C source plus the effective compiler flags."""
    return hashlib.sha256(
        (source + repr(effective_cflags())).encode()).hexdigest()[:16]


def _ctypes_layout(cdef: str) -> SimpleNamespace:
    """``ctypes`` mirrors of the structs and prototypes in a CDEF block.

    The block in ``engine.c`` is the only definition of the ABI.  Its C
    subset is small: typedef'd structs whose fields are scalars, pointers
    or fixed-size arrays, and prototypes over those types.  Returns one
    ``ctypes.Structure`` class per struct, by name, plus ``prototypes``:
    function name -> ``(restype, argtypes)``.
    """
    text = re.sub(r"/\*.*?\*/", " ", cdef, flags=re.S)
    types = dict(_C_SCALARS)
    layout = SimpleNamespace(prototypes={})

    def ctype_of(base: str, pointer: str, length: Optional[str] = None):
        ctype = types[base]
        if pointer:
            ctype = ctypes.POINTER(ctype)
        return ctype * int(length) if length else ctype

    struct = re.compile(r"typedef\s+struct\s*\{(.*?)\}\s*(\w+)\s*;", re.S)
    for body, name in struct.findall(text):
        fields = []
        for decl in filter(None, (d.strip() for d in body.split(";"))):
            base, declarators = decl.split(None, 1)
            for item in declarators.split(","):
                match = re.fullmatch(r"\s*(\*?)\s*(\w+)\s*(?:\[(\d+)\])?\s*",
                                     item)
                if match is None:
                    raise ValueError(f"unsupported CDEF field {item!r}")
                pointer, field, length = match.groups()
                fields.append((field, ctype_of(base, pointer, length)))
        types[name] = type(name, (ctypes.Structure,), {"_fields_": fields})
        setattr(layout, name, types[name])
    for ret, func, params in re.findall(r"(\w+)\s+(\w+)\s*\(([^)]*)\)\s*;",
                                        struct.sub(" ", text)):
        argtypes = []
        for param in params.split(","):
            if param.strip() not in ("", "void"):
                match = re.fullmatch(r"\s*(\w+)\s*(\*?)\s*\w*\s*", param)
                if match is None:
                    raise ValueError(f"unsupported CDEF parameter {param!r}")
                argtypes.append(ctype_of(*match.groups()))
        layout.prototypes[func] = (types[ret], argtypes)
    return layout


def _bind(so_path: Path, layout: SimpleNamespace) -> ctypes.CDLL:
    """``dlopen`` the engine and type its entry points from ``layout``."""
    lib = ctypes.CDLL(str(so_path))
    for name, (restype, argtypes) in layout.prototypes.items():
        func = getattr(lib, name)
        func.restype = restype
        func.argtypes = argtypes
    return lib


def _cache_dir() -> Path:
    explicit = os.environ.get(NATIVE_DIR_ENV_VAR, "").strip()
    if explicit:
        return Path(explicit)
    cache_root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return Path(cache_root) / "native"


def _find_compiler() -> Optional[str]:
    from shutil import which

    for cc in (os.environ.get("CC", ""), "cc", "gcc", "clang"):
        if cc and which(cc):
            return cc
    return None


def effective_cflags() -> Tuple[str, ...]:
    """Mandatory flags plus any ``REPRO_NATIVE_CFLAGS`` extras (in order)."""
    extra = os.environ.get(CFLAGS_ENV_VAR, "").strip()
    if not extra:
        return _CFLAGS
    return _CFLAGS + tuple(shlex.split(extra))


_CC_VERSION_CACHE: Dict[str, str] = {}


def _compiler_version(cc: str) -> str:
    """Raw ``cc --version`` output (best effort; never raises), run once
    per compiler and process."""
    version = _CC_VERSION_CACHE.get(cc)
    if version is None:
        try:
            proc = subprocess.run([cc, "--version"], capture_output=True,
                                  timeout=10)
            version = proc.stdout.decode(errors="replace")
        except (OSError, subprocess.SubprocessError):
            version = "unknown"
        _CC_VERSION_CACHE[cc] = version
    return version


def _compiler_identity(cc: str) -> str:
    """Short digest of the toolchain: compiler name + full version output.

    Part of the compile-cache key, so upgrading the toolchain (or switching
    ``$CC``) can never silently reuse a shared object produced by a
    different compiler — the classic stale-``.so`` footgun.
    """
    return hashlib.sha256(
        (cc + "\x00" + _compiler_version(cc)).encode()).hexdigest()[:8]


def _first_error_line(stderr: bytes) -> str:
    """The compiler's first ``error`` diagnostic (else its first line)."""
    lines = [line.strip() for line in
             stderr.decode(errors="replace").splitlines() if line.strip()]
    return next((line for line in lines if "error" in line),
                lines[0] if lines else "no diagnostics")


def _build_library(source: str, digest: str) -> Path:
    """Compile the engine into the shared cache, once per content hash.

    ``digest`` covers the C source and the effective compiler flags; the
    file name additionally carries the compiler identity, so any change to
    source, flags, or toolchain lands in a fresh ``.so``.  Without a
    compiler, any previously built library for this exact source + flags is
    accepted regardless of which toolchain produced it (bit-identical by
    construction, and better than losing the native engine entirely).
    Raises :class:`_BuildFailed` with the reason when there is no library.
    """
    pytag = f"py{sys.version_info[0]}{sys.version_info[1]}"
    candidates = [_cache_dir()]
    uid = os.getuid() if hasattr(os, "getuid") else 0
    fallback = Path(tempfile.gettempdir()) / f"repro-native-{uid}"
    if fallback not in candidates:
        candidates.append(fallback)
    cc = _find_compiler()
    if cc is None:
        for directory in candidates:
            try:
                hits = sorted(directory.glob(f"engine-{digest}-*-{pytag}.so"))
            except OSError:
                continue
            if hits:
                _OBS_COMPILE_CACHE_HITS.inc()
                return hits[0]
        raise _BuildFailed("no C compiler available")
    filename = f"engine-{digest}-{_compiler_identity(cc)}-{pytag}.so"
    for directory in candidates:
        so_path = directory / filename
        if so_path.exists():
            _OBS_COMPILE_CACHE_HITS.inc()
            return so_path
    flags = effective_cflags()
    compile_error = None  # a compiler complaint beats a directory problem
    dir_error = "no writable native cache directory"
    for directory in candidates:
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        so_path = directory / filename
        src_path = directory / f"engine-{digest}.c"
        tmp_path = directory / f"{filename}.tmp{os.getpid()}"
        try:
            src_path.write_text(source)
            with obs.phase("native.compile"):
                subprocess.run([cc, *flags, "-o", str(tmp_path),
                                str(src_path)],
                               check=True, capture_output=True, timeout=120)
            os.replace(tmp_path, so_path)
            _OBS_COMPILES.inc()
            return so_path
        except subprocess.CalledProcessError as exc:
            compile_error = compile_error or (
                f"C compiler failed: {_first_error_line(exc.stderr)}")
        except subprocess.TimeoutExpired:
            compile_error = compile_error or "C compiler timed out"
        except OSError as exc:
            dir_error = f"cannot build in {directory}: {exc}"
        try:
            tmp_path.unlink()
        except OSError:
            pass
    raise _BuildFailed(compile_error or dir_error)


#: Load-time layout handshake: each ``nat_sizeof_*`` entry point against
#: the size of the ctypes mirror of the same struct.
_SIZE_CHECKS = (("nat_sizeof_mover", "NatMover"),
                ("nat_sizeof_qitem", "NatQItem"),
                ("nat_sizeof_core", "NatCore"),
                ("nat_sizeof_cluster", "NatCluster"),
                ("nat_sizeof_dma", "NatDmaTransfer"))


def _abi_mismatch(lib: ctypes.CDLL, layout: SimpleNamespace) -> bool:
    """Whether the library's ABI version or a struct size disagrees."""
    return (lib.nat_abi() != _ABI_VERSION
            or any(getattr(lib, func)() != ctypes.sizeof(getattr(layout, name))
                   for func, name in _SIZE_CHECKS))


def _load_engine():
    """Build/load the native engine; returns (layout, lib) or (None, None)."""
    global _ENGINE, _DISABLED_REASON
    if _ENGINE is not None:
        return _ENGINE
    if os.environ.get(ENGINE_ENV_VAR, "").strip().lower() == "python":
        reason = f"{ENGINE_ENV_VAR}=python"
    else:
        try:
            source = _SOURCE_PATH.read_text()
            so_path = _build_library(source, _source_digest(source))
            layout = _ctypes_layout(_extract_cdef(source))
            lib = _bind(so_path, layout)
            if not _abi_mismatch(lib, layout):
                _DISABLED_REASON = None
                _ENGINE = (layout, lib)
                return _ENGINE
            reason = "ABI mismatch between engine.c and its ctypes layout"
        except _BuildFailed as exc:
            reason = str(exc)
        except Exception as exc:  # noqa: BLE001 - any failure => Python fallback
            warnings.warn(f"native engine disabled: {exc}", RuntimeWarning,
                          stacklevel=2)
            reason = str(exc)
    _DISABLED_REASON = reason
    _ENGINE = (None, None)
    return _ENGINE


def available() -> bool:
    """Whether the native engine is built and loadable on this machine."""
    return _load_engine()[1] is not None


_FORCED_PYTHON = 0

#: Process-wide execution counters: how many cluster runs the native engine
#: actually carried vs handed back to the Python engine (ineligible
#: configuration or forced fallback).  Lets reports state which engine *ran*
#: rather than merely which one was loadable.
run_stats = {"native": 0, "fallback": 0}

#: Registry-backed twins of ``run_stats`` plus engine-level activity, so the
#: native engine shows up on ``GET /v1/metrics`` next to queue and fabric.
_OBS_NATIVE_RUNS = obs.counter(
    "repro_native_runs_total", "Cluster runs carried by the native C engine")
_OBS_FALLBACK_RUNS = obs.counter(
    "repro_native_fallback_runs_total",
    "Cluster runs handed to the Python reference engine")
_OBS_CYCLES = obs.counter(
    "repro_native_cycles_total",
    "Cluster cycles simulated by the native engine")
_OBS_COMPILE_CACHE_HITS = obs.counter(
    "repro_native_compile_cache_hits_total",
    "Native engine loads served from the shared compile cache")
_OBS_COMPILES = obs.counter(
    "repro_native_compiles_total", "Native engine shared-library compiles")


class forced_python:
    """Context manager forcing the Python reference engine (benchmarks/tests).

    Re-entrant; affects only the current process.  Usable where setting
    ``REPRO_ENGINE=python`` before interpreter start is impractical.
    """

    def __enter__(self):
        global _FORCED_PYTHON
        _FORCED_PYTHON += 1
        return self

    def __exit__(self, *exc):
        global _FORCED_PYTHON
        _FORCED_PYTHON -= 1
        return False


def disabled_reason() -> Optional[str]:
    """Why the native engine is unavailable (``None`` when it is available)."""
    _load_engine()
    return _DISABLED_REASON


def build_info() -> Dict[str, object]:
    """One-stop diagnostics for ``repro doctor``: build + load status."""
    cc = _find_compiler()
    info: Dict[str, object] = {
        "compiler": cc,
        "compiler_version": (_compiler_version(cc).splitlines() or [""])[0]
        if cc else None,
        "cflags": list(effective_cflags()),
        "abi_version": _ABI_VERSION,
        "cache_dir": str(_cache_dir()),
        "available": available(),
        "disabled_reason": disabled_reason(),
        "watchdog_cycles": _watchdog_cycles(),
        "run_stats": dict(run_stats),
    }
    try:
        info["source_digest"] = _source_digest(_SOURCE_PATH.read_text())
    except OSError:
        info["source_digest"] = None
    return info


def python_forced() -> bool:
    """Whether the Python reference engine is currently forced.

    True under an active :class:`forced_python` context or with
    ``REPRO_ENGINE=python`` in the environment.  The sweep supervisor's
    graceful degradation and the fault injector's ``engine=native`` filter
    (:mod:`repro.sweep.faults`) both key off this.
    """
    return (_FORCED_PYTHON > 0
            or os.environ.get(ENGINE_ENV_VAR, "").strip().lower() == "python")


# ---------------------------------------------------------------------------
# Program decode (once per unique program object, shared across cores/runs)
# ---------------------------------------------------------------------------

def decode_program(program, params) -> Optional["np.ndarray"]:
    """Decode ``program`` into the C opcode table, or ``None`` if ineligible.

    The result is cached on the program object; programs are themselves
    memoized across jobs by the runner's codegen cache, so decode cost is
    paid once per unique program content per process.  The cache key covers
    every timing parameter baked into the table (FPU latencies) as well as
    the eligibility-relevant limits, so one Program reused across different
    TimingParams decodes freshly per configuration.
    """
    key = (params.frep_max_insts, params.ssr_data_movers,
           params.ssr_indirect_movers, params.fpu_latency,
           params.fpu_load_latency)
    cache = program.__dict__.get("_native_decode_cache")
    if cache is not None and cache[0] == key:
        return cache[1]
    table = _decode_uncached(program, params)
    program.__dict__["_native_decode_cache"] = (key, table)
    return table


def _decode_uncached(program, params) -> Optional["np.ndarray"]:
    import numpy as np

    from repro.isa.instruction import FP_MNEMONICS

    insts = program.instructions
    plen = len(insts)
    table = np.zeros((max(plen, 1), _NCOL), dtype=np.int64)
    fpu_latency = params.fpu_latency
    num_streams = params.ssr_data_movers
    for pc, inst in enumerate(insts):
        row = table[pc]
        m = inst.mnemonic
        rd = inst.rd if inst.rd is not None else -1
        rs1 = inst.rs1 if inst.rs1 is not None else 0
        rs2 = inst.rs2 if inst.rs2 is not None else 0
        rs3 = inst.rs3 if inst.rs3 is not None else 0
        imm = inst.imm if inst.imm is not None else 0
        imm2 = inst.imm2 if inst.imm2 is not None else 0
        target = inst.target_idx if inst.target_idx is not None else -1
        row[_C_RD] = rd
        row[_C_RS1] = rs1
        row[_C_RS2] = rs2
        row[_C_RS3] = rs3
        row[_C_IMM] = imm
        row[_C_IMM2] = imm2
        row[_C_TGT] = target

        if m in FP_MNEMONICS:
            row[_C_OP] = _OP_FP
            if m in _FMA_KINDS:
                row[_C_A0] = _FMA_KINDS[m]
                row[_C_A1] = fpu_latency
                row[_C_A2] = 2
                row[_C_A3] = 1
            elif m in _ARITH2_KINDS:
                row[_C_A0] = _ARITH2_KINDS[m]
                row[_C_A1] = fpu_latency + (8 if m == "fdiv.d" else 0)
                row[_C_A2] = inst.flops
                row[_C_A3] = int(inst.is_fp_compute)
            elif m == "fmv.d":
                row[_C_A0], row[_C_A1] = _FP_FMV, 1
            elif m == "fabs.d":
                row[_C_A0], row[_C_A1] = _FP_FABS, 1
            elif m == "fcvt.d.w":
                row[_C_A0], row[_C_A1] = _FP_FCVT, fpu_latency
            elif m == "fld":
                row[_C_A0], row[_C_A1] = _FP_FLD, params.fpu_load_latency
            elif m == "fsd":
                row[_C_A0] = _FP_FSD
            else:
                return None
        elif m == "frep.o":
            count = imm
            body = insts[pc + 1:pc + 1 + count]
            if (len(body) != count or count > params.frep_max_insts
                    or any(not b.is_fp or b.mnemonic in ("fld", "fsd")
                           for b in body)):
                return None  # Python engine raises the proper error
            row[_C_OP] = _OP_FREP
            row[_C_TGT] = pc + 1 + count
        elif m.startswith("ssr."):
            if not _decode_ssr(row, m, imm, imm2, num_streams, params):
                return None
        elif inst.is_branch:
            row[_C_OP] = _OP_BRANCH
            row[_C_A0] = _BRANCH_SUBOPS[m]
        elif m in ("j", "jal", "jalr"):
            row[_C_OP] = _OP_JUMP
            row[_C_A0] = {"j": 0, "jal": 1, "jalr": 2}[m]
        elif m in _LOAD_SUBOPS:
            row[_C_OP] = _OP_LOAD
            row[_C_A0] = _LOAD_SUBOPS[m]
        elif m in _STORE_SUBOPS:
            row[_C_OP] = _OP_STORE
            row[_C_A0] = _STORE_SUBOPS[m]
        elif m == "csrr":
            row[_C_OP] = _OP_CSRR
            row[_C_A0] = {"mhartid": 0, "mcycle": 1}.get(inst.csr, 2)
        elif m in ("div", "divu", "rem", "remu"):
            row[_C_OP] = _OP_DIV
            row[_C_A0] = int(m.startswith("div")) | (int(m.endswith("u")) << 1)
        elif m == "nop" or rd == 0:
            if m not in _ALU_RR_SUBOPS and m not in _ALU_RI_SUBOPS and \
                    m not in ("lui", "auipc", "li", "mv", "nop"):
                return None
            row[_C_OP] = _OP_RETIRE
        elif m in _ALU_RR_SUBOPS:
            row[_C_OP] = _OP_ALU_RR
            row[_C_A0] = _ALU_RR_SUBOPS[m]
        elif m in _ALU_RI_SUBOPS:
            row[_C_OP] = _OP_ALU_RI
            row[_C_A0] = _ALU_RI_SUBOPS[m]
        elif m in ("lui", "li"):
            row[_C_OP] = _OP_LI
            row[_C_IMM] = _signed32(imm << 12 if m == "lui" else imm)
        elif m == "auipc":
            row[_C_OP] = _OP_AUIPC
            row[_C_IMM] = imm << 12
        elif m == "mv":
            row[_C_OP] = _OP_MV
        else:
            return None
    return table


def _decode_ssr(row, m, imm, imm2, num_streams, params) -> bool:
    if m == "ssr.enable":
        row[_C_OP] = _OP_SSR_ENABLE
        return True
    if m == "ssr.disable":
        row[_C_OP] = _OP_SSR_DISABLE
        return True
    if m in ("ssr.cfg.repeat", "ssr.commit"):
        row[_C_OP] = _OP_RETIRE
        return True
    if m == "ssr.barrier":
        row[_C_OP] = _OP_SSR_BARRIER
        return True
    # Every remaining form addresses data mover `imm`; statically invalid
    # operands fall back to the Python engine for the authentic exception.
    if not 0 <= imm < num_streams:
        return False
    if m == "ssr.cfg.idx":
        if imm >= params.ssr_indirect_movers:
            return False
        row[_C_OP] = _OP_CFG_IDX
    elif m == "ssr.cfg.idxsize":
        if imm2 not in (2, 4):
            return False
        row[_C_OP] = _OP_CFG_IDXSIZE
    elif m == "ssr.cfg.dims":
        if not 1 <= imm2 <= 4:
            return False
        row[_C_OP] = _OP_CFG_DIMS
    elif m == "ssr.cfg.bound":
        if not 0 <= imm2 < 4:
            return False
        row[_C_OP] = _OP_CFG_BOUND
    elif m == "ssr.cfg.stride":
        if not 0 <= imm2 < 4:
            return False
        row[_C_OP] = _OP_CFG_STRIDE
    elif m == "ssr.cfg.base":
        row[_C_OP] = _OP_CFG_BASE
    elif m == "ssr.cfg.write":
        row[_C_OP] = _OP_CFG_WRITE
    elif m == "ssr.launch":
        row[_C_OP] = _OP_LAUNCH
    elif m == "ssr.start":
        row[_C_OP] = _OP_START
    else:
        return False
    return True


# ---------------------------------------------------------------------------
# Cluster eligibility + state bridging
# ---------------------------------------------------------------------------

def _dma_eligible(cluster) -> bool:
    """Whether the cluster's DMA state is reproducible by the C engine.

    Queued or in-flight DMA work is natively supported since ABI 2 (the
    countdown + bulk-copy model is ported); what the C side cannot reproduce
    is a non-standard region list or a transfer whose rows do not each
    resolve into exactly one of TCDM / main memory (the Python engine raises
    a ``DmaError`` mid-copy for those, so they fall back for the authentic
    exception).
    """
    dma = cluster.dma
    if not dma._queue and not dma._remaining_cycles:
        return True
    if dma.params is not cluster.params:
        return False
    regions = dma.regions
    if (len(regions) != 2 or regions[0] is not cluster.tcdm
            or regions[1] is not cluster.main_memory):
        return False
    if dma.params.dma_bus_bytes < 1:
        return False
    for transfer in dma._queue:
        for plane in range(transfer.plane_reps):
            for row in range(transfer.outer_reps):
                src = (transfer.src + plane * transfer.src_plane_stride
                       + row * transfer.src_stride)
                dst = (transfer.dst + plane * transfer.dst_plane_stride
                       + row * transfer.dst_stride)
                for addr in (src, dst):
                    if not (cluster.tcdm.contains(addr, transfer.inner_bytes)
                            or cluster.main_memory.contains(
                                addr, transfer.inner_bytes)):
                        return False
    return True


#: The engine keeps every integer in an ``int64_t``.  ctypes stores a wider
#: Python int into such a field modulo 2**64, without an error, and the
#: engine adds latencies to cycle counts, so a run stays native only while
#: no packed value or sum can overflow: every integer timing parameter (an
#: RV32 address or size, a latency) within +-2**32, the start cycle, cycle
#: budget and watchdog within +-2**62.  Larger values run on the Python
#: engine, whose ints do not overflow.
_PARAM_LIMIT = 1 << 32
_CYCLE_LIMIT = 1 << 62


def _cluster_eligible(cluster, max_cycles: int, watchdog: int) -> bool:
    params = cluster.params
    programs = cluster._programs
    if not programs or len(programs) > 64:
        return False
    if not all(-_CYCLE_LIMIT <= cycles < _CYCLE_LIMIT
               for cycles in (cluster.cycle, max_cycles, watchdog)):
        return False
    if not all(-_PARAM_LIMIT <= value < _PARAM_LIMIT
               for value in vars(params).values() if isinstance(value, int)):
        return False
    # The engine maps an address to its bank with a shift and a mask.
    banks, width = params.tcdm_banks, params.tcdm_bank_width
    if not (0 < banks <= 64 and banks & (banks - 1) == 0
            and width > 0 and width & (width - 1) == 0):
        return False
    if not 1 <= params.ssr_fifo_depth <= 63:
        return False
    if not 1 <= params.offload_queue_depth <= 63:
        return False
    if not 1 <= params.ssr_data_movers <= 4:
        return False
    if params.icache_line_insts < 1:
        return False
    if not _dma_eligible(cluster):
        return False
    if not isinstance(cluster.tcdm._data, bytearray):
        return False
    # No LRU evictions possible => the no-eviction residency memo is exact
    # (same precondition the Python fast path computes).
    line_insts = params.icache_line_insts
    lines = cluster.icache._lines
    needed = sum((len(program) + line_insts - 1) // line_insts
                 for program in programs)
    if len(lines) + needed > params.icache_lines:
        return False
    cores = cluster._cores
    if cores is None:
        # Never-built cores are fresh: nothing in flight to check.
        return all(decode_program(program, params) is not None
                   for program in programs)
    for core in cores:
        fpu = core.fpu
        if fpu._current is not None or fpu._queue:
            return False
        if len(core.ssr.movers) != params.ssr_data_movers:
            return False
        for mover in core.ssr.movers:
            if (mover._fifo or mover._idx_queue or mover._remaining
                    or mover._affine_remaining):
                return False
        if decode_program(core.program, params) is None:
            return False
    return True


def _watchdog_cycles(explicit: Optional[int] = None) -> int:
    """Resolve the hard cycle ceiling (explicit arg beats env; 0 = off)."""
    if explicit is not None:
        return max(int(explicit), 0)
    raw = os.environ.get(WATCHDOG_ENV_VAR, "").strip()
    if not raw:
        return 0
    try:
        return max(int(raw), 0)
    except ValueError:
        return 0


def corruption_active() -> bool:
    """Whether the mutation self-test hook (``REPRO_NATIVE_CORRUPT``) is on."""
    return bool(os.environ.get(CORRUPT_ENV_VAR, "").strip())


class corrupted:
    """Context manager enabling the mutation self-test hook in-process.

    Equivalent to setting ``REPRO_NATIVE_CORRUPT=1`` for the dynamic extent
    of the block: every successful native run afterwards perturbs core 0's
    retired-instruction counter by one, which the differential fuzz harness
    must detect as a divergence and shrink.
    """

    def __enter__(self):
        self._prev = os.environ.get(CORRUPT_ENV_VAR)
        os.environ[CORRUPT_ENV_VAR] = "1"
        return self

    def __exit__(self, *exc):
        if self._prev is None:
            os.environ.pop(CORRUPT_ENV_VAR, None)
        else:
            os.environ[CORRUPT_ENV_VAR] = self._prev
        return False


def execute(cluster, max_cycles: int, wait_for_dma: bool = True,
            watchdog: Optional[int] = None) -> Optional[int]:
    """Run ``cluster`` natively; returns the final cycle or ``None``.

    ``None`` means the configuration is not native-eligible and the caller
    must use the Python engine.  Otherwise the run sets
    ``cluster.engine = "native"``, and afterwards (on success and on the
    ``max_cycles``, ``mem_range`` and ``ssr_misuse`` faults) the cluster's
    memories, icache, DMA engine and statistics are exactly as the Python
    engine would have left them, and so is ``cluster.cores``.  Cores that
    were built before the run are updated in place.  Cores that were never
    built are packed from a fresh-core template and stay in the engine's
    records: ``cluster.cores`` builds them from those on first access, and
    the cluster reads its per-core statistics straight from the records.
    The caller still settles ``tcdm.cycles`` and ``cluster.cycle`` from the
    returned value (mirroring the Python path).

    ``watchdog`` (or ``REPRO_NATIVE_WATCHDOG``) sets a hard cycle ceiling
    independent of ``max_cycles``; exceeding it raises
    :class:`NativeEngineError` with the ``watchdog`` code.
    """
    if _FORCED_PYTHON:
        run_stats["fallback"] += 1
        _OBS_FALLBACK_RUNS.inc()
        return None
    layout, lib = _load_engine()
    watchdog = _watchdog_cycles(watchdog)
    # None: never built, so fresh.  Cores still in an earlier native run's
    # records are built first, so this run packs their state.
    cores = (cluster.cores if cluster._native_records is not None
             else cluster._cores)
    if lib is None or not _cluster_eligible(cluster, max_cycles, watchdog):
        run_stats["fallback"] += 1
        _OBS_FALLBACK_RUNS.inc()
        return None
    run_stats["native"] += 1
    _OBS_NATIVE_RUNS.inc()
    cluster.engine = "native"

    params = cluster.params
    programs = cluster._programs
    num_cores = len(programs)
    line_insts = params.icache_line_insts

    # Buffers assigned to pointer fields stay referenced by the structs
    # (ctypes keeps them in ``_objects``) for as long as ``cl`` lives.
    cl = layout.NatCluster()

    cl.magic = _MAGIC
    cl.abi = _ABI_VERSION
    cl.watchdog = watchdog
    cl.num_cores = num_cores
    cl.num_banks = params.tcdm_banks
    cl.bank_width = params.tcdm_bank_width
    cl.tcdm_base = cluster.tcdm.base
    cl.tcdm_size = cluster.tcdm.size
    cl.line_insts = line_insts
    cl.miss_penalty = params.icache_miss_penalty
    cl.branch_penalty = params.branch_taken_penalty
    cl.fpu_latency = params.fpu_latency
    cl.fpu_load_latency = params.fpu_load_latency
    cl.offload_depth = params.offload_queue_depth
    cl.frep_max = params.frep_max_insts
    cl.num_streams = params.ssr_data_movers
    cl.fifo_depth = params.ssr_fifo_depth
    cl.div_latency = params.div_latency
    cl.start_cycle = cluster.cycle
    cl.max_cycles = max_cycles
    cl.tcdm = _bytes_view(cluster.tcdm._data)

    # Cluster DMA engine: ship the queued transfer descriptors and the busy
    # countdown; the C loop runs the same countdown + bulk-copy model.
    dma = cluster.dma
    queued = list(dma._queue)
    cl.wait_for_dma = bool(wait_for_dma)
    cl.dma_bus_bytes = params.dma_bus_bytes
    cl.dma_row_setup = params.dma_row_setup_cycles
    cl.dma_transfer_setup = params.dma_transfer_setup_cycles
    cl.dma_remaining = dma._remaining_cycles
    cl.dma_bytes_moved = dma.bytes_moved
    cl.dma_busy_cycles = dma.busy_cycles
    cl.dma_completed = dma.transfers_completed
    cl.dma_queue_len = len(queued)
    cl.dma_queue_pos = 0
    if queued:
        dma_descs = (layout.NatDmaTransfer * len(queued))()
        for desc, transfer in zip(dma_descs, queued):
            desc.src = transfer.src
            desc.dst = transfer.dst
            desc.inner_bytes = transfer.inner_bytes
            desc.outer_reps = transfer.outer_reps
            desc.src_stride = transfer.src_stride
            desc.dst_stride = transfer.dst_stride
            desc.plane_reps = transfer.plane_reps
            desc.src_plane_stride = transfer.src_plane_stride
            desc.dst_plane_stride = transfer.dst_plane_stride
        cl.dma_queue = dma_descs
        # Copies may target main memory: materialize the lazy backing store
        # and share it with the C engine by reference.
        cl.main_mem = _bytes_view(cluster.main_memory._data)
        cl.main_base = cluster.main_memory.base
        cl.main_size = cluster.main_memory.size

    cl.icache_hits = cluster.icache.hits
    cl.icache_misses = cluster.icache.misses
    cl.tcdm_total = cluster.tcdm.total_requests
    cl.tcdm_granted = cluster.tcdm.granted_requests
    cl.tcdm_conflicts = cluster.tcdm.conflicts

    miss_cap = sum((len(program) + line_insts - 1) // line_insts
                   for program in programs) + 8
    miss_log = (ctypes.c_int64 * miss_cap)()
    cl.miss_log = miss_log
    cl.miss_log_cap = miss_cap
    cl.miss_log_len = 0

    lines = cluster.icache._lines
    if cores is None:
        ccores, residents = _pack_fresh(layout, cluster, line_insts, lines)
    else:
        ccores = (layout.NatCore * num_cores)()
        residents = [_pack_core(co, core, line_insts, lines)
                     for co, core in zip(ccores, cores)]
    cl.cores = ccores

    with obs.phase("simulate.native"):
        rc = lib.nat_run(cl)
    final_cycle = cl.cycle

    # Write every piece of architectural and statistical state back, so the
    # cluster is indistinguishable from a Python-engine run.  Never-built
    # cores keep theirs in the records until ``cluster.cores`` is read.
    if cores is None:
        cluster._native_records = (ccores, residents)
    else:
        unpack_cores((ccores, residents), cores)
    cluster.icache.hits = cl.icache_hits
    cluster.icache.misses = cl.icache_misses
    for line in miss_log[:cl.miss_log_len]:
        lines[line] = True
    cluster.tcdm.total_requests = cl.tcdm_total
    cluster.tcdm.granted_requests = cl.tcdm_granted
    cluster.tcdm.conflicts = cl.tcdm_conflicts
    for _ in range(cl.dma_queue_pos):
        dma._queue.popleft()
    dma._remaining_cycles = cl.dma_remaining
    dma.bytes_moved = cl.dma_bytes_moved
    dma.busy_cycles = cl.dma_busy_cycles
    dma.transfers_completed = cl.dma_completed

    if rc == 0:
        _OBS_CYCLES.inc(max(0, final_cycle - cl.start_cycle))
        if corruption_active():
            # Mutation self-test: a one-bit lie in the architectural state,
            # exactly what a real native-engine bug would look like.  The
            # fuzz harness must flag and shrink it.  Reading
            # ``cluster.cores`` builds them, so the result is collected
            # from the cores.
            cluster.cores[0].int_retired += 1
        return final_cycle
    # Error paths.  For faults with a Python-engine counterpart (plus the
    # watchdog, which fires mid-run with a meaningful cycle count) settle
    # the cycle counters exactly as the Python engine does before raising.
    # Handshake/decode faults abort before the run loop starts; their
    # cl.cycle is not meaningful, so the cluster is left untouched.
    if rc in (_ERR_MAX_CYCLES, _ERR_MEM_RANGE, _ERR_SSR_MISUSE,
              _ERR_WATCHDOG):
        cluster.tcdm.cycles += final_cycle - cluster.cycle
        cluster.cycle = final_cycle
    if rc == _ERR_MAX_CYCLES:
        from repro.snitch.cluster import ClusterError

        raise ClusterError(
            f"simulation exceeded {max_cycles} cycles; "
            "the program is probably deadlocked"
        )
    if rc == _ERR_MEM_RANGE:
        from repro.snitch.main_memory import MemoryError_

        raise MemoryError_(
            f"tcdm: native-engine access at 0x{cl.err_addr:08x} out of "
            f"range [0x{cluster.tcdm.base:08x}, "
            f"0x{cluster.tcdm.base + cluster.tcdm.size:08x})"
        )
    if rc == _ERR_SSR_MISUSE:
        from repro.snitch.ssr import SsrConfigError

        raise SsrConfigError("data mover configured or used inconsistently "
                             "(native engine)")
    # Guard-level faults: structured error the supervisor can route.
    raise NativeEngineError(rc, ERROR_NAMES.get(rc, "unknown"),
                            hart=cl.err_hart, pc=cl.err_pc, addr=cl.err_addr)


def _copy_counters(target, source, names) -> None:
    """Copy the counters ``names`` between a record and a counter object."""
    for name in names:
        setattr(target, name, getattr(source, name))


def _bytes_view(buffer) -> ctypes.Array:
    """A ``uint8_t`` array sharing ``buffer``'s memory (no copy)."""
    return (ctypes.c_uint8 * len(buffer)).from_buffer(buffer)


def _pack_core(co, core, line_insts: int, lines) -> bytearray:
    """Fill one NatCore record from a SnitchCore; returns the residency
    buffer the engine updates in place."""
    # Imported on use, here and below, so that loading the engine alone
    # does not import the result types.
    from repro.snitch.trace import FPU_COUNTERS, STALL_COUNTERS

    co.pc = core.pc
    co.stall_until = core._stall_until
    co.finished = core.finished
    co.int_retired = core.int_retired
    _copy_counters(co, core.stalls, STALL_COUNTERS)
    _copy_counters(co, core.fpu.stats, FPU_COUNTERS)
    co.iregs[:] = core.int_regs._regs
    co.fregs[:] = core.fp_regs._regs
    co.scoreboard[:] = core.fpu._scoreboard
    co.cur.kind = -1
    co.ssr_enabled = core.ssr.enabled
    co.any_active = core.ssr._any_active
    # Queue, FIFO and in-flight counters start at zero: eligibility
    # guarantees empty offload queues, stream FIFOs and index queues.
    for cm, mover in zip(co.movers, core.ssr.movers):
        cfg = mover.cfg
        cm.cfg_write = cfg.write
        cm.cfg_indirect = cfg.indirect
        cm.idx_base = cfg.idx_base
        cm.idx_count = cfg.idx_count
        cm.idx_size = cfg.idx_size
        cm.dims = cfg.dims
        cm.bounds[:] = cfg.bounds
        cm.strides[:] = cfg.strides
        cm.base = cfg.base
        cm.indirect_capable = mover.indirect_capable
        cm.launch_base = mover._launch_base
        cm.idx_pos = mover._idx_pos
        cm.affine_active = mover._affine_active
        cm.seq_pos = mover._seq_pos
        cm.active = mover._active
        cm.cum_data = mover._cum_data
        cm.cum_idx = mover._cum_idx
        cm.word_i = mover._word_i
        cm.denied_data = mover._denied_data
        cm.denied_idx = mover._denied_idx

    resident = bytearray(core._resident) or bytearray(1)
    _attach_program(co, core.hart_id, core.program, core.params, resident,
                    line_insts, lines)
    return resident


def _attach_program(co, hart_id: int, program, params, resident: bytearray,
                    line_insts: int, lines) -> None:
    """Set the five record fields that depend on the hart and its program
    rather than on core state: ``plen``, ``hart_id``, the decoded program,
    the per-pc residency memo and the per-line icache presence."""
    plen = len(program)
    co.plen = plen
    co.hart_id = hart_id
    table = decode_program(program, params)
    co.prog = (ctypes.c_int64 * table.size).from_buffer(table)
    co.resident = _bytes_view(resident)
    nlines = max((plen + line_insts - 1) // line_insts, 1)
    base_key = hart_id * _HART_SHIFT
    co.line_present = _bytes_view(bytearray(
        base_key + line in lines for line in range(nlines)))


#: One fresh core's record per timing-parameter set, as bytes, with its
#: pointer fields cleared.
_TEMPLATES: Dict[tuple, bytes] = {}
_TEMPLATE_LIMIT = 64


def _fresh_template(layout, cluster) -> bytes:
    """The record :func:`_pack_core` makes from a fresh core on ``cluster``.

    Made once per timing-parameter set: a fresh core's state depends on
    the parameters (mover count and capabilities, index size) and not on
    its program, except for the fields :func:`_attach_program` sets.
    """
    params = cluster.params
    key = tuple(vars(params).values())
    template = _TEMPLATES.get(key)
    if template is None:
        from repro.snitch.core import SnitchCore

        co = layout.NatCore()
        _pack_core(co, SnitchCore(0, cluster._programs[0], cluster.tcdm,
                                  cluster.icache, params),
                   params.icache_line_insts, ())
        co.prog = co.resident = co.line_present = None
        template = bytes(co)
        if len(_TEMPLATES) >= _TEMPLATE_LIMIT:
            _TEMPLATES.clear()
        _TEMPLATES[key] = template
    return template


def _pack_fresh(layout, cluster, line_insts: int, lines):
    """Records for cores that were never built, and their residency
    buffers: one copy of the fresh-core template per program, with the
    fields :func:`_attach_program` sets filled in."""
    programs = cluster._programs
    template = _fresh_template(layout, cluster)
    ccores = (layout.NatCore * len(programs)).from_buffer_copy(
        template * len(programs))
    residents = []
    for hart_id, (co, program) in enumerate(zip(ccores, programs)):
        resident = bytearray(len(program)) or bytearray(1)
        _attach_program(co, hart_id, program, cluster.params, resident,
                        line_insts, lines)
        residents.append(resident)
    return ccores, residents


def unpack_cores(records, cores) -> None:
    """Write a native run's ``(records, residency buffers)`` into ``cores``."""
    ccores, residents = records
    for co, core, resident in zip(ccores, cores, residents):
        _unpack_core(co, core, resident)


def core_stats(records, start_cycle: int, end_cycle: int) -> list:
    """Per-core statistics of a native run, read from its records; equal to
    what ``SnitchCluster`` collects from cores after a Python-engine run."""
    from repro.snitch.trace import CoreStats

    return [CoreStats.collect(
        co.hart_id,
        (co.finish_cycle if co.finished else end_cycle) - start_cycle,
        co.int_retired, co, co) for co in records[0]]


def _unpack_core(co, core, resident: bytearray) -> None:
    from repro.snitch.trace import FPU_COUNTERS, STALL_COUNTERS

    core.pc = co.pc
    core._stall_until = co.stall_until
    if co.finished and not core.finished:
        # Finished in this run; a negative start cycle can finish below 0.
        core.finish_cycle = co.finish_cycle
    core.finished = bool(co.finished)
    core.int_retired = co.int_retired
    _copy_counters(core.stalls, co, STALL_COUNTERS)
    core.int_regs._regs = co.iregs[:]
    core.fp_regs._regs = co.fregs[:]
    fpu = core.fpu
    fpu._scoreboard = co.scoreboard[:]
    _copy_counters(fpu.stats, co, FPU_COUNTERS)
    fpu._flushed_mem = co.issued_mem
    _unpack_fpu_queue(co, core)
    ssr = core.ssr
    ssr.enabled = bool(co.ssr_enabled)
    ssr._any_active = bool(co.any_active)
    for cm, mover in zip(co.movers, ssr.movers):
        cfg = mover.cfg
        cfg.write = bool(cm.cfg_write)
        cfg.indirect = bool(cm.cfg_indirect)
        cfg.idx_base = cm.idx_base
        cfg.idx_count = cm.idx_count
        cfg.idx_size = cm.idx_size
        cfg.dims = cm.dims
        cfg.bounds = cm.bounds[:]
        cfg.strides = cm.strides[:]
        cfg.base = cm.base
        mover._launch_base = cm.launch_base
        mover._remaining = cm.remaining
        mover._idx_pos = cm.idx_pos
        mover._affine_active = bool(cm.affine_active)
        mover._affine_remaining = cm.affine_remaining
        mover._seq_pos = cm.seq_pos
        mover._active = bool(cm.active)
        mover._cum_data = cm.cum_data
        mover._cum_idx = cm.cum_idx
        mover._word_i = cm.word_i
        mover._denied_data = cm.denied_data
        mover._denied_idx = cm.denied_idx
        fifo, head = cm.fifo, cm.fifo_head
        mover._fifo = deque(fifo[(head + i) & 63]
                            for i in range(cm.fifo_len))
        idxq_addr, idxq_bank, head = cm.idxq_addr, cm.idxq_bank, cm.idxq_head
        mover._idx_queue = deque(
            (idxq_addr[(head + i) & 7], idxq_bank[(head + i) & 7])
            for i in range(cm.idxq_len))
        mover._flushed_granted = (mover._granted_data + mover._granted_idx)
        # Rebuild the Python engine's precomputed sequences for any stream
        # still in flight, so a later Python-engine continuation (or direct
        # mover use in tests) picks up exactly where the native run stopped.
        if mover._affine_remaining > 0:
            mover._build_affine_seq()
        if mover._remaining > 0:
            mover._build_index_schedule()
    # The FPU re-resolves stream FIFOs by reference; replacing the deques
    # above would break that, so re-point the cached tuple.
    fpu._fifos = tuple(m._fifo for m in ssr.movers)
    core._resident = list(map(bool, resident[:core._plen]))


def _unpack_fpu_queue(co, core) -> None:
    """Rebuild in-flight offload-queue state (only present on error paths)."""
    from repro.snitch.fpu import FrepBlock

    fpu = core.fpu
    fpu._queue.clear()
    fpu._current = None
    fpu._block_inst_idx = 0
    fpu._block_rep_idx = 0
    items = [co.q[(co.q_head + i) & 63] for i in range(co.q_len)]
    current = co.cur if co.cur.kind >= 0 else None
    rebuilt = []
    for item in ([current] if current is not None else []) + items:
        if item.kind == 1:
            body = core.program.instructions[item.a:item.a + item.b]
            block = FrepBlock.__new__(FrepBlock)
            block.instructions = list(body)
            block.reps = int(item.c)
            block._plan = [fpu._dcache.get(id(inst)) or fpu._decode(inst)
                           for inst in body]
            block._plan_len = len(block._plan)
            rebuilt.append(block)
        else:
            inst = core.program.instructions[item.a]
            decoded = fpu._dcache.get(id(inst)) or fpu._decode(inst)
            address = int(item.b)
            if inst.mnemonic not in ("fld", "fsd", "fcvt.d.w"):
                address = None
            rebuilt.append((inst, address, decoded))
    if current is not None and rebuilt:
        fpu._current = rebuilt[0]
        fpu._block_inst_idx = int(co.blk_inst)
        fpu._block_rep_idx = int(co.blk_rep)
        rebuilt = rebuilt[1:]
    fpu._queue.extend(rebuilt)
