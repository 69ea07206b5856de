"""Cross-job compile cache: compiled program artifacts persisted on disk.

Code generation — layout, lowering, scheduling, register allocation and
assembly — dominates the cold cost of a sweep now that simulation runs on
the native engine, and its output depends only on the *request* (kernel
content, variant backend source, tile shape, timing parameters, lane
arrangement, codegen kwargs) plus the codegen sources themselves.  This
module therefore persists each ``(TileLayout, [GeneratedProgram, ...])``
compilation result as a pickle keyed by a content hash of exactly those
inputs, under ``$REPRO_CACHE_DIR/codegen/<sources-fingerprint>/`` (default
``.repro_cache/codegen/``), so the cost is paid once per unique program
across variants, machines, sweep jobs, worker processes and interpreter
restarts.

Invalidation is automatic on three axes:

* the in-package codegen/ISA sources (directory fingerprint in the path),
* the registered kernel's *content* (its fingerprint is part of the key,
  so re-registering a plug-in stencil under the same name misses cleanly),
* the variant backend's *source* (hashed via
  :func:`repro.fingerprint.callable_fingerprint`, so editing an out-of-tree
  generator can never be served stale programs).

Set ``REPRO_CODEGEN_CACHE=0`` to disable persistence (the in-memory
memoization in :mod:`repro.runner` still applies).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import re
import threading
from pathlib import Path
from typing import Optional, Tuple

from repro.fingerprint import source_fingerprint

#: Environment variable disabling the on-disk layer ("0", "off", "no").
CODEGEN_CACHE_ENV_VAR = "REPRO_CODEGEN_CACHE"

#: Bumped on semantic changes to the pickle payload layout.
CACHE_FORMAT_VERSION = 1

#: Package sources whose content determines every generated program.
_CODEGEN_SOURCES = ("core", "isa")


def codegen_fingerprint() -> str:
    """Fingerprint of the in-package sources feeding code generation."""
    return source_fingerprint(_CODEGEN_SOURCES)


def cache_enabled() -> bool:
    """Whether the persistent layer is active (see ``REPRO_CODEGEN_CACHE``)."""
    flag = os.environ.get(CODEGEN_CACHE_ENV_VAR, "").strip().lower()
    return flag not in ("0", "off", "no", "false")


def cache_dir() -> Path:
    """Directory holding entries for the current codegen source state."""
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return Path(root) / "codegen" / codegen_fingerprint()


def key_hash(key_parts: Tuple) -> str:
    """Stable hex digest of a canonical-repr key tuple.

    Keys are built from plain data (strings, ints, tuples, fingerprint
    digests), whose ``repr`` is deterministic across processes and
    ``PYTHONHASHSEED`` values.
    """
    return hashlib.sha256(repr(key_parts).encode("utf-8")).hexdigest()[:20]


def _entry_path(label: str, digest: str) -> Path:
    # Labels embed registry names, which plug-ins may choose freely;
    # sanitize so a name with path separators cannot escape the
    # fingerprinted cache namespace (identity lives in the digest anyway).
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", label)
    return cache_dir() / f"{safe}-{digest}.pkl"


def load(label: str, key_parts: Tuple):
    """Return the cached compilation result for ``key_parts`` or ``None``.

    The full key is stored in the payload and compared on load, so hash
    collisions and corrupt files degrade to a miss, never to wrong code.
    """
    if not cache_enabled():
        return None
    digest = key_hash(key_parts)
    try:
        with open(_entry_path(label, digest), "rb") as fh:
            payload = pickle.load(fh)
    except Exception:  # noqa: BLE001 - any unreadable entry is just a miss
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("format") != CACHE_FORMAT_VERSION:
        return None
    if payload.get("key") != key_parts:
        return None
    return payload.get("value")


_save_counter = itertools.count()


def save(label: str, key_parts: Tuple, value) -> Optional[Path]:
    """Persist a compilation result (atomic rename; failures are silent)."""
    if not cache_enabled():
        return None
    digest = key_hash(key_parts)
    path = _entry_path(label, digest)
    payload = {"format": CACHE_FORMAT_VERSION, "key": key_parts,
               "value": value}
    # Unique per process, thread and call: two threads compiling the same
    # program must never write one temp file that the other publishes.
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}-"
                         f"{threading.get_ident()}-{next(_save_counter)}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except Exception:  # noqa: BLE001 - persistence must never break a run
        # e.g. plug-in payloads that do not pickle (TypeError), disk errors
        try:
            tmp.unlink()
        except OSError:
            pass
        return None
    return path
