"""Persistent on-disk result store: one JSON file per finished sweep job.

Results are keyed by the job's content hash *and* an engine stamp, stored
under a per-stamp subdirectory of the cache root (default ``.repro_cache/``,
overridable via the ``REPRO_CACHE_DIR`` environment variable).  The stamp
combines :data:`ENGINE_VERSION` (bumped on semantic changes) with an
automatic content fingerprint of the simulator sources, so warm re-runs of
the whole paper are near-instant yet an edit to the timing model, code
generators or metric assembly can never be served stale results — even if
nobody remembers to bump the version.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import shutil
import threading
import time
from pathlib import Path
from typing import Optional, Union

try:  # POSIX advisory locking; absent on some platforms (best-effort there).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from repro import obs
from repro.fingerprint import source_fingerprint
from repro.result import KernelRunResult
from repro.sweep.job import SweepJob

#: Version stamp of the simulation engine, for *semantic* invalidation (e.g.
#: a metric gains a new meaning without any simulator source changing).
#: Source-level changes are caught automatically by
#: :func:`engine_fingerprint`.  History: 1 = PR 1 fast engine; 2 =
#: sweep-engine PR (activity counters); 3 = machine-aware job specs
#: (experiment API PR); 4 = native symmetry-folded engine + compile cache.
ENGINE_VERSION = 4

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Packages/modules whose source content determines every stored metric.
#: ``snitch`` includes the native engine's C source (see
#: :mod:`repro.fingerprint`, which sweeps ``.py`` and ``.c`` files).
_METRIC_SOURCES = ("runner.py", "result.py", "machine.py", "core", "isa",
                   "snitch")

#: Stale in-flight temp files (``*.json.tmp<pid>``) older than this many
#: seconds are swept at store construction — they can only be left behind by
#: a writer that died mid-save, and a live writer finishes its rename in
#: milliseconds.
_TMP_STALE_SECONDS = 60.0

#: Compact JSON through the C encoder (an ``indent`` forces the pure-Python
#: one); sorted keys keep entries byte-stable.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_result(result: KernelRunResult) -> str:
    """``result`` as the compact, key-sorted JSON text a store entry holds."""
    return _JSON.encode(result.to_json_dict())


#: Process-wide store metrics (all stores in the process share them, which
#: matches the operational question: "is this *process* hitting its cache?").
_OBS_HITS = obs.counter("repro_store_hits_total",
                        "Result-store loads served from disk")
_OBS_MISSES = obs.counter("repro_store_misses_total",
                          "Result-store loads that missed")
_OBS_QUARANTINED = obs.counter("repro_store_quarantined_total",
                               "Corrupt result-store entries set aside")
_OBS_UNCHANGED = obs.counter("repro_store_unchanged_total",
                             "Result-store saves that found the entry "
                             "already holding the same bytes")


def engine_fingerprint() -> str:
    """Content hash of the simulator sources backing the stored metrics.

    Hashes the timing model, ISA, code generators, the runner and the native
    engine (Python and C sources alike), so any edit silently lands every
    cache entry in a fresh directory — no manual version bump required.
    """
    return source_fingerprint(_METRIC_SOURCES)


class ResultStore:
    """Content-addressed JSON store for :class:`SweepJob` results."""

    def __init__(self, root: Union[str, Path, None] = None,
                 engine_version: Optional[int] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.engine_version = (ENGINE_VERSION if engine_version is None
                               else int(engine_version))
        #: Corrupt entries set aside by :meth:`load` over this store's
        #: lifetime (each renamed once to ``<name>.json.corrupt``).
        self.quarantined = 0
        #: Load outcomes over this store's lifetime, and saves that found
        #: the entry already holding their bytes (also mirrored into the
        #: process-wide ``repro_store_*`` metrics).
        self.hits = 0
        self.misses = 0
        self.unchanged = 0
        #: Monotonic discriminator for temp-file names: with thread pools a
        #: thread id can be reused the moment a thread exits, so pid+tid
        #: alone is not collision-proof across a store's lifetime.
        self._save_counter = itertools.count()
        self._sweep_stale_tmp_files()

    def _sweep_stale_tmp_files(self) -> None:
        """Remove orphaned ``*.tmp<pid>`` files from writers that died.

        Saves write through a temp file and atomically rename; a process
        killed between the two leaves the temp file behind forever.  Only
        files comfortably older than any in-flight write are touched, so a
        concurrent live writer is never raced.
        """
        cutoff = time.time() - _TMP_STALE_SECONDS
        try:
            stale = [path for path in self.root.glob("v*/*.json.tmp*")
                     if path.stat().st_mtime < cutoff]
        except OSError:
            return
        for path in stale:
            try:
                path.unlink()
            except OSError:
                pass

    @property
    def version_dir(self) -> Path:
        """Directory holding entries for this engine version + source state."""
        return self.root / f"v{self.engine_version}-{engine_fingerprint()}"

    def path_for(self, job: SweepJob) -> Path:
        """File path of the cache entry for ``job``.

        The canonical machine's name is part of the file name (sanitized —
        custom specs may use arbitrary names) so entries for different
        machines are human-browsable; the content hash covers the machine
        *parameters*.  Jobs whose machine parameters equal the default carry
        no infix at all, so explicit-default and machine-unset jobs share
        one entry.  (Two differently-named clones of the same *non-default*
        configuration hash identically but file separately — they dedupe
        within a sweep, at worst re-executing once across sweeps.)
        """
        name = f"{job.kernel}-{job.variant}"
        machine = job.canonical_machine()
        if machine is not None:
            safe = re.sub(r"[^A-Za-z0-9._-]+", "_", machine.name)
            name += f"-{safe}"
        return self.version_dir / f"{name}-{job.content_hash()}.json"

    def load(self, job: SweepJob) -> Optional[KernelRunResult]:
        """Return the stored result for ``job``, or ``None`` on a miss.

        A hit requires the engine version *and* the full job spec recorded in
        the file to match, so hash collisions or hand-edited files degrade to
        a miss instead of serving wrong metrics.

        A file that exists but does not parse as a JSON object (truncated by
        a crash mid-write on a non-atomic filesystem, disk corruption, hand
        editing gone wrong) is *quarantined*: renamed once to
        ``<name>.json.corrupt`` for post-mortem inspection and counted in
        :attr:`quarantined`, so the sweep re-executes the job instead of
        failing on the same bad bytes forever.
        """
        path = self.path_for(job)
        try:
            payload = json.loads(path.read_bytes())
        except FileNotFoundError:
            return self._miss()
        except (OSError, ValueError):
            self._quarantine(path)
            return self._miss()
        if not isinstance(payload, dict):
            self._quarantine(path)
            return self._miss()
        if payload.get("engine_version") != self.engine_version:
            return self._miss()
        if payload.get("job") != job.spec():
            return self._miss()
        try:
            result = KernelRunResult.from_json_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return self._miss()
        self.hits += 1
        _OBS_HITS.inc()
        return result

    def _miss(self) -> None:
        self.misses += 1
        _OBS_MISSES.inc()
        return None

    def _quarantine(self, path: Path) -> None:
        """Set a corrupt entry aside as ``<name>.corrupt`` (best effort)."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            return
        self.quarantined += 1
        _OBS_QUARANTINED.inc()

    def save(self, job: SweepJob, result: KernelRunResult,
             text: Optional[str] = None) -> Path:
        """Persist ``result`` for ``job`` (atomic rename, no partial files).

        ``text`` is the result's :func:`encode_result`, for a caller that
        keeps it too: the result is then not encoded again.

        An entry that already holds exactly these bytes is left alone and
        counted in :attr:`unchanged`: a fabric worker that shares the
        coordinator's root has written it already, and reading it back
        costs far less than creating a file.  A missing, different or
        corrupt entry is written.

        The temp file is removed even when serialization or the rename
        fails, so an aborted save cannot leak ``*.tmp<pid>`` litter into the
        cache (a writer killed outright is covered by the stale-file sweep
        at construction instead).

        Safe under concurrent writers: the temp file name is unique per
        process *and thread* (plus a monotonic counter, so even one thread
        re-entering for the same key never reuses a live temp path), and the
        final publish is a single atomic rename — two daemon workers
        materializing the same entry race to a well-formed last-writer-wins
        file, never to interleaved partial JSON.  Where the platform offers
        ``flock`` the rename is additionally serialized through a per-store
        advisory lock file, which makes the write-then-rename window
        observable as strictly ordered for tooling that also takes the lock.
        """
        path = self.path_for(job)
        if text is None:
            text = encode_result(result)
        # The text of a key-sorted dict of these three keys, spelled out so
        # the result's own text goes in as it is.
        data = (f'{{"engine_version":{_JSON.encode(self.engine_version)},'
                f'"job":{_JSON.encode(job.spec())},"result":{text}}}\n'
                ).encode()
        try:
            if path.read_bytes() == data:
                self.unchanged += 1
                _OBS_UNCHANGED.inc()
                return path
        except OSError:
            pass  # no entry yet (or unreadable): write it
        tmp = path.with_name(
            f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}"
            f"-{next(self._save_counter)}")
        try:
            try:
                tmp.write_bytes(data)
            except FileNotFoundError:
                # First save into this version directory, or it was
                # removed meanwhile (clear()): create it, then retry.
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_bytes(data)
            with self._advisory_lock():
                os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        return path

    @contextlib.contextmanager
    def _advisory_lock(self):
        """Advisory inter-process lock around entry publication.

        A context manager holding ``flock`` on ``<version_dir>/.lock`` while
        the atomic rename happens; a no-op where ``fcntl`` is unavailable
        (the rename alone is still atomic there).
        """
        fh = None
        if fcntl is not None:
            try:
                fh = open(self.version_dir / ".lock", "a+b")
                fcntl.flock(fh, fcntl.LOCK_EX)
            except OSError:
                if fh is not None:
                    fh.close()
                    fh = None
        try:
            yield
        finally:
            if fh is not None:
                try:
                    fcntl.flock(fh, fcntl.LOCK_UN)
                finally:
                    fh.close()

    def __len__(self) -> int:
        """Number of entries stored for this engine version."""
        try:
            return sum(1 for _ in self.version_dir.glob("*.json"))
        except OSError:
            return 0

    def stats(self) -> dict:
        """Store health summary for diagnostics (``repro doctor``).

        Walks the whole cache root, not just the current version directory,
        so stale version dirs and quarantined corpses from older engine
        states are visible too.
        """
        version_dir = self.version_dir
        entries = 0
        version_dirs = 0
        total_bytes = 0
        total_entries = 0
        corrupt_files = 0
        try:
            # One listing per version directory: this runs on the daemon's
            # event loop for every ``GET /v1/stats``.
            for directory in self.root.glob("v*"):
                if not directory.is_dir():
                    continue
                version_dirs += 1
                current = directory == version_dir
                for path in directory.iterdir():
                    if current and path.name.endswith(".json"):
                        entries += 1
                    try:
                        total_bytes += path.stat().st_size
                    except OSError:
                        continue
                    if path.name.endswith(".json"):
                        total_entries += 1
                    elif path.name.endswith(".corrupt"):
                        corrupt_files += 1
        except OSError:
            pass
        return {
            "root": str(self.root),
            "version_dir": str(version_dir),
            "engine_version": self.engine_version,
            "entries": entries,
            "total_entries": total_entries,
            "version_dirs": version_dirs,
            "total_bytes": total_bytes,
            "corrupt_files": corrupt_files,
            "quarantined_this_session": self.quarantined,
        }

    def clear(self) -> None:
        """Drop every entry of this engine version."""
        shutil.rmtree(self.version_dir, ignore_errors=True)
