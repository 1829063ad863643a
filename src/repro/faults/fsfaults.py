"""Filesystem/resource fault injection: ENOSPC, torn writes, fsync, slow I/O.

Where :mod:`repro.faults.operators` damages trace *data* and
:mod:`repro.faults.process_ops` damages *execution*, this layer damages
the *storage path* — the fault class (full disks, torn writes, lying
fsyncs, slow devices) that failure studies of contemporary HPC systems
flag as increasingly dominant, and the one every crash-safety claim in
:mod:`repro.resilience` must actually be drilled against.

Injection is driven by an environment variable
(:data:`FS_FAULTS_ENV_VAR`) holding a JSON :class:`FsFaults` spec,
mirroring the ``REPRO_PROCESS_CHAOS`` design: worker processes inherit
the environment, and a shared *state directory* coordinates a global
injection budget across processes via exclusively-created claim files.
Each instrumented write path calls a *site hook* — no-op unless armed —
identified by a stable site name:

========================  ====================================================
site                      where it fires
========================  ====================================================
``atomic.text``           after the staged temp file is fully written, before
                          the fsync + rename publish it
                          (:func:`repro.resilience.atomic.atomic_open_text`)
``atomic.bytes``          around the staged binary write
                          (:func:`repro.resilience.atomic.atomic_write_bytes`)
``atomic.fsync``          immediately before the staged file's ``fsync``
``journal.append``        around the (non-atomic, append-mode) journal line
                          write (:meth:`repro.resilience.journal.ShardJournal.record`)
``io.csv``                entry of :func:`repro.io.csv_format.write_lanl_csv`
``io.jsonl``              entry of :func:`repro.io.jsonl_format.write_jsonl`
``store.column``          before each per-shard column ``.npy`` write
                          (:func:`repro.store.writer.write_shards`)
``store.manifest``        before the store manifest publish
                          (:meth:`repro.store.manifest.Manifest.save`)
``store.scrub.ledger``    before the quarantine ledger rewrite
                          (:func:`repro.store.manifest.write_ledger`)
``store.merge.manifest``  before a federation (append/merge) manifest
                          publish (:func:`repro.store.manifest.publish_manifest`,
                          :meth:`repro.store.writer.StoreWriter.finalize`
                          with ``manifest_site="store.merge.manifest"``)
``store.read.column``     before a shard column file is opened for a
                          *read* (:class:`repro.store.reader._ShardCursor`)
                          — the serving-path drill site: ``slow-io``
                          models a slow disk under live queries,
                          error operators a disk that fails them
========================  ====================================================

Operators:

* ``enospc``      — raise ``OSError(ENOSPC)`` at the site (disk full);
* ``torn-write``  — write/keep only a seeded prefix of the data, then
  raise ``OSError(EIO)`` (partial write discovered by a later error);
* ``fsync-fail``  — raise ``OSError(EIO)`` (the fsync that lied);
* ``slow-io``     — sleep briefly (latency noise; must not fail);
* ``count``       — never fault, only count matching calls in-process
  (used by ``repro bench --fsfaults-guard`` to measure the disabled
  shim's footprint with a real workload's site count).

Targeting is by ``sites`` (empty = every site), an optional
``path_contains`` substring of the destination path, and ``skip``
(let the first N matching calls pass before injecting).  The torn-write
prefix fraction is a pure function of ``(seed, site)``, so campaigns
are deterministic end to end.

This module is deliberately stdlib-only and imports nothing from the
rest of the package: the instrumented call sites live below
``repro.io``/``repro.resilience`` and import it lazily at fault time.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "FS_FAULTS_ENV_VAR",
    "FS_OPERATORS",
    "FS_SITES",
    "FsFaultError",
    "TornWriteError",
    "FsFaults",
    "maybe_fault",
    "fault_write",
    "fsfaults_env",
    "reset_counts",
    "call_count",
]

FS_FAULTS_ENV_VAR = "REPRO_FS_FAULTS"

FS_OPERATORS = ("enospc", "torn-write", "fsync-fail", "slow-io", "count")

#: The site names instrumented today (documentation aid; the shim
#: accepts any site string, so new subsystems can add sites freely).
FS_SITES = (
    "atomic.text",
    "atomic.bytes",
    "atomic.fsync",
    "journal.append",
    "io.csv",
    "io.jsonl",
    "store.column",
    "store.manifest",
    "store.scrub.ledger",
    "store.merge.manifest",
    "store.read.column",
)

#: Operators that only observe (no state directory / budget required).
_PASSIVE_OPERATORS = ("count",)


class FsFaultError(OSError):
    """An injected filesystem/resource fault.

    Subclasses ``OSError`` so the code under test handles it exactly
    like the real thing; the distinct type lets drills assert the
    failure they observed was the injected one.
    """


class TornWriteError(FsFaultError):
    """The injected error reported after a deliberately partial write."""


# In-process call counter for the ``count`` operator (bench guard).
_COUNTS: Dict[str, int] = {}


def reset_counts() -> None:
    """Zero the in-process ``count``-operator site counters."""
    _COUNTS.clear()


def call_count() -> int:
    """Total site-hook calls counted by the ``count`` operator."""
    return sum(_COUNTS.values())


@dataclass(frozen=True)
class FsFaults:
    """A filesystem-fault specification, serializable into the environment.

    Parameters
    ----------
    operator:
        One of :data:`FS_OPERATORS`.
    times:
        Global injection budget across all processes and retries.
    state_dir:
        Directory coordinating the budget (claim files) between
        processes.  Required for every operator except ``count``.
    sites:
        Site names to target; empty targets every site.
    path_contains:
        Only target calls whose destination path contains this
        substring (e.g. ``".pkl"`` for shard payloads, ``"journal"``
        for the journal file).  Empty matches every path.
    skip:
        Let this many matching calls pass before the budget starts
        being spent (deterministic "fail the Nth write" drills).
    seed:
        Determinism seed; the torn-write prefix fraction is derived
        from ``(seed, site)``.
    slow_seconds:
        Sleep duration for the ``slow-io`` operator.
    """

    operator: str
    times: int = 1
    state_dir: str = ""
    sites: Tuple[str, ...] = field(default_factory=tuple)
    path_contains: str = ""
    skip: int = 0
    seed: int = 0
    slow_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.operator not in FS_OPERATORS:
            raise ValueError(
                f"operator must be one of {FS_OPERATORS}, got {self.operator!r}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")
        if not self.state_dir and self.operator not in _PASSIVE_OPERATORS:
            raise ValueError(
                "state_dir is required (it bounds the injection budget; "
                "without it an armed fault would fire on every write "
                "forever)"
            )
        object.__setattr__(self, "sites", tuple(self.sites))

    def to_json(self) -> str:
        return json.dumps(
            {
                "operator": self.operator,
                "times": self.times,
                "state_dir": self.state_dir,
                "sites": list(self.sites),
                "path_contains": self.path_contains,
                "skip": self.skip,
                "seed": self.seed,
                "slow_seconds": self.slow_seconds,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FsFaults":
        payload = json.loads(text)
        payload["sites"] = tuple(payload.get("sites", ()))
        return cls(**payload)

    def injections(self) -> int:
        """How many injections have actually been performed so far."""
        try:
            names = os.listdir(self.state_dir)
        except OSError:
            return 0
        claimed = sum(1 for name in names if name.startswith("claim-"))
        return max(0, claimed - self.skip)

    def torn_fraction(self, site: str) -> float:
        """Seeded prefix fraction in [0.25, 0.75) for a torn write."""
        digest = hashlib.sha256(f"{self.seed}:{site}".encode("utf-8")).hexdigest()
        return 0.25 + (int(digest[:8], 16) % 1000) / 2000.0


def _claim_slot(state_dir: str, slots: int) -> Optional[int]:
    """Atomically claim the next of ``slots`` slots; None when spent.

    Creates ``state_dir`` on first use so arming the environment
    directly (a subprocess drill, CI) works without a provisioning
    step — a missing state directory must not silently disarm the
    fault.
    """
    with contextlib.suppress(OSError):
        os.makedirs(state_dir, exist_ok=True)
    for n in range(slots):
        path = os.path.join(state_dir, f"claim-{n}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        except OSError:
            return None
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        return n
    return None


def _active_spec(
    site: str, path: str, env: Optional[Mapping[str, str]]
) -> Optional[FsFaults]:
    """The armed spec if this (site, path) call should inject, else None."""
    environment = os.environ if env is None else env
    spec_text = environment.get(FS_FAULTS_ENV_VAR)
    if not spec_text:
        return None
    spec = FsFaults.from_json(spec_text)
    if spec.sites and site not in spec.sites:
        return None
    if spec.path_contains and spec.path_contains not in path:
        return None
    if spec.operator == "count":
        _COUNTS[site] = _COUNTS.get(site, 0) + 1
        return None
    slot = _claim_slot(spec.state_dir, spec.skip + spec.times)
    if slot is None or slot < spec.skip:
        return None
    return spec


def _raise_for(spec: FsFaults, site: str) -> None:
    """Raise (or sleep for) the spec's operator at ``site``.

    Messages deliberately name only the site, never a filesystem path,
    so campaign scorecards stay byte-identical across run directories.
    """
    if spec.operator == "enospc":
        raise FsFaultError(
            errno.ENOSPC, f"injected ENOSPC at site {site!r}"
        )
    if spec.operator == "fsync-fail":
        raise FsFaultError(
            errno.EIO, f"injected fsync failure at site {site!r}"
        )
    if spec.operator == "torn-write":
        raise TornWriteError(
            errno.EIO, f"injected torn write at site {site!r}"
        )
    if spec.operator == "slow-io":
        time.sleep(spec.slow_seconds)
        return
    raise AssertionError(f"unhandled operator {spec.operator!r}")


def maybe_fault(
    site: str,
    path: str = "",
    tmp: Optional[str] = None,
    env: Optional[Mapping[str, str]] = None,
) -> None:
    """Site hook for write paths that stage their data first.

    No-op unless :data:`FS_FAULTS_ENV_VAR` is armed, the (site, path)
    is targeted, and the injection budget is not spent.  For
    ``torn-write`` with a staged ``tmp`` file, the staged file is
    truncated to the seeded prefix fraction before the error is raised
    — the torn bytes exist on disk, exactly as a real partial write
    would leave them.
    """
    spec = _active_spec(site, path, env)
    if spec is None:
        return
    if spec.operator == "torn-write" and tmp is not None:
        with contextlib.suppress(OSError):
            size = os.path.getsize(tmp)
            with open(tmp, "rb+") as handle:
                handle.truncate(int(size * spec.torn_fraction(site)))
    _raise_for(spec, site)


def fault_write(
    site: str,
    path: str,
    write: Callable[[Union[str, bytes]], object],
    data: Union[str, bytes],
    env: Optional[Mapping[str, str]] = None,
) -> None:
    """Site hook for *direct* (unstaged) writes that can be left torn.

    Calls ``write(data)`` when no fault fires.  Under ``torn-write``
    the seeded prefix of ``data`` is written for real before the error
    is raised, leaving genuinely torn content at the destination — the
    drill for append-mode paths like the shard journal, which atomic
    staging cannot protect.
    """
    spec = _active_spec(site, path, env)
    if spec is None:
        write(data)
        return
    if spec.operator == "torn-write":
        write(data[: int(len(data) * spec.torn_fraction(site))])
        raise TornWriteError(
            errno.EIO, f"injected torn write at site {site!r}"
        )
    if spec.operator == "slow-io":
        time.sleep(spec.slow_seconds)
        write(data)
        return
    _raise_for(spec, site)


@contextlib.contextmanager
def fsfaults_env(spec: Optional[FsFaults]) -> Iterator[Optional[FsFaults]]:
    """Arm ``spec`` in ``os.environ`` for the duration of the block.

    Must wrap the code whose writes should be drilled; worker processes
    spawned inside the block inherit the armed environment.
    ``spec=None`` is a no-op (handy for parameterized drills).
    """
    if spec is None:
        yield None
        return
    if spec.state_dir:
        os.makedirs(spec.state_dir, exist_ok=True)
    previous = os.environ.get(FS_FAULTS_ENV_VAR)
    os.environ[FS_FAULTS_ENV_VAR] = spec.to_json()
    try:
        yield spec
    finally:
        if previous is None:
            os.environ.pop(FS_FAULTS_ENV_VAR, None)
        else:
            os.environ[FS_FAULTS_ENV_VAR] = previous
