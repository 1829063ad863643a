"""Golden damage reports: what a scan says about a broken column file.

Before reading a shard, a scan probes its column files.  A degraded
read (``on_damage="skip"``) records the probe's reason in
``store.degraded``; a strict read raises a :class:`StoreError` that
quotes it; ``verify`` and scrub classify the same files through
``diagnose_shard``.  This freezes all three for five kinds of damage:
a deleted column file, a file cut inside its data, a file cut inside
its ``.npy`` header, a column saved again as another dtype, and one
saved again one row short.  The store root in the error text reads
``<store>``.

To regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/store/test_probe_golden.py

then commit the rewritten file with a note on what moved and why.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.resilience import atomic_write_bytes
from repro.store import ColumnarStore, StoreError
from repro.store.reader import diagnose_shard
from repro.synth import TraceGenerator

GOLDEN_SEED = 41
GOLDEN = Path(__file__).parent / "golden" / f"probe_reasons_seed{GOLDEN_SEED}.json"


def _delete(path: Path) -> None:
    path.unlink()


def _cut_in_data(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])


def _cut_in_header(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:40])


def _other_dtype(path: Path) -> None:
    np.save(path, np.load(path).astype(np.int64))


def _fewer_rows(path: Path) -> None:
    np.save(path, np.load(path)[:-1])


#: Damage kind -> (column file it breaks, how).
DAMAGE = {
    "deleted": ("00000-node_id.npy", _delete),
    "cut-in-data": ("00001-end_time.npy", _cut_in_data),
    "cut-in-header": ("00002-start_time.npy", _cut_in_header),
    "other-dtype": ("00001-system_id.npy", _other_dtype),
    "fewer-rows": ("00000-workload.npy", _fewer_rows),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe-golden") / "store"
    TraceGenerator(seed=GOLDEN_SEED).generate_store(
        root, [2, 13], shard_rows=200
    )
    return root


def _report(root: Path, name: str) -> dict:
    skip = ColumnarStore(root, on_damage="skip")
    for _ in skip.iter_batches():
        pass
    with pytest.raises(StoreError) as raised:
        for _ in ColumnarStore(root).iter_batches():
            pass
    shard = next(
        shard
        for shard in skip.manifest.shards
        if shard.name == name.split("-")[0]
    )
    return {
        "skip": skip.degraded.to_dict(),
        "raise": str(raised.value).replace(str(root), "<store>"),
        "diagnose": [kind for kind, _ in diagnose_shard(root, shard)],
    }


def test_probe_reasons_match_golden(pristine, tmp_path):
    produced = {}
    for kind, (name, damage) in DAMAGE.items():
        root = tmp_path / kind
        shutil.copytree(pristine, root)
        damage(root / "shards" / name)
        produced[kind] = _report(root, name)
    data = (json.dumps(produced, indent=2, sort_keys=True) + "\n").encode()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        atomic_write_bytes(GOLDEN, data)
        pytest.skip(f"regenerated {GOLDEN}")
    assert GOLDEN.exists(), (
        f"missing golden file {GOLDEN}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert data == GOLDEN.read_bytes(), (
        f"the damage reports differ from {GOLDEN}; if the change is "
        "intended, regenerate with REPRO_REGEN_GOLDEN=1"
    )
