"""Deterministic, hierarchical random-number streams.

Reproducibility is a first-class requirement for the toolkit: the same
seed must yield the same synthetic trace on every platform and Python
version, and generating system 7's trace must not change system 8's.
To get both properties we derive *independent* child streams from a root
seed by hashing a path of string labels with SHA-256, and feed the
result into :class:`numpy.random.Generator` (PCG64).

Synthesis opens two streams per (system, node), tens of thousands per
trace, and ``np.random.PCG64(seed)`` spends most of its ~20 µs in
NumPy's ``SeedSequence``.  :meth:`RngStream.spawn_generators` seeds many
child streams at once: :func:`pcg64_states` restates ``SeedSequence``
and PCG64's seeding step over arrays, and one generator is re-pointed
at each stream's initial state in turn.  :meth:`RngStream.spawn_generator`
stays ``np.random.PCG64(seed)``, so NumPy's own seeding remains the
reference the bulk path is tested against.

Example
-------
>>> root = RngStream(seed=42)
>>> sys7 = root.child("system", "7")
>>> sys8 = root.child("system", "8")
>>> a = sys7.generator.random()
>>> b = sys8.generator.random()
>>> a != b
True
>>> RngStream(seed=42).child("system", "7").generator.random() == a
True
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["derive_seed", "pcg64_states", "RngStream"]

_HASH_BYTES = 8  # 64-bit derived seeds


def _check_root_seed(root_seed: int) -> None:
    if root_seed < 0:
        raise ValueError(f"root_seed must be non-negative, got {root_seed}")


def derive_seed(root_seed: int, *labels: str) -> int:
    """Derive a 64-bit seed from ``root_seed`` and a label path.

    The derivation is a SHA-256 hash of the decimal root seed and the
    labels joined with ``/``; it is stable across processes, platforms
    and Python versions (unlike the built-in ``hash``).

    Parameters
    ----------
    root_seed:
        Any non-negative integer.
    labels:
        Path of string labels naming the child stream, e.g.
        ``("system", "20", "node", "22", "arrivals")``.

    Returns
    -------
    int
        A seed in ``[0, 2**64)``.
    """
    _check_root_seed(root_seed)
    material = str(root_seed) + "\x00" + "/".join(labels)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:_HASH_BYTES], "big")


# NumPy's SeedSequence with the default pool of four 32-bit words, and
# PCG64's 128-bit LCG multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF


def _hash_schedule(init: int, mult: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of ``count`` successive SeedSequence
    hashes.  Each hash xors the value with the running constant, advances
    the constant by one multiplication and multiplies the value by the
    result, so the schedule does not depend on the data."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = (init * mult) & _MASK32
        mults.append(init)
    return (
        np.array(xors, dtype=np.uint32)[:, None],
        np.array(mults, dtype=np.uint32)[:, None],
    )


# Entropy mixing hashes each pool word once, then each word once per
# other word; generate_state(4, uint64) hashes the pool twice over.
_MIX_XOR, _MIX_MUL = _hash_schedule(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_OUT_XOR, _OUT_MUL = _hash_schedule(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_PCG64_MULT_LIMBS = np.array(
    [(_PCG64_MULT >> (32 * k)) & _MASK32 for k in range(4)], dtype=np.uint64
)[:, None]
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> np.uint32(_XSHIFT))


def _carry(limbs: np.ndarray) -> np.ndarray:
    """Normalize (4, n) 32-bit limbs, least significant first, mod 2**128."""
    for k in range(3):
        limbs[k + 1] += limbs[k] >> _SHIFT32
    return limbs & _LOW32


def pcg64_states(seeds: Sequence[int]) -> List[Dict[str, object]]:
    """The initial ``bit_generator.state`` of ``np.random.PCG64(seed)``
    for every seed in ``seeds`` (each in ``[0, 2**64)``), in one pass.

    ``SeedSequence(seed)`` turns the seed's two 32-bit words into a pool
    of four and ``generate_state(4, uint64)`` hashes it into the words
    ``s`` (0, 1) and ``i`` (2, 3), high word first.  PCG64 then starts
    from ``inc = (i << 1) | 1`` and ``state = (inc + s) * M + inc``
    mod ``2**128``.  Both steps run here as uint32 array arithmetic over
    all seeds at once; 128-bit values are four 32-bit limbs held in
    uint64 so that products and carries fit.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    # A seed below 2**32 is one entropy word, but SeedSequence hashes a
    # zero into every pool word past the entropy, so a zero high word
    # gives the same pool.
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & _LOW32
    pool[1] = seeds >> _SHIFT32
    pool = _hash(pool, _MIX_XOR[:_POOL_SIZE], _MIX_MUL[:_POOL_SIZE])
    # Each word, in order, is hashed once per other word and mixed into
    # it; the word itself does not change during its turn.
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [k for k in range(_POOL_SIZE) if k != src]
        hashed = _hash(
            pool[src],
            _MIX_XOR[step : step + _POOL_SIZE - 1],
            _MIX_MUL[step : step + _POOL_SIZE - 1],
        )
        step += _POOL_SIZE - 1
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(_XSHIFT))
    words = _hash(np.tile(pool, (2, 1)), _OUT_XOR, _OUT_MUL).astype(np.uint64)
    # uint64 word k is words[2k] | words[2k + 1] << 32.  As limbs, least
    # significant first: s = w0 << 64 | w1 and i = w2 << 64 | w3.
    s = words[[2, 3, 0, 1]]
    i = words[[6, 7, 4, 5]]
    inc = (i << np.uint64(1)) & _LOW32
    inc[1:] |= i[:-1] >> np.uint64(31)
    inc[0] |= np.uint64(1)
    base = _carry(inc + s)
    # Schoolbook product mod 2**128: a column collects at most seven
    # 32-bit product halves plus inc's limb, far below 2**64.
    state = inc.copy()
    for k in range(4):
        products = base[k] * _PCG64_MULT_LIMBS[: 4 - k]
        state[k:] += products & _LOW32
        state[k + 1 :] += products[:-1] >> _SHIFT32
    state = _carry(state)
    halves = [
        ((limbs[hi] << _SHIFT32) | limbs[hi - 1]).tolist()
        for limbs in (state, inc)
        for hi in (3, 1)
    ]
    return [
        {
            "bit_generator": "PCG64",
            "state": {"state": (s_hi << 64) | s_lo, "inc": (i_hi << 64) | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        for s_hi, s_lo, i_hi, i_lo in zip(*halves)
    ]


class RngStream:
    """A named, reproducible random stream with derivable children.

    The stream's effective seed is a pure function of ``(root seed,
    label path)``, so ``root.child("a").child("b")`` and
    ``root.child("a", "b")`` are the same stream.

    Parameters
    ----------
    seed:
        Root seed; any non-negative integer.
    path:
        Label path of this stream relative to the root.
    """

    def __init__(self, seed: int, path: Tuple[str, ...] = ()) -> None:
        self._root_seed = int(seed)
        _check_root_seed(self._root_seed)
        self._path = tuple(path)
        self._generator: np.random.Generator | None = None

    @property
    def seed(self) -> int:
        """The effective seed: the root seed hashed with the path."""
        if not self._path:
            return self._root_seed
        return derive_seed(self._root_seed, *self._path)

    @property
    def path(self) -> Tuple[str, ...]:
        """Label path from the root stream."""
        return self._path

    @property
    def generator(self) -> np.random.Generator:
        """The lazily created :class:`numpy.random.Generator` (PCG64)."""
        if self._generator is None:
            self._generator = np.random.Generator(np.random.PCG64(self.seed))
        return self._generator

    def child(self, *labels: str) -> "RngStream":
        """Return an independent child stream for the given label path.

        Calling ``child`` twice with the same labels returns streams with
        identical seeds (but independent generator state), so callers can
        re-derive a stream instead of threading it through APIs.
        """
        if not labels:
            raise ValueError("child() requires at least one label")
        return RngStream(self._root_seed, self._path + tuple(labels))

    def spawn_generator(self, *labels: str) -> np.random.Generator:
        """A fresh generator for the child stream at ``labels``.

        Unlike ``child(...).generator`` — which caches the generator on
        the child stream object — every call returns a *new* generator
        starting from the stream's initial state.  This is the primitive
        behind the trace generator's determinism contract: any process
        (or worker) holding ``(root seed, label path)`` can reconstruct
        the exact variate sequence of a stream, which is what makes
        ``workers=N`` output identical to serial output.
        """
        path = self._path + tuple(labels)
        seed = self._root_seed if not path else derive_seed(self._root_seed, *path)
        return np.random.Generator(np.random.PCG64(seed))

    def spawn_generators(
        self, paths: Sequence[Tuple[str, ...]]
    ) -> Iterator[np.random.Generator]:
        """``spawn_generator(*labels)`` for each label path in ``paths``,
        in order, seeded in one vectorized pass.

        The paths are seeded as :func:`derive_seed` seeds them, and their
        PCG64 states computed at once by :func:`pcg64_states`.  SHA-256
        reads its input as a stream, so the bytes all paths share (a
        system's node paths share ``system/s/node/``) are hashed
        once and the hash state copied for each path's own suffix.  All
        yielded generators are *one* ``np.random.Generator``, re-pointed
        at the next path's initial state (with no half-used 32-bit word
        left over) when the next one is requested.  Each stream therefore
        has to be drawn in full before the iteration advances, which is
        how the trace generator uses it: a node's arrivals, or its marks,
        are drawn completely before the next node's begin.  Every path
        needs at least one label, as for :meth:`child`.
        """
        if not all(paths):
            raise ValueError("spawn_generators() requires at least one label per path")
        materials = [
            "/".join(self._path + tuple(labels)).encode("utf-8") for labels in paths
        ]
        shared = os.path.commonprefix(materials) if materials else b""
        prefix = hashlib.sha256(f"{self._root_seed}\x00".encode("utf-8") + shared)
        seeds = []
        for material in materials:
            digest = prefix.copy()
            digest.update(material[len(shared) :])
            seeds.append(int.from_bytes(digest.digest()[:_HASH_BYTES], "big"))
        return _repointed(pcg64_states(seeds))

    # Convenience passthroughs -------------------------------------------------

    def random(self) -> float:
        """A single uniform sample in [0, 1)."""
        return float(self.generator.random())

    def uniform(self, low: float, high: float) -> float:
        """A single uniform sample in [low, high)."""
        return float(self.generator.uniform(low, high))

    def exponential(self, scale: float) -> float:
        """A single exponential sample with the given scale (mean)."""
        return float(self.generator.exponential(scale))

    def weibull(self, shape: float, scale: float) -> float:
        """A single Weibull sample with the given shape and scale."""
        return float(scale * self.generator.weibull(shape))

    def lognormal(self, mu: float, sigma: float) -> float:
        """A single lognormal sample with log-mean mu and log-std sigma."""
        return float(self.generator.lognormal(mu, sigma))

    def choice_index(self, probabilities: "np.ndarray") -> int:
        """Sample an index according to a probability vector."""
        return int(self.generator.choice(len(probabilities), p=probabilities))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        path = "/".join(self._path) or "<root>"
        return f"RngStream(path={path!r}, seed={self.seed})"


def _repointed(states: List[Dict[str, object]]) -> Iterator[np.random.Generator]:
    # The seed is overwritten before the first draw.
    generator = np.random.Generator(np.random.PCG64(0))
    for state in states:
        generator.bit_generator.state = state
        yield generator
