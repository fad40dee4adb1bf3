"""Deterministic random-number streams.

Every piece of randomness in the package flows from a single integer
seed.  Independent components ask for a *stream* identified by stable
string labels; the same (seed, labels) pair always yields the same
generator, no matter in which order or in which process streams are
created.  This is what makes parallel runs byte-identical to serial
ones.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_words(labels: tuple) -> list[int]:
    digest = hashlib.sha256("\x1f".join(str(x) for x in labels).encode("utf-8")).digest()
    # four 32-bit words are plenty of entropy for stream separation
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def stream(seed: int, *labels) -> np.random.Generator:
    """A generator for the component identified by ``labels``, derived
    from ``seed``.  Distinct labels give statistically independent
    streams; identical labels give identical streams."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFF] + _label_words(labels))
    return np.random.Generator(np.random.PCG64(ss))


def substream_seed(seed: int, *labels) -> int:
    """A 32-bit integer seed derived the same way, for APIs that take a
    plain seed."""
    return int(stream(seed, *labels).integers(0, 2**32))
