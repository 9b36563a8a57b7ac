"""Random-number-generator helpers.

Every stochastic component in the library (Poisson sources, PSO velocity
binarization, synthetic workloads) accepts either an integer seed or a
:class:`numpy.random.Generator`.  Centralizing the coercion here keeps
experiments reproducible: a single seed at the pipeline level fans out to
independent, deterministic streams for each component.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def default_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a non-deterministic generator; an ``int`` seeds a new
    PCG64 generator; an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def replayable(seed: SeedLike, unused: bool = False) -> bool:
    """Whether a run that draws from ``seed`` can be memoized by content.

    An int names a whole stream.  ``None`` is fresh entropy: replayable
    only when nothing draws from it (``unused``).  A generator is a
    position in a stream, not content, so it never enters a memo token
    — not even unused, since the token would have to fold it.
    """
    if isinstance(seed, np.random.Generator):
        return False
    return seed is not None or unused


def derive_seed(seed: SeedLike, salt: int, *salts: int) -> Optional[int]:
    """Derive a deterministic child seed from ``seed`` and integer salts.

    Extra salts fan one parent seed out into a family of child streams
    (``derive_seed(campaign_seed, level, draw)`` gives each cell of a
    Monte-Carlo campaign its own reproducible stream).  Children with
    the same number of salts are distinct streams; children with
    different numbers are not independent: numpy's
    :class:`~numpy.random.SeedSequence` pads its entropy with zeros, so
    trailing zero salts drop out and ``derive_seed(s, level, 0) ==
    derive_seed(s, level)``.  Callers therefore keep one salt count per
    parent seed: the fault campaign is the only caller with two salts,
    and its campaign seed feeds nothing else; every other caller uses
    one.  The derivation itself stays as it is, since every app graph
    and every digest is drawn from it.  Returns ``None`` when ``seed``
    is ``None`` (preserving non-determinism).
    """
    if seed is None:
        return None
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    entropy = [seed, salt, *(int(s) for s in salts)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
