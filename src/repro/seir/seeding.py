"""Random-seed management for trajectory-oriented calibration.

The paper treats the random seed ``s`` as a *coordinate of the particle*: the
pair ``(theta, s)`` maps one-to-one to a trajectory, which is what lets the
framework store, resample, and restart individual histories.  It additionally
uses **common random numbers**: "the same set of random seeds is employed to
generate the 20 realizations from the stochastic simulation" at every theta
(section V-B), which removes between-theta replicate noise from the weight
comparison.

:class:`SeedSequenceBank` provides both facilities on top of
``numpy.random.SeedSequence``:

* a reproducible common seed set shared by all parameter draws, and
* independent child streams for ancillary randomness (priors, thinning)
  that must not collide with simulation streams.

This module is the repo's **only** RNG construction site: every generator,
seed sequence, and serialised RNG state flows through the functions here, a
confinement the static analysis pass (:mod:`repro.analysis`) enforces on
every push.  It is also the only module that binds a stream tag: every tag
and ancillary purpose is an entry of :data:`STREAM_TAGS` or
:data:`ANCILLARY_PURPOSES`, both checked for duplicate tags at import time,
so the ``window_restart_seed``/``window_draw_seed`` aliasing bug class
cannot silently return.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np
import numpy.typing

__all__ = ["SeedSequenceBank", "generator_for", "batch_generator_for",
           "mix_seed", "mix_seeds", "STREAM_TAGS", "ANCILLARY_PURPOSES",
           "check_unique_tags", "FORECAST_STREAM", "PURPOSE_SMC_PRIOR",
           "PURPOSE_SMC_BIAS", "PURPOSE_SMC_RESAMPLE", "PURPOSE_SMC_JITTER",
           "PURPOSE_GROUNDTRUTH_THINNING", "PURPOSE_CHAOS_FAULTS",
           "PURPOSE_SERVICE_CHAOS", "rng_state_to_jsonable",
           "rng_from_jsonable"]


# --------------------------------------------------------------------------- #
# Stream tags
# --------------------------------------------------------------------------- #
#: Top-level bank stream tags.  ``simulation``, ``ancillary`` and ``batch``
#: key ``SeedSequence`` spawn/entropy domains; the ``mix_seed``-based seeders
#: put their tag in the component position *immediately after* ``base_seed``,
#: so no two of them can reach the same ``mix_seed`` argument tuple whatever
#: their other components are (a restart seeder whose ``original_seed``
#: equalled another seeder's tag once aliased that seeder's seeds exactly).
#: Retired tags stay in the table so their values are never reused.  Values
#: are pinned by tests/seir/test_seeding.py: changing one silently re-keys
#: every stream it feeds.
STREAM_TAGS: Mapping[str, int] = MappingProxyType({
    "simulation": 0,      # common replicate seed set (spawn key)
    "ancillary": 1,       # ancillary purpose streams (spawn key)
    "batch": 2,           # batched whole-ensemble streams (entropy lead)
    "window_draw": 3,     # per-(window, draw) restart seeds
    "window_restart": 4,  # retired: per-(window, particle) restart seeds
    "scenario": 5,        # retired: per-scenario independent stream roots
    "forecast": 9100,     # posterior-predictive continuation seeds
})

#: Purpose sub-tags under :meth:`SeedSequenceBank.ancillary_generator`, one
#: per consumer, so adding a consumer never perturbs another's draws.
ANCILLARY_PURPOSES: Mapping[str, int] = MappingProxyType({
    "smc_prior": 0,              # first-window prior sampling
    "smc_bias": 1,               # per-window reporting-bias thinning
    "smc_resample": 2,           # per-window resampling / tempered bridge
    "smc_jitter": 3,             # per-window proposal jitter
    "groundtruth_thinning": 10,  # truth-observation binomial thinning
    "chaos_faults": 40,          # seeded fault-plan draws (chaos testing)
    "service_chaos": 41,         # seeded service-level fault-plan draws
})


def check_unique_tags(table: Mapping[str, int]) -> None:
    """Raise ``ValueError`` if two names in ``table`` share one tag.

    Two names on one tag alias their seed streams (the bug that once
    aliased ``window_restart_seed`` and ``window_draw_seed``).  Both tables are
    checked when this module is imported, so a clash fails the process
    before any draw is made.
    """
    seen: dict[int, str] = {}
    for name, tag in table.items():
        if tag in seen:
            raise ValueError(
                f"stream tag {tag} is claimed by both {seen[tag]!r} and "
                f"{name!r} — two names on one tag alias their seed streams")
        seen[tag] = name


check_unique_tags(STREAM_TAGS)
check_unique_tags(ANCILLARY_PURPOSES)

_SIMULATION_STREAM = STREAM_TAGS["simulation"]
_ANCILLARY_STREAM = STREAM_TAGS["ancillary"]
_BATCH_STREAM = STREAM_TAGS["batch"]
_WINDOW_DRAW_STREAM = STREAM_TAGS["window_draw"]
FORECAST_STREAM = STREAM_TAGS["forecast"]

PURPOSE_SMC_PRIOR = ANCILLARY_PURPOSES["smc_prior"]
PURPOSE_SMC_BIAS = ANCILLARY_PURPOSES["smc_bias"]
PURPOSE_SMC_RESAMPLE = ANCILLARY_PURPOSES["smc_resample"]
PURPOSE_SMC_JITTER = ANCILLARY_PURPOSES["smc_jitter"]
PURPOSE_GROUNDTRUTH_THINNING = ANCILLARY_PURPOSES["groundtruth_thinning"]
PURPOSE_CHAOS_FAULTS = ANCILLARY_PURPOSES["chaos_faults"]
PURPOSE_SERVICE_CHAOS = ANCILLARY_PURPOSES["service_chaos"]


def generator_for(seed: int) -> np.random.Generator:
    """A fresh, deterministic generator for a trajectory seed.

    Every engine obtains its RNG through this function, which is what makes
    ``(theta, s) -> trajectory`` a pure mapping: same seed, same stream,
    regardless of which process or engine instance runs the simulation.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def batch_generator_for(seeds: np.typing.ArrayLike) -> np.random.Generator:
    """One shared stream for a whole ensemble, keyed by the seed *vector*.

    The batched simulation engine advances every ensemble member from a
    single generator, so the per-member scalar contract ``(theta, s) ->
    trajectory`` is replaced by a batch-level one: the ordered seed vector
    (plus the batch-stream tag) fully determines every member's draws.  Two
    batched runs with the same parameters and the same seed vector in the
    same order are bit-identical; permuting, growing, or shrinking the
    ensemble re-keys the stream and changes every member's draws (they stay
    correct in distribution).  The tag keeps the batch stream disjoint from
    the scalar per-trajectory streams of :func:`generator_for`, so mixing
    scalar and batched engines in one run never aliases randomness.

    This is also the **per-shard contract** of the sharded dispatch layer
    (:mod:`repro.hpc.sharding`): a shard covering slice ``[lo, hi)`` of a
    group's ordered seed vector draws from
    ``batch_generator_for(seeds[lo:hi])`` — a pure function of the slice
    contents, so shard results do not depend on which worker (or process)
    simulates them, only on the layout that produced the slices.
    """
    entropy = [_BATCH_STREAM] + [int(s) & 0x7FFFFFFFFFFFFFFF
                                 for s in np.asarray(seeds, dtype=np.int64)]
    if len(entropy) < 2:
        raise ValueError("batch stream needs at least one seed")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=entropy)))


# ``SeedSequence``'s hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK63 = 0xFFFFFFFF, 0x7FFFFFFFFFFFFFFF


def mix_seed(*components: int) -> int:
    """Deterministically mix integer components into a single 63-bit seed.

    Used to derive per-(window, particle) restart seeds without collisions:
    ``mix_seed(base, window_index, particle_index)``.
    """
    ss = np.random.SeedSequence(entropy=[int(c) & _MASK63
                                         for c in components])
    return int(ss.generate_state(1, dtype=np.uint64)[0] & _MASK63)


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """``SeedSequence``'s keyed hash: each call advances its constant."""
    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return hash_words


def _mix_words(words: np.ndarray) -> np.ndarray:
    """Row ``i``'s ``SeedSequence(entropy=words[i]).generate_state(1,
    np.uint64)`` for an ``(m, L)`` uint32 entropy-word matrix, in uint32
    array arithmetic: a pool of 4 words, hashed and cross-mixed."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    zero = np.zeros(len(words), dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < words.shape[1] else zero)
            for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(4, words.shape[1]):
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(words[:, i_src]))
    # generate_state: pool words 0 and 1 become the low and high halves.
    output = _hasher(_INIT_B, _MULT_B)
    low, high = (output(word).astype(np.uint64) for word in pool[:2])
    return low | (high << np.uint64(32))


def mix_seeds(*components: int | np.ndarray) -> np.ndarray:
    """:func:`mix_seed` over rows: entry ``i`` is ``mix_seed(c0[i], c1[i],
    ...)``, each component an int or an ``(n,)`` integer array.

    ``SeedSequence`` hashes the concatenated 32-bit words of its entropy,
    one word for a value below 2**32 (zero included) and two above, so rows
    are grouped by their words-per-component layout and each group is
    hashed as one uint32 word matrix.
    """
    if not components:
        raise ValueError("mix_seeds needs at least one component")
    columns = np.broadcast_arrays(*(
        np.atleast_1d(np.uint64(int(c) & _MASK63) if np.ndim(c) == 0
                      else np.asarray(c).astype(np.uint64) & _MASK63)
        for c in components))
    lo = [(v & np.uint64(_MASK32)).astype(np.uint32) for v in columns]
    hi = [(v >> np.uint64(32)).astype(np.uint32) for v in columns]
    layout = sum((h > 0).astype(np.int64) << k for k, h in enumerate(hi))
    out = np.empty(len(columns[0]), dtype=np.uint64)
    # Ascending codes, as np.unique gives, without importing numpy.ma.
    for code in np.flatnonzero(np.bincount(layout)):
        rows = np.flatnonzero(layout == code)
        out[rows] = _mix_words(np.stack(
            [w[rows] for k in range(len(columns))
             for w in ((lo[k], hi[k]) if code >> k & 1 else (lo[k],))],
            axis=1))
    return (out & np.uint64(_MASK63)).astype(np.int64)


@dataclass(frozen=True)
class SeedSequenceBank:
    """Reproducible seed supply for one calibration run.

    Parameters
    ----------
    base_seed:
        Master entropy for the whole run.  Two banks with the same base seed
        produce identical seed sets and ancillary generators.
    """

    base_seed: int = 20240215

    def common_replicate_seeds(self, n_replicates: int) -> list[int]:
        """The shared seed set used across *all* parameter draws.

        Implements the paper's common-random-numbers device: replicate ``r``
        of every theta uses ``seeds[r]``.
        """
        if n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        ss = np.random.SeedSequence(self.base_seed, spawn_key=(_SIMULATION_STREAM,))
        state = ss.generate_state(n_replicates, dtype=np.uint64)
        return [int(s & 0x7FFFFFFFFFFFFFFF) for s in state]

    def ancillary_generator(self, purpose: int = 0,
                            window_index: int | None = None
                            ) -> np.random.Generator:
        """An RNG stream independent of every simulation stream.

        ``purpose`` distinguishes consumers (an :data:`ANCILLARY_PURPOSES`
        entry: 0 = prior sampling, 1 = bias thinning, 2 = resampling, ...),
        so adding a consumer never perturbs the draws of existing ones.

        ``window_index`` derives a further sub-stream per calibration window
        via ``spawn_key=(_ANCILLARY_STREAM, purpose, window_index)``.  Every
        per-window consumer (jitter, bias thinning, resampling) must pass it:
        re-creating the un-windowed stream each window would make every
        window consume the *same* draws, silently correlating its ancillary
        randomness across the whole run.  Omit it only for one-shot consumers
        (first-window prior sampling).
        """
        key: tuple[int, ...] = (_ANCILLARY_STREAM, int(purpose))
        if window_index is not None:
            if window_index < 0:
                raise ValueError("window_index must be >= 0")
            key = key + (int(window_index),)
        ss = np.random.SeedSequence(self.base_seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(ss))

    def window_draw_seed(self, window_index: int, draw_index: int) -> int:
        """Seed of proposal ``draw_index`` in window ``window_index``.

        The adaptive-ensemble restart contract: a pure function of
        ``(base_seed, window_index, draw_index)`` — *not* of the cloud's
        size, the parent particle, or the draw's position inside any shard
        layout.  Growing or shrinking the cloud between windows therefore
        leaves the seeds of all surviving draw indices unchanged (the seed
        vector of a larger cloud extends the smaller one as a prefix), and
        resampled duplicates of one ancestor still diverge because their
        draw indices differ.  The stream tag, in the reserved position right
        after the base seed, keeps these seeds disjoint from every other
        bank stream.
        """
        if window_index < 0 or draw_index < 0:
            raise ValueError("window_index and draw_index must be >= 0")
        return mix_seed(self.base_seed, _WINDOW_DRAW_STREAM, window_index,
                        draw_index)

    def window_draw_seeds(self, window_index: int, n: int) -> np.ndarray:
        """``[window_draw_seed(window_index, i) for i in range(n)]`` as one
        int64 vector, mixed in a single vectorised pass."""
        if window_index < 0 or n < 0:
            raise ValueError("window_index and n must be >= 0")
        return mix_seeds(self.base_seed, _WINDOW_DRAW_STREAM, window_index,
                         np.arange(n))


# --------------------------------------------------------------------------- #
# RNG state (de)serialisation shared by all engines.
#
# These live here — not with the engines — because reconstructing a
# mid-stream generator is RNG construction, and this module is the only
# place allowed to construct RNG state (enforced by repro.analysis).
# --------------------------------------------------------------------------- #
def rng_state_to_jsonable(rng: np.random.Generator) -> dict:
    """Extract the bit-generator state as JSON-safe plain types."""
    state = rng.bit_generator.state
    return {
        "bit_generator": state["bit_generator"],
        "state": {k: int(v) for k, v in state["state"].items()},
        "has_uint32": int(state.get("has_uint32", 0)),
        "uinteger": int(state.get("uinteger", 0)),
    }


def rng_from_jsonable(payload: dict) -> np.random.Generator:
    """Reconstruct a generator mid-stream from its serialised state."""
    name = payload["bit_generator"]
    if name != "PCG64":
        raise ValueError(f"unsupported bit generator {name!r}")
    bg = np.random.PCG64()
    bg.state = {
        "bit_generator": name,
        "state": {k: int(v) for k, v in payload["state"].items()},
        "has_uint32": int(payload.get("has_uint32", 0)),
        "uinteger": int(payload.get("uinteger", 0)),
    }
    return np.random.Generator(bg)
