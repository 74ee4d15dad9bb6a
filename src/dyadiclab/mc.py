"""Seeded Monte Carlo plumbing: per-trial streams, the trial chunk, Wilson intervals,
worker fan-out.

Every entry point and estimator reads a seeded run's inputs before any trial
runs, by the package's one integer rule, ``metric._require_integer``: a
trial count must be an integer >= 1 (else ``InvalidTrials``), a master seed
and a trial index integers >= 0, and a worker count an integer >= 1 (else
``InvalidParams``).  NumPy integers pass; floats, strings and bools are
refused, not truncated.

Trial t of a run with master seed s draws from its own stream,
``trial_rng(s, t)``.  A chunk of trials takes each stream's state, its PCG64
LCG words as an int pair (state, inc), from ``_trial_states``: the hash
words come from array passes of NumPy's seeding hash over blocks of 4096
trials when the entropy fits the hash's pool (s below 2**96 and t below
2**32, the shape of every ordinary run), and from ``trial_rng`` itself
otherwise; either way each trial's pair is built as the chunk reads it, and
no more than one block is held at once.

``_trial_chunk`` runs the trials of one chunk for an estimator, which
supplies what a trial computes from its stream (``build``) and from one coin
drawn after it (``finish``).  A trial's part is a function of its drawn
values, so the chunk keeps a memo of the draw paths of its earlier trials,
keyed by the values drawn, and a trial walks it on the draws its pair's
words make, computed in plain ints as NumPy computes them (``_walk``), with
no generator call.  This module alone knows how NumPy turns a PCG64 state
into draws.
"""
from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from typing import Iterator

import numpy as np

from .errors import ConfigError, InvalidTrials
from .metric import _integer, _require_integer

__all__ = ["wilson_interval", "trial_rng"]

# two-sided 95% normal quantile
Z95 = 1.959963984540054


def _trial_count(trials) -> int:
    """The trial count as an int, refused with InvalidTrials unless it is an
    integer >= 1: ``range`` would refuse 10.0 with a bare TypeError."""
    return _require_integer("trials", trials, 1, InvalidTrials)


def _master_seed(seed, name: str = "seed") -> int:
    """The master seed (or, by ``name``, a trial index) as an int, refused
    with InvalidParams unless it is an integer >= 0: ``int`` would draw seed
    2's streams for 2.5."""
    return _require_integer(name, seed, 0)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    trials = _trial_count(trials)
    successes = _integer(successes)
    if successes is None or not 0 <= successes <= trials:
        raise InvalidTrials("successes must lie in [0, trials]")
    z = Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent deterministic stream for one trial of a seeded experiment.

    This is the definition of trial ``index``'s stream.  ``_trial_states``
    computes the same streams for a whole chunk of trials at once when the
    seed is below 2**96 and the indices below 2**32, takes them from this
    function otherwise, and is pinned to it by test and by a check in every
    trial chunk.  Both arguments must be integers >= 0.
    """
    return np.random.default_rng([_master_seed(master_seed),
                                  _master_seed(index, "trial index")])


# NumPy's SeedSequence (O'Neill's seed_seq design) with its default pool of 4
# words, then the PCG64 seeding step; their constants, and the hash constants
# of the pool's mixing and of generate_state, which do not depend on the data.
_POOL = 4
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK = 4096  # the trials of one array pass of ``_trial_states``


def _hash_constants(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``steps`` hash steps, as uint32
    columns: step i xors c_i and multiplies by c_(i+1), where c_0 = init and
    c_(i+1) = c_i * mult."""
    chain = [init]
    for _ in range(steps):
        chain.append(chain[-1] * mult & _MASK32)
    column = np.array(chain, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


_MIX_STEPS = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_GENERATE_STEPS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> 16)


def _words(n: int) -> list[int]:
    """The 32-bit words of an int >= 0, least significant first; [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's mixed pool, a (4, n) uint32 array, of each column of an
    (L, n) uint32 array of entropy words that fits the pool (L <= 4)."""
    xor, mult = _MIX_STEPS
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy
    pool = _hash(pool, xor[:_POOL], mult[:_POOL])
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        steps = slice(_POOL + (_POOL - 1) * src, _POOL + (_POOL - 1) * (src + 1))
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[steps], mult[steps]))
    return pool


def _pcg64_state(initstate: int, initseq: int) -> tuple[int, int]:
    """The LCG (state, inc) PCG64 seeds from a 128-bit (initstate, initseq):
    state 0, inc = initseq << 1 | 1, one step, add initstate, one step."""
    inc = (initseq << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc


def _lcg(rng: np.random.Generator) -> tuple[int, int]:
    """The LCG (state, inc) of a generator on PCG64."""
    words = rng.bit_generator.state["state"]
    return words["state"], words["inc"]


# The draws a NumPy Generator on PCG64 makes from a state just set, computed
# in plain ints from its 128-bit LCG (state, inc) as NumPy computes them.  A
# 32-bit draw takes an output's low half, then its buffered high half, kept
# as ``half`` (None when empty, as a state set leaves it).  Each draw takes
# the stream where the last left it, as (state, inc, half), and returns its
# values and the (state, half) after them.  tests/test_goodness.py pins every
# draw, and the state left, to NumPy's.

def _next64(state: int, inc: int) -> tuple[int, int]:
    """One output: the LCG steps, and XSL-RR maps the new state to 64 bits."""
    state = (state * _PCG_MULT + inc) & _MASK128
    word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
    return state, (word >> rot | word << (64 - rot)) & _MASK64


def _walk(calls: dict, state: int, inc: int):
    """The values drawn, one tuple per call, while ``calls`` maps the values
    drawn so far to the next call, ``("integers", bounds)`` or
    ``("permutation", n)``, and the (state, half) after them.  ``integers``
    is Lemire's method on 32-bit draws, a bound of 1 drawing nothing; the
    values are None where one of its draws would be rejected and drawn again,
    or a bound exceeds 2**32."""
    prefix, half = (), None
    while (call := calls.get(prefix)) is not None:
        name, arg = call
        if name == "permutation":
            values, state, half = _permutation(arg, state, inc, half)
        else:
            values = []
            for bound in arg:
                if bound == 1:
                    values.append(0)
                    continue
                if half is None:
                    state, word = _next64(state, inc)
                    draw, half = word & _MASK32, word >> 32
                else:
                    draw, half = half, None
                m = draw * bound
                if bound > 1 << 32 or m & _MASK32 < ((1 << 32) - bound) % bound:
                    return None, state, half
                values.append(m >> 32)
            values = tuple(values)
        prefix += (values,)
    return prefix, state, half


def _permutation(n: int, state: int, inc: int, half):
    """``permutation(n)``: Fisher-Yates from the last place down to place 1,
    each swap index a 32-bit draw under the place's bit mask, drawn again
    while above the place."""
    values = list(range(n))
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if half is None:
                state, word = _next64(state, inc)
                draw, half = word & _MASK32, word >> 32
            else:
                draw, half = half, None
            if (j := draw & mask) <= i:
                break
        values[i], values[j] = values[j], values[i]
    return tuple(values), state, half


def _random(state: int, inc: int, half):
    """``random()``, from a fresh output: the buffered half stays buffered."""
    state, word = _next64(state, inc)
    return (word >> 11) * 2.0 ** -53, state, half


def _trial_states(master_seed: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """An iterator over the LCG (state, inc) of ``trial_rng(master_seed, t)``
    for each t in [lo, hi), which builds each state when it is read; the seed
    and the indices are ints >= 0.

    When the entropy fits SeedSequence's pool of 4 words, that is the seed is
    below 2**96 and every t below 2**32, the states come from passes of
    uint32 array math over blocks of ``_BLOCK`` trials, each made when the
    one before is read out; otherwise from ``trial_rng`` itself."""
    seed_words = _words(master_seed)
    if len(seed_words) >= _POOL or hi > 1 << 32:
        return (_lcg(trial_rng(master_seed, t)) for t in range(lo, hi))
    return itertools.chain.from_iterable(
        _state_block(seed_words, t, min(t + _BLOCK, hi)) for t in range(lo, hi, _BLOCK))


def _state_block(seed_words: list[int], lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """The states of trials [lo, hi) of the seed with these words, from one
    array pass."""
    entropy = np.array([[word] * (hi - lo) for word in seed_words] + [list(range(lo, hi))],
                       dtype=np.uint32)
    pool = _seed_pool(entropy)
    # generate_state(4, uint64): 8 hashed words, cycling the pool
    words = _hash(np.tile(pool, (2, 1)), *_GENERATE_STEPS).astype(np.uint64)
    uint64s = words[0::2] | words[1::2] << np.uint64(32)
    seed_hi, seed_lo, inc_hi, inc_lo = uint64s.tolist()
    return (_pcg64_state(s_hi << 64 | s_lo, i_hi << 64 | i_lo)
            for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo))


_MISS_BUDGET = 256  # draw paths one trial chunk enters in its memo; later misses only build
# the run-time guard's draws: they mix bounds of 1 and the swaps of a permutation
_PROBE = (("integers", (1, 3, 2, 1, 6, 5)), ("permutation", 7))


@cache
def _recorder_type() -> type:
    """The recorder class, made on first use: naming ``np.random`` at import
    would load numpy.random with this module."""

    class Recorder(np.random.Generator):
        """A generator on a shared bit generator that logs the draw calls a
        build makes, as ((method name, argument), drawn values) pairs.  An
        integers call's argument is its bounds as a tuple of ints."""

        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            self.path: list = []

        def _logged(self, call: tuple, values: np.ndarray) -> np.ndarray:
            self.path.append((call, tuple(values.tolist())))
            return values

        def integers(self, bounds):
            logged = tuple(bounds.tolist() if isinstance(bounds, np.ndarray) else bounds)
            return self._logged(("integers", logged), super().integers(bounds))

        def permutation(self, n):
            return self._logged(("permutation", n), super().permutation(n))

    return Recorder


def _words_match(rng: np.random.Generator, state: tuple[int, int]) -> bool:
    """Whether a walk on the words of an LCG (state, inc) makes the draws of
    ``_PROBE``, and the coin after them, as ``rng`` does, a generator just
    seeded at that state."""
    drawn = tuple(tuple(getattr(rng, name)(arg).tolist()) for name, arg in _PROBE)
    prefix, after, half = _walk({drawn[:i]: call for i, call in enumerate(_PROBE)}, *state)
    return prefix == drawn and _random(after, state[1], half)[0] == rng.random()


def _trial_chunk(payload, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of a seeded estimator, with payload (seed, build,
    finish): per trial t, the part ``build(rng)`` of a generator on the
    stream of ``trial_rng(seed, t)``, and the row ``finish(part, xi)``, with
    xi the stream's ``random()`` after the build's draws (the row is the part
    itself when ``finish`` is None).  ``build`` may draw only through the
    generator's ``integers(bounds)`` and ``permutation(n)``.

    The chunk reads each trial's PCG64 state, the int pair (state, inc) of
    its LCG, from ``_trial_states`` as the trial starts, and checks the first
    against ``trial_rng(seed, lo)``.

    A part is a function of its drawn values, and the bounds of each draw
    call are a function of the values before it.  So the chunk keeps, for the
    length of the call, the next draw call after each prefix of drawn values
    (``calls``) and the part at the end of each complete path (``parts``).  A
    trial first walks ``calls`` on the draws that the words of its pair make
    (``_walk``); one whose path is in ``parts`` builds nothing, sets no
    state, and takes xi from the words that follow.  Any other, and any trial
    whose walk meets a rejected integers draw or a bound above 2**32, sets
    the generator state its pair stands for, with no buffered half word, on
    one reused generator, builds through the recorder that shares the
    generator's bit generator, takes xi from the generator, and enters its
    path while ``parts`` holds fewer than ``_MISS_BUDGET`` paths; each such
    miss enters a new one, since a trial whose whole path is entered walks it
    to the end.  So a chunk builds each distinct part about once, and every
    stream is drawn as if each trial built its own.  The walk is used only
    when a walk on the first trial's words makes the draws of ``_PROBE``, and
    the coin after them, as the generator does; else every trial builds, so a
    NumPy whose draws move costs speed, not correctness.
    """
    seed, build, finish = payload
    rng = trial_rng(seed, lo)
    states = _trial_states(seed, lo, hi)
    first = next(states)
    if _lcg(rng) != first:
        raise RuntimeError("the batched trial states differ from trial_rng: "
                           "numpy's SeedSequence or PCG64 seeding has changed")
    served = _words_match(rng, first)
    recorder = _recorder_type()(rng.bit_generator)
    calls, parts, rows = {}, {}, []
    for state, inc in itertools.chain([first], states):
        prefix, after, half = _walk(calls, state, inc) if served else (None, 0, None)
        part = parts.get(prefix)
        hit = part is not None
        if not hit:
            rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": state, "inc": inc}}
            recorder.path.clear()
            part = build(recorder)
            if len(parts) < _MISS_BUDGET:
                prefix = ()
                for call, values in recorder.path:
                    calls[prefix] = call
                    prefix += (values,)
                parts[prefix] = part
        if finish is not None:
            part = finish(part, _random(after, inc, half)[0] if hit else rng.random())
        rows.append(part)
    return np.array(rows, dtype=np.int64)


def worker_count() -> int:
    """Worker count from DYADICLAB_WORKERS; 1 (serial) when unset or empty.
    Raises ConfigError for any other value that is not an integer >= 1."""
    raw = os.environ.get("DYADICLAB_WORKERS", "")
    if not raw:
        return 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(f"DYADICLAB_WORKERS must be an integer >= 1, got {raw!r}")
    return int(raw)


def run_chunked(worker, payload, trials: int, workers: int = 1) -> np.ndarray:
    """Run ``worker(payload, lo, hi)`` over [0, trials) in contiguous chunks.

    The worker must return one row per trial; rows are concatenated in trial
    order, so results do not depend on the number of workers or on scheduling.
    Refuses a trial count or a worker count that is not an integer >= 1.
    """
    trials = _trial_count(trials)
    workers = min(_require_integer("workers", workers, 1), trials)
    if workers <= 1:
        return np.asarray(worker(payload, 0, trials))
    # workers <= trials, so every chunk holds at least one trial
    bounds = np.linspace(0, trials, workers + 1, dtype=int).tolist()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(worker, itertools.repeat(payload), bounds[:-1], bounds[1:]))
    return np.concatenate(parts, axis=0)
