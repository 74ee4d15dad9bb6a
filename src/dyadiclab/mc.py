"""Seeded Monte Carlo plumbing: per-trial streams, the trial chunk, Wilson intervals,
worker fan-out.

Every entry point and estimator reads a seeded run's inputs before any trial
runs, by the package's one integer rule, ``metric._require_integer``: a
trial count must be an integer >= 1 (else ``InvalidTrials``), a master seed
and a trial index integers >= 0, and a worker count an integer >= 1 (else
``InvalidParams``).  NumPy integers pass; floats, strings and bools are
refused, not truncated.

Trial t of a run with master seed s draws from its own stream,
``trial_rng(s, t)``.  A chunk of trials takes its streams' states, the words
of their PCG64 LCGs, from ``_trial_states`` in blocks of up to 4096 trials,
each a (4, n) uint64 array of state and inc high and low words: a block
comes from one pass of array math over NumPy's seeding hash and PCG64's
seeding step when the entropy fits the hash's pool (s below 2**96 and t
below 2**32, the shape of every ordinary run), and from ``trial_rng``
itself otherwise; each block is built as the chunk reads it, and no more
than one is held at once.

``_trial_chunk`` runs the trials of one chunk for an estimator, which
supplies what a trial computes from its stream (``build``) and what its rows
are, given one coin per trial drawn after it (``finish``).  A trial's part
is a function of its drawn values, so the chunk keeps a memo of the draw
paths of its earlier trials, keyed by the values drawn.  Each block's trials
walk it together (``_walk``), group by group, on the draws their words make,
computed in uint64 array math as NumPy computes them (``_Outputs``,
``_draw``): the outputs by jump-ahead from each state, Lemire's
``integers`` on buffered 32-bit halves, Fisher-Yates ``permutation``, and
the coin from a fresh output; no generator is called.  This module alone
knows how NumPy turns a PCG64 state into draws.

The word math keeps to uint64 arrays with uint64 operands (0-d arrays for
constants): int64 mixed with uint64 promotes to float64 on every numpy, and
a Python int next to a uint64 scalar does under numpy 1.24's value-based
casting.  Trial indices and draw counts are int64 arrays that never meet a
uint64 word.
"""
from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from functools import cache, lru_cache
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
_MIN_OUTPUTS = 512  # the fewest outputs a block's table grows by: fewer cost about as much


def _u64(i: int) -> np.ndarray:
    """A uint64 operand of the word math, as a 0-d array: numpy applies it
    faster than a scalar."""
    return np.array(i, dtype=np.uint64)


_U1, _U11, _U32, _U58, _U63, _U64 = map(_u64, (1, 11, 32, 58, 63, 64))
_LOW, _TWO32 = _u64(_MASK32), _u64(1 << 32)
_PCG_WORDS = _u64(_PCG_MULT >> 64), _u64(_PCG_MULT & _MASK64)


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


# 128-bit numbers as (high, low) pairs of uint64 words, arrays that broadcast.

def _add128(a_hi, a_lo, b_hi, b_lo):
    """a + b mod 2**128: the low words' sum carries into the high word."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """a * b mod 2**128: the low words' 128-bit product from four 32-bit
    partial products, and the cross products, which reach the high word only."""
    a0, a1, b0, b1 = a_lo & _LOW, a_lo >> _U32, b_lo & _LOW, b_lo >> _U32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (p01 & _LOW) + (p10 & _LOW)
    carried = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return carried + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _xsl_rr(hi, lo):
    """PCG64's output of an LCG state: its words xored, rotated right by its
    top 6 bits."""
    word, rot = hi ^ lo, hi >> _U58
    return word >> rot | word << (_U64 - rot & _U63)


def _lcg(rng: np.random.Generator) -> tuple[int, int]:
    """The LCG (state, inc) of a generator on PCG64."""
    words = rng.bit_generator.state["state"]
    return words["state"], words["inc"]


def _pair(states: np.ndarray, t: int) -> tuple[int, int]:
    """The LCG (state, inc) of trial t of a block of states, as ints."""
    s_hi, s_lo, i_hi, i_lo = states[:, t].tolist()
    return s_hi << 64 | s_lo, i_hi << 64 | i_lo


def _trial_states(master_seed: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """An iterator over blocks of up to ``_BLOCK`` trials of [lo, hi), each
    the LCG words of ``trial_rng(master_seed, t)`` for its trials t, a (4, n)
    uint64 array of rows state hi, state lo, inc hi, inc lo; a block is built
    when it is read, and the seed and the indices are ints >= 0.

    When the entropy fits SeedSequence's pool of 4 words, that is the seed is
    below 2**96 and every t below 2**32, a block comes from one pass of array
    math; otherwise from ``trial_rng`` itself."""
    seed_words = _words(master_seed)
    spans = ((t, min(t + _BLOCK, hi)) for t in range(lo, hi, _BLOCK))
    if len(seed_words) >= _POOL or hi > 1 << 32:
        return (_pack([_lcg(trial_rng(master_seed, t)) for t in range(*span)])
                for span in spans)
    return (_state_block(seed_words, *span) for span in spans)


def _pack(pairs: list[tuple[int, int]]) -> np.ndarray:
    """A block of states from LCG (state, inc) int pairs."""
    return np.array([(s >> 64, s & _MASK64, i >> 64, i & _MASK64) for s, i in pairs],
                    dtype=np.uint64).T


def _state_block(seed_words: list[int], lo: int, hi: int) -> np.ndarray:
    """The states of trials [lo, hi) of the seed with these words, from one
    array pass."""
    entropy = np.array([[word] * (hi - lo) for word in seed_words] + [list(range(lo, hi))],
                       dtype=np.uint32)
    pool = _seed_pool(entropy)
    # generate_state(4, uint64): 8 hashed words, cycling the pool
    words = _hash(np.tile(pool, (2, 1)), *_GENERATE_STEPS).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = words[0::2] | words[1::2] << _U32
    # PCG64 seeding: inc = initseq << 1 | 1; from state 0, one step, add
    # initstate, one step
    inc = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
    state = _add128(*_mul128(*_PCG_WORDS, *_add128(*inc, seed_hi, seed_lo)), *inc)
    return np.stack([*state, *inc])


# The draws a NumPy Generator on PCG64 makes from a state just set, computed
# from its LCG words as NumPy computes them, for a group of trials at once.
# A trial's stream of 32-bit draws is its outputs' low halves and high halves
# in turn: after h draws it buffers output h // 2's high half when h is odd,
# and a state set leaves nothing buffered.  tests/test_goodness.py pins every
# draw, and where the stream is left, to NumPy's.

@cache
def _jumps(size: int) -> np.ndarray:
    """The jump constants of j = 0 .. size - 1 LCG steps: j steps take a
    state s to A_j * s + C_j * inc, and column j holds the words of A_j and
    C_j, as rows A hi, A lo, C hi, C lo.  Asked for with powers of two only."""
    columns, a, c = [], 1, 0
    for _ in range(size):
        columns.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
    return np.array(columns, dtype=np.uint64).T.copy()


class _Outputs:
    """The 64-bit outputs of a block of streams, computed as they are read:
    output k of a stream is the XSL-RR of its LCG state after k + 1 steps,
    jumped to as A * state + C * inc, for every k of a read at once.  The
    table holds a row of outputs per trial, little-endian, so that its 32-bit
    view holds a row of draws per trial; a read past its end grows it to
    twice the outputs read, at least twofold, and to ``_MIN_OUTPUTS`` or more."""

    def __init__(self, states: np.ndarray):
        self.states = states[:, None, :]
        self.table = np.empty((states.shape[1], 0), dtype="<u8")
        self.draws = self.table.view("<u4")

    def _cover(self, k: int) -> None:
        """Make the table hold output k."""
        have = self.table.shape[1]
        if k >= have:
            size = max(2 * (k + 1), 2 * have, -(-_MIN_OUTPUTS // len(self.table)))
            # a row per output and a column per trial, so that the loops run along the trials
            a_hi, a_lo, c_hi, c_lo = _jumps(1 << size.bit_length())[:, have + 1:size + 1, None]
            s_hi, s_lo, i_hi, i_lo = self.states
            state = _add128(*_mul128(a_hi, a_lo, s_hi, s_lo), *_mul128(c_hi, c_lo, i_hi, i_lo))
            added = np.asarray(_xsl_rr(*state), dtype="<u8")
            self.table = np.concatenate([self.table, added.T], axis=1)
            self.draws = self.table.view("<u4")

    def halves(self, trials: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The 32-bit draw h of each trial's stream, counted from 0: output
        h // 2's low half for even h, its high half for odd h; int64 arrays
        that broadcast."""
        self._cover(int(h.max(initial=0)) >> 1)
        return self.draws[trials, h].astype(np.uint64)

    def coins(self, trials: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``random()`` after h draws: from a fresh output, output (h + 1) // 2,
        with a buffered half left buffered."""
        k = (h + 1) >> 1
        self._cover(int(k.max()))
        return (self.table[trials, k].astype(np.uint64) >> _U11).astype(np.float64) * 2.0 ** -53


@lru_cache(maxsize=1024)
def _lemire(bounds: tuple) -> tuple | None:
    """For an integers call, the rows of its bounds above 1, those bounds and
    the floors below which Lemire's method rejects a draw's low half, as
    uint64 columns; None when a bound exceeds 2**32."""
    if max(bounds, default=1) > 1 << 32:
        return None
    rows = [i for i, bound in enumerate(bounds) if bound != 1]
    drawn = np.array([bounds[i] for i in rows], dtype=np.uint64)[:, None]
    return rows, drawn, (_TWO32 - drawn) % drawn


def _draw(call: tuple, outputs: _Outputs, trials: np.ndarray,
          pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values that one draw call, ``("integers", bounds)`` or
    ``("permutation", n)``, draws for each of the trials, as a matrix with a
    column per trial, and whether each trial is served; moves each trial's
    count of draws in ``pos`` past the call.  ``integers`` is Lemire's method
    on 32-bit draws, a bound of 1 drawing nothing; a trial is not served
    where one of its draws is rejected and drawn again, nor any where a bound
    exceeds 2**32."""
    name, arg = call
    if name == "permutation":
        return _permutation(arg, outputs, trials, pos), np.ones(len(trials), dtype=bool)
    values = np.zeros((len(arg), len(trials)), dtype=np.int64)
    if (plan := _lemire(arg)) is None:
        return values, np.zeros(len(trials), dtype=bool)
    rows, bounds, floors = plan
    m = outputs.halves(trials, pos[trials] + np.arange(len(rows))[:, None]) * bounds
    values[rows] = (m >> _U32).astype(np.int64)
    pos[trials] += len(rows)
    return values, ((m & _LOW) >= floors).all(axis=0)


def _permutation(n: int, outputs: _Outputs, trials: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``permutation(n)``: Fisher-Yates from the last place down to place 1,
    each swap index a 32-bit draw under the place's bit mask, drawn again
    while above the place, so each trial's count of draws moves on its own."""
    values = np.repeat(np.arange(n, dtype=np.int64)[:, None], len(trials), axis=1)
    cols, at = np.arange(len(trials)), pos[trials]
    for i in range(n - 1, 0, -1):
        mask, place = _u64((1 << i.bit_length()) - 1), _u64(i)
        swap, todo = np.empty(len(trials), dtype=np.uint64), cols
        while todo.size:
            swap[todo] = outputs.halves(trials[todo], at[todo]) & mask
            at[todo] += 1
            todo = todo[swap[todo] > place]
        swap = swap.astype(np.int64)
        held = values[swap, cols]
        values[swap, cols] = values[i]
        values[i] = held
    pos[trials] = at
    return values


class _Memo:
    """A trial chunk's draw memo: the draw paths of the trials it built, as a
    tree whose nodes are numbered from the root, 0.  ``calls[v]`` is the
    draw call made after the values that lead to node v (None until a build
    makes one), ``parts[v]`` the part at the end of a complete path (None
    elsewhere), and ``children[v, values]`` the node that those values of
    v's call lead to."""

    def __init__(self):
        self.calls: list = [None]
        self.parts: list = [None]
        self.children: dict = {}

    def enter(self, path: list, part) -> bool:
        """Enter a recorder's path, with its part at the end; whether the
        path is new."""
        node = 0
        for call, values in path:
            self.calls[node] = call
            child = self.children.get((node, values))
            if child is None:
                child = self.children[node, values] = len(self.calls)
                self.calls.append(None)
                self.parts.append(None)
            node = child
        new, self.parts[node] = self.parts[node] is None, part
        return new


@lru_cache(maxsize=1024)
def _radix(call: tuple) -> np.ndarray:
    """A matrix that packs a column of a call's values into int64 keys,
    exactly: value j, below its bound b_j (n, in each place of a
    permutation), is a digit of base b_j in one key, which takes digits while
    the product of their bases stays within 2**62."""
    name, arg = call
    bases = [arg] * arg if name == "permutation" else arg
    keys, span = [[0] * len(bases)], 1
    for j, base in enumerate(bases):
        if span * base > 1 << 62:
            keys.append([0] * len(bases))
            span = 1
        keys[-1][j] = span
        span *= base
    return np.array(keys, dtype=np.int64)


def _classes(trials: np.ndarray, values: np.ndarray,
             radix: np.ndarray) -> list[tuple[tuple, np.ndarray]]:
    """The trials by their column of values, as (values, trials) pairs, each
    class ascending and the classes in order of their lowest trial;
    ``radix`` packs a column into keys."""
    if len(trials) < 2:
        return [(tuple(values[:, 0].tolist()), trials)] if len(trials) else []
    keys = radix @ values
    order = np.lexsort((trials, *keys))
    keys, trials = keys[:, order], trials[order]
    starts = np.flatnonzero(np.concatenate([[True], (keys[:, 1:] != keys[:, :-1]).any(axis=0)]))
    ends = [*starts[1:].tolist(), len(trials)]
    classes = [(tuple(row), trials[start:end]) for row, start, end
               in zip(values[:, order[starts]].T.tolist(), starts.tolist(), ends)]
    return sorted(classes, key=lambda c: c[1][0])


def _walk(memo: _Memo, outputs: _Outputs, trials: np.ndarray, miss,
          trusted) -> tuple[list, np.ndarray]:
    """Walk trials of a block down the memo from its root, group by group,
    and return the (leaf, trials) pairs of the trials served and each
    trial's count of draws.

    The trials at a node have drawn the same values, so they make the same
    call: one ``_draw`` serves them all, and each class of equal value rows
    goes on to its child.  A trial that is not served is passed to
    ``miss(t)``, which builds it and says whether it entered its path.  So
    is the lowest trial of a class with no child, or of the trials at a node
    with no call yet; if it entered its path, the rest walk on along it, and
    else each is passed to ``miss`` in turn.  Trials reach a leaf, and are
    served its part, only while ``trusted()``; else each is passed to
    ``miss``."""
    pos = np.zeros(outputs.table.shape[0], dtype=np.int64)
    served, groups = [], [(0, trials)]
    while groups:
        node, trials = groups.pop()
        if memo.parts[node] is not None:
            if trusted():
                served.append((node, trials))
            else:
                for t in trials.tolist():
                    miss(t)
            continue
        call = memo.calls[node]
        if call is None:
            classes = [(None, trials)]
        else:
            values, kept = _draw(call, outputs, trials, pos)
            if not kept.all():
                for t in trials[~kept].tolist():
                    miss(t)
                trials, values = trials[kept], values[:, kept]
            classes = _classes(trials, values, _radix(call))
        for row, members in classes:
            after = memo.children.get((node, row))
            if after is None:
                entered, members = miss(int(members[0])), members[1:]
                after = node if row is None else memo.children.get((node, row))
                if not entered or after is None:
                    for t in members.tolist():
                        miss(t)
                    continue
            if members.size:
                groups.append((after, members))
    return served, pos


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


def _words_match(rng: np.random.Generator, outputs: _Outputs) -> bool:
    """Whether a walk on the words of the first trial of a block's outputs
    makes the draws of ``_PROBE``, and the coin after them, as ``rng`` does,
    a generator just seeded at that trial's state."""
    probe = _Memo()
    probe.enter([(call, tuple(getattr(rng, call[0])(call[1]).tolist())) for call in _PROBE], ())
    served, pos = _walk(probe, outputs, np.zeros(1, dtype=np.int64), lambda t: False, lambda: True)
    return bool(served) and outputs.coins(served[0][1], pos[:1])[0] == rng.random()


def _set_state(rng: np.random.Generator, states: np.ndarray, t: int) -> None:
    """Set a generator on PCG64 to trial t of a block of states, with no
    buffered half word."""
    state, inc = _pair(states, t)
    rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}


def _trial_chunk(payload, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of a seeded estimator, with payload (seed, build,
    finish): per trial t, the part ``build(rng)`` of a generator on the
    stream of ``trial_rng(seed, t)``, and the rows ``finish(parts, xi)`` of
    the matrix of parts and the vector of coins xi, each the stream's
    ``random()`` after the build's draws (the rows are the parts themselves
    when ``finish`` is None).  ``build`` may draw only through the
    generator's ``integers(bounds)`` and ``permutation(n)``.

    The chunk reads its trials' PCG64 states, the words of their LCGs, from
    ``_trial_states`` a block at a time, and checks the first against
    ``trial_rng(seed, lo)``.

    A part is a function of its drawn values, and the bounds of each draw
    call are a function of the values before it.  So the chunk keeps, for the
    length of the call, a memo of its trials' draw paths (``_Memo``): a tree
    whose nodes hold the next draw call after a prefix of drawn values, and
    the part at the end of each complete path.  Each block's trials walk it
    together, group by group, on the draws their words make (``_walk``); a
    trial that reaches a part builds nothing, sets no state, and takes xi
    from the words that follow.  Any other, and any trial whose walk meets a
    rejected integers draw or a bound above 2**32, sets the generator state
    its words stand for, with no buffered half word, on one reused
    generator, builds through the recorder that shares the generator's bit
    generator, takes xi from the generator, and enters its path while the
    memo holds fewer than ``_MISS_BUDGET`` paths; the trials that drew the
    values it drew then walk on along that path.  So a chunk builds each
    distinct part about once, and every stream is drawn as if each trial
    built its own.

    No trial is served a part before a walk on the first trial's words makes
    the draws of ``_PROBE``, and the coin after them, as the generator does;
    the probe runs when a trial first reaches a part, so a chunk whose
    trials share no path never runs it.  If it fails, every trial not yet
    built builds, so a NumPy whose draws move costs speed, not correctness:
    a walk that groups trials wrongly only sends them to builds.
    """
    seed, build, finish = payload
    rng = trial_rng(seed, lo)
    blocks = _trial_states(seed, lo, hi)
    first = next(blocks)
    if _lcg(rng) != _pair(first, 0):
        raise RuntimeError("the batched trial states differ from trial_rng: "
                           "numpy's SeedSequence or PCG64 seeding has changed")
    recorder = _recorder_type()(rng.bit_generator)
    memo, paths, rows, trust = _Memo(), 0, [], None

    def trusted() -> bool:
        nonlocal trust
        if trust is None:
            _set_state(rng, first, 0)
            trust = _words_match(rng, _Outputs(first[:, :1]))
        return trust

    for states in itertools.chain([first], blocks):
        built, n = {}, states.shape[1]

        def miss(t: int) -> bool:
            nonlocal paths
            _set_state(rng, states, t)
            recorder.path.clear()
            part = build(recorder)
            built[t] = part, rng.random() if finish is not None else 0.0
            if paths < _MISS_BUDGET:
                paths += memo.enter(recorder.path, part)
                return True
            return False

        leaves, pos = [], None
        if trust is not False:
            outputs = _Outputs(states)
            leaves, pos = _walk(memo, outputs, np.arange(n), miss, trusted)
        else:
            for t in range(n):
                miss(t)
        width = len(memo.parts[leaves[0][0]] if leaves else next(iter(built.values()))[0])
        parts, xi = np.empty((n, width), dtype=np.int64), np.empty(n)
        for leaf, trials in leaves:
            parts[trials] = memo.parts[leaf]
            if finish is not None:
                xi[trials] = outputs.coins(trials, pos[trials])
        for t, (part, coin) in built.items():
            parts[t], xi[t] = part, coin
        rows.append(parts if finish is None else finish(parts, xi))
    return np.concatenate(rows)


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
