"""Seeded Monte Carlo plumbing: per-trial streams, trial sessions and chunks,
Wilson intervals, worker fan-out.

Every entry point and estimator reads a seeded run's inputs before any trial
runs, by the package's one integer rule, ``metric._require_integer``: a
trial count must be an integer >= 1 (else ``InvalidTrials``), a master seed
and a trial index integers >= 0, and a worker count an integer >= 1 (else
``InvalidParams``).  NumPy integers pass; floats, strings and bools are
refused, not truncated.

Trial t of a run with master seed s draws from its own stream,
``trial_rng(s, t)``.  A chunk of trials takes its streams' states, the words
of their PCG64 LCGs, from ``_trial_states`` in blocks of up to 4096
columns, a span of trials of each job's seed in turn, each block a (4, n)
uint64 array of state and inc high and low words.  The columns of every
seed whose entropy fits the hash's pool (s below 2**96 and t below 2**32,
the shape of every ordinary run) come from one pass of array math over
NumPy's seeding hash and PCG64's seeding step, each column with its own
seed's words; any other seed's come from ``trial_rng`` itself.  Each block
is built as the chunk reads it, and no more than one is held at once.

A run of trials is one ``run_chunked`` call on one build, the function that
draws a trial's forest from its stream, and a list of jobs, one per
estimator: each job supplies its master seed, its rows of a list of forests,
one per forest, and what its rows are, given one coin per trial drawn after
the build (``finish``).  A ``goodness`` command makes one run of its three
estimators' jobs, and a public estimator a run of its own job.  Each chunk
of trials is one ``_trial_chunk`` call, which walks every job's trials
together in one trial session (``_Session``) made for that call, in the
process that runs it; no session is ever sent to another process, and a
run with workers has a process pool of its own.  A forest is a function of
its drawn values, so the session keeps a memo of the draw paths of the
trials built in it, keyed by the values drawn, with the forest at the end of
each path, and the chunk keeps each leaf's row per row function: its jobs
share its forests and, where their row functions are equal, their rows.
Each block's trials, every job's at once, walk the memo together
(``_walk``), group by group, on the draws their words make: one draw and
one class split per memo node serve every job.  The draws are computed in
uint64 array math as NumPy computes them (``_Outputs``, ``_draw``): the
outputs by jump-ahead from each state, Lemire's ``integers`` on buffered
32-bit halves, the one draw a build may make, and the coin from a fresh
output, only for the jobs that draw one; no generator is called.  A refusal
that the joint walk meets sends the chunk back to run its jobs one at a
time, so a run raises the refusal that a run of each job in turn meets
first.

The memo pays only where draw paths repeat: a session records the
probability of each path it enters, and while it has served no trial from
the memo, a chunk stops its memo work once its trials left, of every job,
cannot expect one hit, or the memo's budget of paths is spent
(``_expects_no_hit``), and builds each trial left straight from the
generator, recording, entering and keeping nothing.  On the criterion-7
cascade cloud a path has probability about 1e-19, and a chunk stops after
its first build; on the 3-point elbow no session stops.  A block classifies
the forests it builds together, in one call per row function after its
walk, so the estimator's cube tables and verdicts run on the stack of them.
Whether NumPy draws as the word math does is a fact of the process's NumPy,
checked once per process (``_words_match``, on first use, not at import): if
not, every block's walk stops at its root and every trial builds.  This
module alone knows how NumPy turns a PCG64 state into draws.

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
from functools import cache, lru_cache, partial
from typing import Iterator

import numpy as np

from .errors import ConfigError, DyadicLabError, InvalidTrials
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


def _trial_states(seeds: list[int], lo: int, hi: int) -> Iterator[np.ndarray]:
    """An iterator over blocks of the trials [lo, hi) of each master seed:
    a block holds a span of trials t of every seed in turn, at most
    ``_BLOCK`` columns in all (one trial of each seed at least), each the
    LCG words of ``trial_rng(seed, t)``, as a (4, n) uint64 array of rows
    state hi, state lo, inc hi, inc lo; a block is built when it is read,
    and the seeds and the indices are ints >= 0.

    The seeds whose entropy fits SeedSequence's pool of 4 words, a seed
    below 2**96 with the span's indices below 2**32, take their columns from
    one ``_state_block`` pass; any other seed's come from ``trial_rng``."""
    span = max(1, _BLOCK // len(seeds))
    for start in range(lo, hi, span):
        end = min(start + span, hi)
        batched = [seed for seed in seeds if len(_words(seed)) < _POOL and end <= 1 << 32]
        block = _state_block(batched, start, end) if batched else None
        if len(batched) < len(seeds):  # the other seeds' columns come from trial_rng
            parts = iter(np.hsplit(block, len(batched)) if batched else [])
            block = np.hstack([next(parts) if seed in batched else
                               _pack([_lcg(trial_rng(seed, t)) for t in range(start, end)])
                               for seed in seeds])
        yield block


def _pack(pairs: list[tuple[int, int]]) -> np.ndarray:
    """A block of states from LCG (state, inc) int pairs."""
    return np.array([(s >> 64, s & _MASK64, i >> 64, i & _MASK64) for s, i in pairs],
                    dtype=np.uint64).T


def _state_block(seeds: list[int], lo: int, hi: int) -> np.ndarray:
    """The states of trials [lo, hi) of each seed in turn, from one array
    pass.  A column's entropy is its seed's words, then its trial's, padded
    with zeros to the longest column: the pool reads a word past the end of
    the entropy as a zero, so each column keeps its own stream whatever the
    other seeds' word counts."""
    n, words = hi - lo, [_words(seed) for seed in seeds]
    entropy = np.zeros((max(map(len, words)) + 1, n * len(seeds)), dtype=np.uint32)
    for j, seed_words in enumerate(words):
        columns = slice(j * n, (j + 1) * n)
        entropy[:len(seed_words), columns] = np.array(seed_words, dtype=np.uint32)[:, None]
        entropy[len(seed_words), columns] = np.arange(lo, hi)
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
    twice the outputs read, at least twofold, and to ``_MIN_OUTPUTS`` or more.
    A coin reads one output of each of its trials, computed for them alone."""

    def __init__(self, states: np.ndarray):
        self.states = states
        self.table = np.empty((states.shape[1], 0), dtype="<u8")
        self.draws = self.table.view("<u4")

    def _output(self, k: np.ndarray, trials) -> np.ndarray:
        """Output k of each of the trials, an index into the block; ``k`` is
        an int64 array that broadcasts against them."""
        a_hi, a_lo, c_hi, c_lo = _jumps(1 << (int(k.max()) + 1).bit_length())[:, k + 1]
        s_hi, s_lo, i_hi, i_lo = self.states[:, trials]
        state = _add128(*_mul128(a_hi, a_lo, s_hi, s_lo), *_mul128(c_hi, c_lo, i_hi, i_lo))
        return _xsl_rr(*state)

    def _cover(self, k: int) -> None:
        """Make the table hold output k."""
        have = self.table.shape[1]
        if k >= have:
            size = max(2 * (k + 1), 2 * have, -(-_MIN_OUTPUTS // len(self.table)))
            # a row per output and a column per trial, so that the loops run along the trials
            added = self._output(np.arange(have, size)[:, None], slice(None))
            self.table = np.concatenate([self.table, np.asarray(added, dtype="<u8").T], axis=1)
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
        return (self._output((h + 1) >> 1, trials) >> _U11).astype(np.float64) * 2.0 ** -53


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


def _draw(bounds: tuple, outputs: _Outputs, trials: np.ndarray,
          pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values that one draw call, ``integers(bounds)``, draws for each of
    the trials, as a matrix with a column per trial, and whether each trial
    is served; moves each trial's count of draws in ``pos`` past the call.
    It is Lemire's method on 32-bit draws, a bound of 1 drawing nothing; a
    trial is not served where one of its draws is rejected and drawn again,
    nor any where a bound exceeds 2**32."""
    values = np.zeros((len(bounds), len(trials)), dtype=np.int64)
    if (plan := _lemire(bounds)) is None:
        return values, np.zeros(len(trials), dtype=bool)
    rows, drawn, floors = plan
    m = outputs.halves(trials, pos[trials] + np.arange(len(rows))[:, None]) * drawn
    values[rows] = (m >> _U32).astype(np.int64)
    pos[trials] += len(rows)
    return values, ((m & _LOW) >= floors).all(axis=0)


@lru_cache(maxsize=1024)
def _radix(bounds: tuple) -> np.ndarray:
    """A matrix that packs a column of a call's values into int64 keys,
    exactly: value j, below its bound b_j, is a digit of base b_j in one
    key, which takes digits while the product of their bases stays within
    2**62."""
    keys, span = [[0] * len(bounds)], 1
    for j, base in enumerate(bounds):
        if span * base > 1 << 62:
            keys.append([0] * len(bounds))
            span = 1
        keys[-1][j] = span
        span *= base
    return np.array(keys, dtype=np.int64)


def _classes(trials: np.ndarray, values: np.ndarray,
             radix: np.ndarray) -> list[tuple[tuple, np.ndarray]]:
    """The trials, ascending, by their column of values, as (values, trials)
    pairs, each class ascending and the classes in order of their lowest
    trial; ``radix`` packs a column into keys, and a stable sort on them
    keeps each class in the trials' order."""
    if len(trials) < 2:
        return [(tuple(values[:, 0].tolist()), trials)] if len(trials) else []
    keys = radix @ values
    order = np.lexsort(keys)
    keys, trials = keys[:, order], trials[order]
    starts = np.flatnonzero(np.concatenate([[True], (keys[:, 1:] != keys[:, :-1]).any(axis=0)]))
    ends = [*starts[1:].tolist(), len(trials)]
    classes = [(tuple(row), trials[start:end]) for row, start, end
               in zip(values[:, order[starts]].T.tolist(), starts.tolist(), ends)]
    return sorted(classes, key=lambda c: c[1][0])


def _walk(session: _Session, outputs: _Outputs, trials: np.ndarray, miss,
          stopped=lambda: False) -> tuple[list, np.ndarray]:
    """Walk trials of a block down a session's memo from its root, group by
    group, and return the (leaf, trials) pairs of the trials served and each
    trial's count of draws.

    The trials at a node have drawn the same values, so they make the same
    call: one ``_draw`` serves them all, and each class of equal value rows
    goes on to its child.  A trial that is not served is passed to
    ``miss(t)``, which builds it and says whether it entered its path.  So
    is the lowest trial of a class with no child, or of the trials at a node
    with no call yet; if it entered its path, the rest walk on along it, and
    else each is passed to ``miss`` in turn.  Trials that reach a leaf are
    served its build, and mark the session as one that has served a trial.
    Once ``stopped()``, every trial still on the walk is passed to ``miss``,
    with no further draw: stopped at the root, the walk misses every trial
    in ascending order, and reads no word."""
    pos = np.zeros(outputs.table.shape[0], dtype=np.int64)
    served, groups = [], [(0, trials)]
    while groups:
        node, trials = groups.pop()
        if stopped():
            for t in trials.tolist():
                miss(t)
            continue
        if session.builds[node] is not None:
            session.served = True
            served.append((node, trials))
            continue
        bounds = session.calls[node]
        if bounds is None:
            classes = [(None, trials)]
        else:
            values, kept = _draw(bounds, outputs, trials, pos)
            if not kept.all():
                for t in trials[~kept].tolist():
                    miss(t)
                trials, values = trials[kept], values[:, kept]
            classes = _classes(trials, values, _radix(bounds))
        for row, members in classes:
            after = session.children.get((node, row))
            if after is None:
                entered, members = miss(int(members[0])), members[1:]
                after = node if row is None else session.children.get((node, row))
                if not entered or after is None:
                    for t in members.tolist():
                        miss(t)
                    continue
            if members.size:
                groups.append((after, members))
    return served, pos


_MISS_BUDGET = 256  # draw paths a trial session enters in its memo; later misses build unrecorded
_ROW_BATCH = 16  # the most forests a row function classifies in one call while a block builds
# the run-time guard's draw calls: they mix bounds of 1 with a Lehmer-shaped call, and make
# 9 draws, an odd count, so the coin after them steps over a buffered half word
_PROBE = ((1, 3, 2, 1, 6, 5), (6, 5, 4, 3, 2, 1))


@cache
def _recorder_type() -> type:
    """The recorder class, made on first use: naming ``np.random`` at import
    would load numpy.random with this module."""

    class Recorder(np.random.Generator):
        """A generator on a shared bit generator that logs the integers
        calls a build makes, as (bounds, drawn values) pairs of int tuples."""

        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            self.path: list = []

        def integers(self, bounds):
            values = super().integers(bounds)
            logged = tuple(bounds.tolist() if isinstance(bounds, np.ndarray) else bounds)
            self.path.append((logged, tuple(values.tolist())))
            return values

    return Recorder


@cache
def _words_match() -> bool:
    """Whether this process's NumPy draws as the word math does: the words
    of a fixed stream, ``trial_rng(0, 0)``, make its first 8 outputs, and a
    walk on them makes the draws of ``_PROBE``, and the coin after them, as
    its generator does.  The outputs are compared whole, since the draws read
    no output's low bits: Lemire's value keeps the high half of its product
    and the coin drops the low 11 bits.  Computed on first call, once per
    process; a forked worker inherits a verdict already computed."""
    rng = trial_rng(0, 0)
    outputs = _Outputs(_pack([_lcg(rng)]))
    outputs._cover(7)
    if not np.array_equal(outputs.table[0, :8], trial_rng(0, 0).bit_generator.random_raw(8)):
        return False
    probe = _Session()
    probe.enter([(bounds, tuple(rng.integers(bounds).tolist())) for bounds in _PROBE], ())
    served, pos = _walk(probe, outputs, np.zeros(1, dtype=np.int64), lambda t: False)
    return bool(served) and outputs.coins(served[0][1], pos[:1])[0] == rng.random()


def _set_state(rng: np.random.Generator, states: np.ndarray, t: int) -> None:
    """Set a generator on PCG64 to trial t of a block of states, with no
    buffered half word."""
    state, inc = _pair(states, t)
    rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}


class _Session:
    """A trial session: the draw memo of one trial chunk, whose jobs walk it
    together, as a tree of the draw paths of the trials built in it, whose
    nodes are numbered from the root, 0.  ``calls[v]`` is the bounds of the integers
    call made after the values that lead to node v (None until a build makes
    one), ``builds[v]`` the forest the build made at the end of a complete
    path (None elsewhere), and ``children[v, values]`` the node that those
    values of v's call lead to.
    It also holds the count of paths entered, at most ``_MISS_BUDGET``, their
    probability mass (the sum over paths of the product of 1/b over their
    integers bounds b: each value is a uniform, independent draw of Lemire's
    method, so this is the chance that a trial follows one of them), and
    whether a walk has served a trial from the memo.

    A session lives for one trial chunk, in the process that runs the
    chunk.  ``_MISS_BUDGET`` bounds the forests a session holds, and a
    chunk that stops its memo work after its first build adds one."""

    def __init__(self):
        self.calls, self.builds, self.children = [None], [None], {}
        self.paths, self.mass, self.served = 0, 0.0, False

    def full(self) -> bool:
        """Whether the memo holds its budget of paths, ``_MISS_BUDGET``."""
        return self.paths >= _MISS_BUDGET

    def stops(self, left: int) -> bool:
        """Whether a chunk with ``left`` trials still to build, of all its
        jobs, stops its memo work: never once the session has served a
        trial, and else once ``_expects_no_hit``."""
        return not self.served and _expects_no_hit(self, left)

    def enter(self, path: list, forest) -> int:
        """Enter a build's path, with its forest, and return the path's
        leaf.  A leaf keeps the forest it was first given: the same values
        make the same build."""
        node = 0
        for bounds, values in path:
            self.calls[node] = bounds
            child = self.children.get((node, values))
            if child is None:
                child = self.children[node, values] = len(self.calls)
                self.calls.append(None)
                self.builds.append(None)
            node = child
        if self.builds[node] is None:
            self.builds[node] = forest
            self.paths += 1
            self.mass += 1 / math.prod(b for bounds, _ in path for b in bounds)
        return node


def _expects_no_hit(session: _Session, left: int) -> bool:
    """Whether ``left`` more trials of a chunk cannot expect one memo hit
    in a session that has served none: its budget is spent, or, with mass m
    on its paths, the ``left * m`` hits expected on them and the
    ``C(left, 2) * m / paths`` among the trials themselves (the mean mass of
    a path entered estimates the chance that two trials draw alike) sum
    below 1.  A session with no path has no estimate, and expects a hit."""
    if session.full():
        return True
    m = session.mass
    return session.paths > 0 and left * m + left * (left - 1) / 2 * m / session.paths < 1


def _key(f: partial) -> tuple:
    """The function and arguments of a partial of hashable arguments, by
    which a chunk's jobs with equal row functions share their rows."""
    return f.func, f.args, tuple(f.keywords.items())


def _trial_chunk(payload, lo: int, hi: int) -> list[np.ndarray]:
    """Rows lo..hi-1 of each job of a run, with payload (build, jobs): each
    job (seed, row, finish) is one estimator's, and its rows are those that
    ``_chunk_rows`` gives it in a ``_Session`` made for this call, in the
    process that runs it; no session is ever sent to another process.

    The jobs' trials walk the memo together, so the refusal that the joint
    pass meets first need not be the one that a run of each job in turn
    meets first: on a ``DyadicLabError`` the chunk runs its jobs again, one
    at a time, each a chunk of its own, and so raises the refusal of the
    first job that refuses."""
    build, jobs = payload
    try:
        return _chunk_rows(_Session(), build, jobs, lo, hi)
    except DyadicLabError:
        if len(jobs) == 1:
            raise
        return [_trial_chunk((build, [job]), lo, hi)[0] for job in jobs]


def _chunk_rows(session: _Session, build, jobs: list, lo: int, hi: int) -> list[np.ndarray]:
    """Rows lo..hi-1 of each job in a session: per trial t of job (seed,
    row, finish), the row of the forest that ``build`` makes from a
    generator on the stream of ``trial_rng(seed, t)``, where ``row(forests)``
    gives one int row per forest of a list of forests on the build's space,
    and the rows ``finish(rows, xi)`` of the matrix of those rows and the
    vector of coins xi, each the stream's ``random()`` after the build's
    draws (the rows themselves when ``finish`` is None).  The build, a
    partial of hashable arguments, may draw only through the generator's
    ``integers(bounds)``: the recorder logs no other draw, so a build that
    drew otherwise would share memo leaves between trials that drew apart.

    The chunk reads its trials' PCG64 states, the words of their LCGs, from
    ``_trial_states`` a block at a time: a block's columns are a span of
    trials of each job in job order, and the first trial of each job is
    checked against ``trial_rng(seed, lo)``.

    A build is a function of its drawn values, and the bounds of each draw
    call are a function of the values before it.  So the session keeps a
    memo of the draw paths of the trials built in it: a tree whose nodes
    hold the next draw call after a prefix of drawn values, and a leaf at
    the end of each complete path, which holds the path's forest.  The chunk
    keeps each leaf's row, per row function and its arguments, so that jobs
    with equal row functions share their rows.  Each block's trials, every
    job's at once, walk the memo together, group by group, on the draws
    their words make (``_walk``): one draw and one class split per memo node
    serve every job.  A trial that reaches a leaf builds nothing, sets no state,
    takes the leaf's row, and, where its job has a ``finish``, takes xi from
    the words that follow.  Any other, and any trial whose walk meets a
    rejected integers draw or a bound above 2**32, sets the generator state
    its words stand for, with no buffered half word, on one reused
    generator, builds, and takes xi from the generator.  While the memo
    holds fewer than ``_MISS_BUDGET`` paths it builds through the recorder
    that shares the generator's bit generator and enters its path, and the
    trials that drew the values it drew, of any job, then walk on along that
    path; later misses build on the generator itself.

    The chunk stops its memo work, at its start or after a path entered,
    while the session has served no trial, once ``_expects_no_hit`` for the
    trials of every job it has still to build (``_Session.stops``): its
    budget is spent, or the paths entered make less than one hit expected.
    A stopped walk draws no more, and builds each trial left on the plain
    generator, taking xi from it: it records no draw, enters no path and
    keeps no forest, and its builds are unentered.  A session that has
    served a trial never stops.

    A build computes no row: after the block's walk, one call of each
    distinct row function, in job order, takes every forest the block built
    that needs its row, each new leaf's once and each unentered build's, and
    the forest of any leaf served to its jobs whose row it lacks, whichever
    job built it.  While the block builds, a row function classifies its
    forests each time ``_ROW_BATCH`` of them wait, which bounds what a call
    holds of the unentered builds.  So a session builds each distinct forest
    about once, whichever job meets it first, computes each row once per
    distinct leaf and row function, and draws every stream as if each trial
    built its own forest.

    The walk is stopped, and so builds every trial in ascending order and
    reads no word, while the chunk is stopped or the process's NumPy does
    not draw as the word math does (``_words_match``, computed once per
    process): a NumPy whose draws move costs speed, not correctness.
    """
    blocks = _trial_states([seed for seed, _, _ in jobs], lo, hi)
    first = next(blocks)
    rngs = [trial_rng(seed, lo) for seed, _, _ in jobs]
    if any(_lcg(rng) != _pair(first, j * (first.shape[1] // len(jobs)))
           for j, rng in enumerate(rngs)):
        raise RuntimeError("the batched trial states differ from trial_rng: "
                           "numpy's SeedSequence or PCG64 seeding has changed")
    rng = rngs[0]
    recorder = _recorder_type()(rng.bit_generator)
    # each job's row function, as the first job's whose row function equals it, so that
    # equal ones share their rows of the leaves
    keys = [_key(row) for _, row, _ in jobs]
    kinds, leaf_rows = [keys.index(key) for key in keys], [{} for _ in jobs]
    parts, left = [[] for _ in jobs], len(jobs) * (hi - lo)  # left: trials not yet built
    stopped = session.stops(left)

    for states in itertools.chain([first], blocks):
        n = states.shape[1] // len(jobs)  # job j's trials are the columns j*n .. (j+1)*n - 1
        coined = np.repeat([finish is not None for *_, finish in jobs], n)
        # each column's leaf, or ~t for column t's unentered build, and its coin; per row
        # function, the forests it has to classify, by key; the unentered builds' rows
        leaves, xi = np.empty(states.shape[1], dtype=np.int64), np.zeros(states.shape[1])
        todo, loose = [{} for _ in jobs], {}

        def classify(r: int) -> None:
            """The rows of the forests a row function has to classify, in one call."""
            if todo[r]:
                for key, values in zip(todo[r], jobs[r][1](list(todo[r].values())).tolist()):
                    (leaf_rows[r] if key >= 0 else loose)[key] = values
                todo[r].clear()

        def miss(t: int) -> bool:
            nonlocal left, stopped
            _set_state(rng, states, t)
            left -= 1
            if stopped or session.full():
                forest, key = build(rng), ~t
            else:
                recorder.path.clear()
                forest = build(recorder)
                key = session.enter(recorder.path, forest)
                stopped = session.stops(left)
            leaves[t] = key
            if coined[t]:  # a coin from the generator, not from the words
                xi[t], coined[t] = rng.random(), False
            r = kinds[t // n]
            if key not in leaf_rows[r]:
                todo[r].setdefault(key, forest)
            if len(todo[r]) >= _ROW_BATCH:
                classify(r)
            return key >= 0 and not stopped

        outputs = _Outputs(states)
        served, pos = _walk(session, outputs, np.arange(len(leaves)), miss,
                            lambda: stopped or not _words_match())
        for leaf, trials in served:
            leaves[trials] = leaf
        if (done := np.flatnonzero(coined)).size:  # the trials served whose job has a finish
            xi[done] = outputs.coins(done, pos[done])
        for j, (r, (*_, finish)) in enumerate(zip(kinds, jobs)):
            # the job's distinct keys, ascending, and each column's index among them, from
            # a mask over every key of the block: ~t shifted into [0, N), leaf v to N + v
            keys = leaves[j * n:(j + 1) * n] + len(leaves)
            present = np.zeros(len(leaves) + len(session.builds), dtype=bool)
            present[keys] = True
            seen, inverse = np.flatnonzero(present) - len(leaves), np.cumsum(present)[keys] - 1
            # the leaves served whose rows the function lacks, built by any job
            todo[r].update((leaf, session.builds[leaf]) for leaf in seen[seen >= 0].tolist()
                           if leaf not in leaf_rows[r])
            classify(r)
            rows = [(leaf_rows[r] if key >= 0 else loose)[key] for key in seen.tolist()]
            matrix = np.array(rows, dtype=np.int64)[inverse]
            parts[j].append(matrix if finish is None else finish(matrix, xi[j * n:(j + 1) * n]))
    return [np.concatenate(rows) for rows in parts]


def worker_count() -> int:
    """Worker count from DYADICLAB_WORKERS; 1 (serial) when unset or empty.
    Raises ConfigError for any other value that is not an integer >= 1."""
    raw = os.environ.get("DYADICLAB_WORKERS", "")
    if not raw:
        return 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(f"DYADICLAB_WORKERS must be an integer >= 1, got {raw!r}")
    return int(raw)


def run_chunked(worker, payload, trials: int, workers: int = 1) -> list[np.ndarray]:
    """Run ``worker(payload, lo, hi)`` over [0, trials) in contiguous chunks,
    in this process or on a process pool of this run alone.

    The worker returns one matrix per job of the payload, a row per trial,
    and each job's rows are concatenated in trial order, so results do not
    depend on the number of workers or on scheduling.  A refusal raised in
    a worker process is raised by the whole run in this process, which
    meets first the refusal that a run of each job in turn meets first.
    Refuses a trial count or a worker count that is not an integer >= 1.
    """
    trials = _trial_count(trials)
    workers = min(_require_integer("workers", workers, 1), trials)
    if workers > 1:
        # workers <= trials, so every chunk holds at least one trial
        bounds = np.linspace(0, trials, workers + 1, dtype=int).tolist()
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = pool.map(worker, itertools.repeat(payload), bounds[:-1], bounds[1:])
                return [np.concatenate(rows) for rows in zip(*parts)]
        except DyadicLabError:
            pass  # a later job may refuse in an earlier chunk: the run below raises in job order
    return [np.asarray(rows) for rows in worker(payload, 0, trials)]
