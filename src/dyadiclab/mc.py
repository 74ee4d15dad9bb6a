"""Seeded Monte Carlo plumbing: per-trial streams, trial chunks and their draw
memo, Wilson intervals, worker fan-out.

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

A run of trials is one ``run_chunked`` call on one build and a list of jobs,
one per estimator.  The build gives the first of a trial's states (see
``grids._grid_steps``): a draw state gives the bounds of its one
``integers`` call and leads, on the values drawn, to the next, a stacked
state (the forest's parents, once its grids are drawn) is resolved for many
trials at once, and the last state holds the forest.  Each job supplies its
master seed, its rows of a list of forests, one per forest, and what its
rows are, given one coin per trial drawn after the build (``finish``).  A
``goodness`` command makes one run of its three estimators' jobs, and a
public estimator a run of its own job.  Each chunk of trials is one
``_trial_chunk`` call, which walks every job's trials together on one draw
memo (``_Memo``) made for that call, in the process that runs it; no memo is
ever sent to another process, and a run with workers has a process pool of
its own.  The memo is a tree of the build's states: a node's child is
made, by one step of its state, when a class of trials first reaches it, and
kept while the memo keeps fewer than ``_MISS_BUDGET`` nodes.  Each block's
trials, every job's at once, walk it together (``_walk``), depth first, in
batches of nodes: one draw and one class split per node serve every job, a
batch's stacked states are resolved in one call (every new forest of the
batch linked in one ``lattice._links`` call), its nodes draw in one ragged
call, and its new leaves are classified together, one call per distinct row
function, and then keep only their rows (a kept leaf also its forest).  The
draws are computed in uint64 array math as NumPy computes them
(``_Outputs``, ``_draw``): the outputs by jump-ahead from each state,
Lemire's ``integers`` on buffered 32-bit halves, and the coin from a fresh
output, only for the jobs that draw one; no generator is called.  A trial
whose draw Lemire's method rejects, or whose call has a bound above 2**32,
leaves the walk and builds on its own generator, ``trial_rng(seed, t)``, one
step per draw call; so does every trial when this process's NumPy does not
draw as the word math does, checked once per process (``_words_match``, on
first use, not at import).  A refusal that the joint walk meets sends the
chunk back to run its jobs one at a time, so a run raises the refusal that a
run of each job in turn meets first.  This module alone knows how NumPy
turns a PCG64 state into draws.

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
from .grids import _drive
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
_BLOCK = 4096  # the trials of one array pass of ``_trial_states``, and the outputs of one of ``_Outputs``
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
            table = np.empty((len(self.table), size), dtype="<u8")
            table[:, :have] = self.table
            # a row per output and a column per trial, so that the loops run along the
            # trials, and about _BLOCK outputs per pass, so that a pass holds little
            added = np.arange(have, size)[:, None]
            span = max(1, _BLOCK // len(added))
            for lo in range(0, len(table), span):
                table[lo:lo + span, have:] = self._output(added, slice(lo, lo + span)).T
            self.table, self.draws = table, table.view("<u4")

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


def _draw(calls: list[tuple], outputs: _Outputs, groups: list[np.ndarray],
          pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values that draw calls make, each call ``integers(bounds)`` for
    each trial of its group of trials: a matrix with a column per trial,
    groups in order, and a row per bound of its call (zeros below a shorter
    call's), and whether each trial is served; moves each trial's count of
    draws in ``pos`` past its call.  It is Lemire's method on 32-bit draws, a
    bound of 1 drawing nothing (a call is padded with such bounds); a trial
    is not served where one of its draws is rejected and drawn again, nor
    any where a bound of its call exceeds 2**32."""
    width = max(map(len, calls))
    big = [max(bounds, default=1) > 1 << 32 for bounds in calls]
    padded = np.array([(1,) * width if over else bounds + (1,) * (width - len(bounds))
                       for bounds, over in zip(calls, big)], dtype=np.uint64).T
    call = np.repeat(np.arange(len(calls)), [len(group) for group in groups])
    trials, bounds = np.concatenate(groups), padded[:, call]
    drawn = (bounds != _U1).astype(np.int64)
    m = outputs.halves(trials, pos[trials] + drawn.cumsum(axis=0) - drawn) * bounds
    pos[trials] += drawn.sum(axis=0)
    kept = ((m & _LOW) >= (_TWO32 - bounds) % bounds).all(axis=0) & ~np.array(big)[call]
    return (m >> _U32).astype(np.int64), kept


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
             bounds: tuple) -> list[tuple[tuple, np.ndarray]]:
    """The trials, ascending, by their column of values of a call on
    ``bounds``, as (values, trials) pairs, each class ascending and the
    classes in order of their lowest trial; ``_radix`` packs a column into
    keys, and a stable sort on them keeps each class in the trials' order."""
    if len(trials) < 2:
        return [(tuple(values[:, 0].tolist()), trials)] if len(trials) else []
    keys = _radix(bounds) @ values
    order = np.lexsort(keys)
    keys, trials = keys[:, order], trials[order]
    starts = np.flatnonzero(np.concatenate([[True], (keys[:, 1:] != keys[:, :-1]).any(axis=0)]))
    ends = [*starts[1:].tolist(), len(trials)]
    classes = [(tuple(row), trials[start:end]) for row, start, end
               in zip(values[:, order[starts]].T.tolist(), starts.tolist(), ends)]
    return sorted(classes, key=lambda c: c[1][0])


_MISS_BUDGET = 256  # the most nodes below its root that a trial chunk's memo keeps
_ROW_BATCH = 16  # the most pending nodes that a block's walk takes in one batch
# the run-time guard's draw calls: they mix bounds of 1 with a Lehmer-shaped call, and make
# 9 draws, an odd count, so the coin after them steps over a buffered half word
_PROBE = ((1, 3, 2, 1, 6, 5), (6, 5, 4, 3, 2, 1))


@cache
def _words_match() -> bool:
    """Whether this process's NumPy draws as the word math does: the words
    of a fixed stream, ``trial_rng(0, 0)``, make its first 8 outputs, and
    ``_draw`` on them makes the draws of ``_PROBE``, and the coin after
    them, as its generator does.  The outputs are compared whole, since the
    draws read no output's low bits: Lemire's value keeps the high half of
    its product and the coin drops the low 11 bits.  Computed on first call,
    once per process; a forked worker inherits a verdict already computed."""
    rng = trial_rng(0, 0)
    outputs = _Outputs(_pack([_lcg(rng)]))
    outputs._cover(7)
    if not np.array_equal(outputs.table[0, :8], trial_rng(0, 0).bit_generator.random_raw(8)):
        return False
    trial, pos = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for bounds in _PROBE:
        values, kept = _draw([bounds], outputs, [trial], pos)
        if not kept.all() or values[:, 0].tolist() != rng.integers(bounds).tolist():
            return False
    return outputs.coins(trial, pos)[0] == rng.random()


class _Node:
    """A node of a trial chunk's draw memo: ``state``, the build's state
    that the values drawn on its path lead to, a draw state (bounds, then),
    or a stacked state until its batch resolves it, or (None, forest) at a
    leaf, (None, None) once it keeps only its rows; ``children``, the kept
    nodes that its call's values lead to, by values, or None on a node that
    is not kept; and at a leaf ``rows``, its row per row function."""
    __slots__ = ("state", "children", "rows")

    def __init__(self, state, kept: bool):
        self.state, self.children, self.rows = state, {} if kept else None, {}


class _Memo:
    """A trial chunk's draw memo: a tree of the build's states, from its
    first at the root, which may be a stacked state, resolved in place by
    the first batch of the walk, like any node's.  A node's child is made
    when a class of trials first reaches it, by one step of its state on
    their values.  While a later block may reach it (``keeps``), it is
    kept, if its parent is, up to ``_MISS_BUDGET`` nodes below the root; a
    node that is not kept lives while its trials walk it."""

    def __init__(self, build):
        self.root, self.kept, self.keeps = _Node(build(), True), 0, True

    def child(self, parent: _Node, values: tuple) -> _Node:
        node = (parent.children or {}).get(values)
        if node is None:
            keep = self.keeps and parent.children is not None and self.kept < _MISS_BUDGET
            node = _Node(parent.state[1](values), keep)
            if keep:
                parent.children[values] = node
                self.kept += 1
        return node


def _resolve(nodes: list[_Node]) -> None:
    """Resolve the stacked states of nodes (see ``grids._grid_steps``) in
    place, in one call of their stack function, which a build's nodes
    share, on them in order, so that it raises the refusal of the first
    node that refuses."""
    stacked = [node for node in nodes if callable(node.state[0])]
    if stacked:
        states = stacked[0].state[0]([node.state[1] for node in stacked])
        for node, state in zip(stacked, states):
            node.state = state


def _walk(memo: _Memo, outputs: _Outputs, trials: np.ndarray,
          reach) -> tuple[list[int], np.ndarray]:
    """Walk trials of a block down a memo from its root, depth first, and
    return the trials that leave the walk and each trial's count of draws.

    A pending entry is a class of trials that drew the same values at a
    node; the walk takes up to ``_ROW_BATCH`` of them at a time, from the
    top of its stack, and finds or makes each one's child.  The batch's
    stacked states are then resolved together (``_resolve``): every node
    whose grids are complete is linked in one call.  That is also done, for
    the nodes before it, when a node's step refuses, so a batch raises the
    refusal of its first refusing node, as when each node was linked in
    its own step.  Each batch's leaves are passed to ``reach`` as (leaf,
    trials) pairs; its other nodes make their calls in one ``_draw``, and
    each class of equal values goes on the stack.  A trial whose draw is
    rejected, or whose call has a bound above 2**32, leaves the walk."""
    pos = np.zeros(outputs.table.shape[0], dtype=np.int64)
    loose, pending = [], [(None, None, trials)]
    while pending:
        batch, pending[-_ROW_BATCH:] = pending[-_ROW_BATCH:], []
        nodes = []
        try:
            for parent, values, members in batch:
                nodes.append((memo.root if parent is None else memo.child(parent, values),
                              members))
        except DyadicLabError:
            _resolve([node for node, _ in nodes])  # a node before the refusing one refuses first
            raise
        _resolve([node for node, _ in nodes])
        leaves = [(node, members) for node, members in nodes if node.state[0] is None]
        calls = [(node, members) for node, members in nodes if node.state[0] is not None]
        reach(leaves)
        if not calls:
            continue
        values, kept = _draw([node.state[0] for node, _ in calls], outputs,
                             [members for _, members in calls], pos)
        end = 0
        for node, members in calls:
            start, end = end, end + len(members)
            ok = kept[start:end]
            loose += members[~ok].tolist()
            bounds = node.state[0]
            pending += [(node, row, group) for row, group in _classes(
                members[ok], values[:len(bounds), start:end][:, ok], bounds)]
    return loose, pos


def _key(f: partial) -> tuple:
    """The function and arguments of a partial of hashable arguments, by
    which a chunk's jobs with equal row functions share their rows."""
    return f.func, f.args, tuple(f.keywords.items())


def _trial_chunk(payload, lo: int, hi: int) -> list[np.ndarray]:
    """Rows lo..hi-1 of each job of a run, with payload (build, jobs): each
    job (seed, row, finish) is one estimator's, and its rows are those that
    ``_chunk_rows`` gives it, in the process that runs it.

    The jobs' trials walk the memo together, so the refusal that the joint
    pass meets first need not be the one that a run of each job in turn
    meets first: on a ``DyadicLabError`` the chunk runs its jobs again, one
    at a time, each a chunk of its own, and so raises the refusal of the
    first job that refuses."""
    build, jobs = payload
    try:
        return _chunk_rows(build, jobs, lo, hi)
    except DyadicLabError:
        if len(jobs) == 1:
            raise
        return [_trial_chunk((build, [job]), lo, hi)[0] for job in jobs]


def _chunk_rows(build, jobs: list, lo: int, hi: int) -> list[np.ndarray]:
    """Rows lo..hi-1 of each job: per trial t of job (seed, row, finish),
    the row of the forest that the build's states (``build()`` gives
    the first, see ``grids._grid_steps``) lead to on the values that the
    stream of ``trial_rng(seed, t)`` draws, where ``row(forests)`` gives one
    int row per forest of a list of forests on the build's space, and the
    rows ``finish(rows, xi)`` of the matrix of those rows and the vector of
    coins xi, each the stream's ``random()`` after the build's draws (the
    rows themselves when ``finish`` is None).

    The chunk reads its trials' PCG64 states, the words of their LCGs, from
    ``_trial_states`` a block at a time: a block's columns are a span of
    trials of each job in job order, and the first trial of each job is
    checked against ``trial_rng(seed, lo)``.

    A forest is a function of its drawn values, and each draw's bounds a
    function of the values before it.  So the chunk keeps one memo of the
    build's states (``_Memo``), and each block's trials, every job's at
    once, walk it together (``_walk``), on the draws their words make: one
    draw and one class split per node serve every job, each value and each
    coin is read from the block's words, and a batch's nodes whose grids
    are complete are linked in one call.  A batch's new leaves are
    classified together, one call per distinct row function in job order,
    each leaf for the row functions of the jobs that reach it; a leaf then
    keeps only its rows, and a kept leaf also its forest, for a job that
    reaches it in a later block.  So the chunk builds each distinct forest
    of its kept nodes once, whichever job meets it first, and computes each
    row once per leaf and row function.

    A trial that leaves the walk, on a rejected draw or a bound above
    2**32, builds on its own generator, ``trial_rng(seed, t)``, its
    parents linked as a stack of one (``grids._drive``), and takes
    its coin from it; so does every trial when the process's NumPy does
    not draw as the word math does (``_words_match``, computed once per
    process): a NumPy whose draws move costs speed, not correctness.
    """
    seeds = [seed for seed, _, _ in jobs]
    blocks = _trial_states(seeds, lo, hi)
    first = next(blocks)
    if any(_lcg(trial_rng(seed, lo)) != _pair(first, j * (first.shape[1] // len(jobs)))
           for j, seed in enumerate(seeds)):
        raise RuntimeError("the batched trial states differ from trial_rng: "
                           "numpy's SeedSequence or PCG64 seeding has changed")
    # each job's row function, as the first job's whose row function equals it, so that
    # equal ones share their rows of the leaves
    keys = [_key(row) for _, row, _ in jobs]
    kinds, memo, parts, start = [keys.index(key) for key in keys], _Memo(build), [[] for _ in jobs], lo
    for states in itertools.chain([first], blocks):
        n = states.shape[1] // len(jobs)  # job j's trials are the columns j*n .. (j+1)*n - 1
        coined = np.repeat([finish is not None for *_, finish in jobs], n)
        edges, xi, rows = np.arange(1, len(jobs)) * n, np.zeros(len(coined)), [None] * len(jobs)

        def reach(leaves: list) -> None:
            """Fill each job's rows of the trials at a batch's leaves, after
            one call per row function on the leaves that lack its rows."""
            mine, todo = [[] for _ in jobs], {}
            for leaf, trials in leaves:
                for j, part in enumerate(np.split(trials, np.searchsorted(trials, edges))
                                         if len(jobs) > 1 else [trials]):
                    if part.size:
                        mine[j].append((leaf, part))
                        if kinds[j] not in leaf.rows:
                            todo.setdefault(kinds[j], {})[id(leaf)] = leaf
            for r, needed in sorted(todo.items()):
                forests = [leaf.state[1] for leaf in needed.values()]
                for leaf, values in zip(needed.values(), jobs[r][1](forests).tolist()):
                    leaf.rows[r] = values
            for j, pairs in enumerate(mine):
                if pairs:
                    table = np.array([leaf.rows[kinds[j]] for leaf, _ in pairs], dtype=np.int64)
                    if rows[j] is None:
                        rows[j] = np.empty((n, table.shape[1]), dtype=np.int64)
                    rows[j][np.concatenate([part for _, part in pairs]) - j * n] = table.repeat(
                        [len(part) for _, part in pairs], axis=0)
            for leaf, _ in leaves:
                if leaf.children is None or len(leaf.rows) == len(set(kinds)):
                    leaf.state = (None, None)  # its rows are all that a trial can read

        loose = list(range(len(coined)))
        if _words_match():
            outputs, memo.keeps = _Outputs(states), start + n < hi
            loose, pos = _walk(memo, outputs, np.arange(len(coined)), reach)
            walked = coined.copy()
            walked[loose] = False
            if (done := np.flatnonzero(walked)).size:
                xi[done] = outputs.coins(done, pos[done])
        for i in range(0, len(loose), _ROW_BATCH):
            leaves = []
            for t in loose[i:i + _ROW_BATCH]:
                rng = trial_rng(seeds[t // n], start + t % n)
                leaves.append((_Node((None, _drive(build(), rng)), False), np.array([t])))
                if coined[t]:
                    xi[t] = rng.random()
            reach(leaves)
        for j, (*_, finish) in enumerate(jobs):
            parts[j].append(rows[j] if finish is None else finish(rows[j], xi[j * n:(j + 1) * n]))
        start += n
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
