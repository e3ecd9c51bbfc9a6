"""Exact probability computations over dense finite-alphabet tables.

A distribution is a nonnegative numpy array summing to one, axes carry
names, and every information quantity is reported in bits with the
convention 0*log(0) = 0.  All functions are pure: same inputs give
bit-identical outputs.

The module also holds the lane-wise PCG64 kernel: numpy's SeedSequence
seeding and PCG64 stepping on uint64 halves, for many generators at once
(_pcg64_outputs) or any run of one stream (_pcg64_stream).  Every seeded
draw of the toolkit comes from it, bit for bit numpy's default_rng, so no
subcommand loads numpy.random.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .clamp import _clamp_mi
from .errors import UsageError, ValidationError

MASS_TOL = 1e-12
MAX_TABLE_ENTRIES = 10_000_000
BYTE_BUDGET = 2 ** 30   # what a simulation or a region search holds whole, checked first

Axes = tuple[tuple[str, int], ...]


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _entropy_bits(table: np.ndarray) -> float:
    flat = np.asarray(table, dtype=float).ravel()
    pos = flat[flat > 0.0]
    if pos.size == 0:
        return 0.0
    return float(-(pos * np.log2(pos)).sum())


def _entropy_bits_batch(tables: np.ndarray) -> np.ndarray:
    """_entropy_bits of each table along the leading axis, bit for bit.

    Each row's positive terms are packed to its front and summed over
    exactly their count, so numpy's pairwise summation groups them as it
    does for the filtered vector in _entropy_bits.  When every entry is
    positive, the rows are already packed and are summed as they stand.
    """
    flat = tables.reshape(len(tables), -1)
    pos = flat > 0.0
    if pos.all():
        terms = np.log2(flat)
        terms *= flat
        return -terms.sum(axis=1)
    terms = np.zeros_like(flat)
    np.log2(flat, out=terms, where=pos)
    terms *= flat
    counts = pos.sum(axis=1)
    order = np.argsort(~pos, axis=1, kind="stable")
    terms = np.take_along_axis(terms, order, axis=1)
    out = np.zeros(len(flat))
    # the distinct positive counts, ascending (np.unique would first import
    # numpy.ma, about 0.5 MiB, to test the counts for a mask)
    for count in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        rows = counts == count
        out[rows] = -terms[rows, :count].sum(axis=1)
    return out


def _ordered_sum(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """a.sum(axis=axes) of a nonempty C-contiguous float64 array, bit for
    bit, in a few whole-array numpy calls instead of numpy's one inner loop
    per run of the last axis.

    numpy's order: length-1 axes drop out and neighbouring axes of one kind
    (both summed or both kept) merge.  If the last merged axis is summed,
    each of its runs is summed pairwise, left to right below 8 terms.  Each
    output entry starts at 0.0 and adds those run sums, or the entries
    themselves when the last axis is kept, for every other summed index
    left to right, in C order.  A numpy that sums in another order fails
    the guard in tests/test_probability.py.
    """
    summed = {axis % a.ndim for axis in axes}
    runs: list[list] = []               # [is summed, length] of each merged axis
    for axis, n in enumerate(a.shape):
        if n == 1:
            continue
        if runs and runs[-1][0] == (axis in summed):
            runs[-1][1] *= n
        else:
            runs.append([axis in summed, n])
    part = a.reshape([n for _, n in runs])
    if runs and runs[-1][0]:
        n = runs.pop()[1]
        if n < 8:
            rows = part
            part = rows[..., 0] + rows[..., 1]
            for i in range(2, n):
                part += rows[..., i]
        else:
            part = part.sum(axis=-1)
    out = np.zeros([n for axis, n in enumerate(a.shape) if axis not in summed])
    total = out.reshape([n for is_summed, n in runs if not is_summed])
    outer = [i for i, (is_summed, _) in enumerate(runs) if is_summed]
    pick: list = [slice(None)] * len(runs)
    for index in np.ndindex(*(runs[i][1] for i in outer)):
        for i, j in zip(outer, index):
            pick[i] = j
        total += part[tuple(pick)]
    return out


def _check_stack(table: np.ndarray, mass_axes: tuple[int, ...], what: str) -> None:
    """The table checks of the constructors, over every mass at once.

    Entries must be finite and nonnegative, and the sum over `mass_axes`
    must be 1 within MASS_TOL wherever it is taken.  Written so that NaN
    fails every test rather than passing it.
    """
    if not np.isfinite(table).all():
        raise ValidationError(f"{what} has a non-finite entry")
    if np.any(table < 0.0):
        raise ValidationError(f"{what} has a negative entry")
    mass = table.sum(axis=mass_axes)
    off = np.abs(mass - 1.0)
    if not (off <= MASS_TOL).all():
        if mass.ndim == 0:
            raise ValidationError(f"{what} mass {float(mass)!r} is not 1 within {MASS_TOL}")
        cell = np.unravel_index(int(off.argmax()), mass.shape)
        raise ValidationError(
            f"{what} rows must sum to 1: conditional cell {cell} is off by "
            f"{float(off.max()):.3e}")


@dataclass(frozen=True)
class Pmf:
    """Distribution of a single named variable."""

    label: str
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1:
            raise ValidationError(f"pmf '{self.label}' must be a vector, got shape {probs.shape}")
        if probs.size == 0:
            raise ValidationError(f"pmf '{self.label}' is empty")
        _check_stack(probs, (0,), f"pmf '{self.label}'")
        object.__setattr__(self, "probs", _freeze(probs))

    @property
    def cardinality(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class JointPmf:
    """Joint distribution over named axes, stored as one dense table."""

    axes: Axes
    table: np.ndarray

    def __post_init__(self):
        axes = tuple((str(n), int(c)) for n, c in self.axes)
        names = [n for n, _ in axes]
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate axis names in {names}")
        if any(c < 1 for _, c in axes):
            raise ValidationError("axis cardinalities must be positive")
        expected = tuple(c for _, c in axes)
        if math.prod(expected) > MAX_TABLE_ENTRIES:
            raise UsageError(
                f"dense table with {math.prod(expected)} entries exceeds the "
                f"{MAX_TABLE_ENTRIES}-entry cap")
        table = np.asarray(self.table, dtype=float)
        if table.shape != expected:
            raise ValidationError(f"table shape {table.shape} does not match axes {axes}")
        _check_stack(table, tuple(range(table.ndim)), "joint table")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "table", _freeze(table))

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.axes)

    def axis_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.axes):
            if n == name:
                return i
        raise UsageError(f"unknown axis '{name}'; have {self.axis_names}")

    def cardinality(self, name: str) -> int:
        return self.axes[self.axis_index(name)][1]


@dataclass(frozen=True)
class TransitionKernel:
    """Conditional distribution of the output axes given the input axes.

    The table has shape inputs + outputs and every conditional slice
    (inputs fixed) sums to one.
    """

    input_axes: Axes
    output_axes: Axes
    table: np.ndarray

    def __post_init__(self):
        inputs = tuple((str(n), int(c)) for n, c in self.input_axes)
        outputs = tuple((str(n), int(c)) for n, c in self.output_axes)
        names = [n for n, _ in inputs + outputs]
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate axis names in kernel: {names}")
        expected = tuple(c for _, c in inputs + outputs)
        table = np.asarray(self.table, dtype=float)
        if table.shape != expected:
            raise ValidationError(
                f"kernel shape {table.shape} does not match axes {inputs} -> {outputs}")
        _check_stack(table, tuple(range(len(inputs), table.ndim)), "kernel")
        object.__setattr__(self, "input_axes", inputs)
        object.__setattr__(self, "output_axes", outputs)
        object.__setattr__(self, "table", _freeze(table))

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.input_axes)

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.output_axes)


def entropy(p: Pmf) -> float:
    """Shannon entropy in bits."""
    return _entropy_bits(p.probs)


def joint_entropy(joint: JointPmf, group: Iterable[str] | None = None) -> float:
    """Entropy in bits of a group of axes (all axes when group is None)."""
    if group is None:
        return _entropy_bits(joint.table)
    return _entropy_bits(marginalize(joint, tuple(group)).table)


def marginalize(joint: JointPmf, keep: Sequence[str]) -> JointPmf:
    """Sum out every axis not listed in `keep`, preserving axis order."""
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise UsageError(f"duplicate axes in keep list {keep}")
    indices = {name: joint.axis_index(name) for name in keep}
    drop = tuple(i for i, (n, _) in enumerate(joint.axes) if n not in indices)
    table = joint.table.sum(axis=drop) if drop else joint.table
    axes = tuple(a for a in joint.axes if a[0] in indices)
    return JointPmf(axes, table)


def mutual_information(joint: JointPmf, group_a: Iterable[str],
                       group_b: Iterable[str]) -> float:
    """I(A;B) in bits between two disjoint groups of axes."""
    a = tuple(group_a)
    b = tuple(group_b)
    if not a or not b:
        raise UsageError("mutual information needs two nonempty groups")
    if set(a) & set(b):
        raise UsageError(f"groups overlap: {sorted(set(a) & set(b))}")
    sub = marginalize(joint, a + b)
    h_ab = _entropy_bits(sub.table)
    h_a = _entropy_bits(marginalize(sub, a).table)
    h_b = _entropy_bits(marginalize(sub, b).table)
    return _clamp_mi(h_a + h_b - h_ab)


def compose(state_pmf: JointPmf, policy: TransitionKernel,
            main_kernel: TransitionKernel,
            wiretap_kernel: TransitionKernel) -> JointPmf:
    """Assemble the full joint over (u, x, v1, v2, y, z).

    The factorization p(v1,v2) * p(u,x|v1,v2) * p(y|x,v1) * p(z|x,v2) makes
    u -> (x,v1,v2) -> (y,z) a Markov chain by construction.
    """
    if state_pmf.axis_names != ("v1", "v2"):
        raise UsageError(f"state pmf axes must be ('v1','v2'), got {state_pmf.axis_names}")
    c_v1 = state_pmf.cardinality("v1")
    c_v2 = state_pmf.cardinality("v2")
    _require_kernel(policy, ("v1", "v2"), ("u", "x"), {"v1": c_v1, "v2": c_v2})
    c_u = dict(policy.output_axes)["u"]
    c_x = dict(policy.output_axes)["x"]
    _require_kernel(main_kernel, ("x", "v1"), ("y",), {"x": c_x, "v1": c_v1})
    _require_kernel(wiretap_kernel, ("x", "v2"), ("z",), {"x": c_x, "v2": c_v2})
    c_y = dict(main_kernel.output_axes)["y"]
    c_z = dict(wiretap_kernel.output_axes)["z"]
    total = c_u * c_x * c_v1 * c_v2 * c_y * c_z
    if total > MAX_TABLE_ENTRIES:
        raise UsageError(
            f"composed joint would hold {total} entries, above the "
            f"{MAX_TABLE_ENTRIES}-entry cap")
    table = np.einsum("ab,abux,xay,xbz->uxabyz", state_pmf.table, policy.table,
                      main_kernel.table, wiretap_kernel.table, optimize=True)
    axes = (("u", c_u), ("x", c_x), ("v1", c_v1), ("v2", c_v2), ("y", c_y), ("z", c_z))
    return JointPmf(axes, table)


def _require_kernel(kernel: TransitionKernel, inputs: tuple[str, ...],
                    outputs: tuple[str, ...], cards: dict[str, int]) -> None:
    if kernel.input_names != inputs or kernel.output_names != outputs:
        raise UsageError(
            f"kernel axes {kernel.input_names} -> {kernel.output_names} do not "
            f"match required {inputs} -> {outputs}")
    for name, card in kernel.input_axes:
        if cards.get(name, card) != card:
            raise UsageError(
                f"kernel input '{name}' has cardinality {card}, expected {cards[name]}")


# numpy's SeedSequence hash and PCG64 seeding constants (bit_generator.pyx,
# pcg64.h), which numpy's RNG policy (NEP 19) keeps stable
_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_PCG_MULT_HALVES = (np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64))
_SEED_BATCH = 4096          # indices hashed at once


def _words(value: int) -> list[int]:
    """SeedSequence's 32-bit words of a nonnegative int, lowest first."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, np.uint64) as four uint64
    arrays, one seed per element; every entropy word is a uint32 array that
    broadcasts to the elements."""
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return out ^ (out >> np.uint32(16))

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:                  # entropy past the pool
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for k in range(8):
        value = pool[k % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [state[k] | state[k + 1] << np.uint64(32) for k in range(0, 8, 2)]


def _seed_runs(first: int, count: int) -> Iterator[tuple[int, int]]:
    """(index, stop) runs that split first .. first + count - 1 into batches
    of at most _SEED_BATCH indices sharing every SeedSequence word but the
    lowest."""
    index, end = first, first + count
    while index < end:
        stop = min(end, index + _SEED_BATCH, ((index >> 32) + 1) << 32)
        yield index, stop
        index = stop


def _mulhi(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b of uint64s, from 32-bit
    limbs, in place where it can: four product-sized arrays at most."""
    a_low, a_high = a & _MASK32, a >> 32
    b_low, b_high = b & _MASK32, b >> 32
    cross_a, cross_b = a_low * b_high, a_high * b_low
    high = a_low * b_low
    high >>= 32
    high += cross_a & _MASK32
    high += cross_b & _MASK32
    high >>= 32                 # the carry out of the middle limb
    cross_a >>= 32
    high += cross_a
    del cross_a
    cross_b >>= 32
    high += cross_b
    del cross_b
    high += a_high * b_high
    return high


def _mul128(a, b):
    """a * b mod 2^128 for (high, low) pairs of uint64s."""
    high = _mulhi(a[1], b[1])
    high += a[1] * b[0]
    high += a[0] * b[1]
    return high, a[1] * b[1]


def _add128(a, b):
    """a + b mod 2^128 for (high, low) pairs of uint64s."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _halves(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as (high, low) uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _jump(steps: int) -> tuple[int, int]:
    """(mult^steps, 1 + mult + ... + mult^(steps-1)) mod 2^128: `steps`
    PCG64 steps take state s with increment c to mult^steps * s + (1 + ...
    + mult^(steps-1)) * c.  Squares and multiplies, as numpy's advance."""
    scale, shift, step_scale, step_shift = 1, 0, _PCG_MULT, 1
    while steps:
        if steps & 1:
            scale, shift = scale * step_scale & _MASK128, (shift * step_scale + step_shift) & _MASK128
        step_scale, step_shift = (step_scale * step_scale & _MASK128,
                                  step_shift * (step_scale + 1) & _MASK128)
        steps >>= 1
    return scale, shift


def _jumps(counts: range, steps: int = 1):
    """_jump(j * steps) for each j of `counts`, as (scale, shift) halves."""
    scales, shifts = zip(*(_jump(j * steps) for j in counts))
    return _halves(scales), _halves(shifts)


_PCG_ROUND = 8              # steps a lane of _pcg64_lanes takes at once
_PCG_JUMPS = _jumps(range(1, _PCG_ROUND + 1))
_STREAM_LANES = 512         # lanes _pcg64_stream steps at once at most
_SUBLANE = 128              # outputs of a generator _pcg64_outputs steps as one lane at most


def _pcg64_seeded(prefix: Sequence[int], first: int, count: int):
    """PCG64's (state, increment) for default_rng([*prefix, i]), i in a run of
    _seed_runs, as (high, low) pairs of uint64 arrays.

    SeedSequence gives the seed s and the word w; numpy's pcg64_set_seed
    takes the increment c = 2w + 1 and steps, adds s and steps from zero:
    state (c + s) * mult + c, mod 2^128.
    """
    high = first >> 32
    head = [np.array([w], dtype=np.uint32) for value in prefix for w in _words(int(value))]
    low = np.arange(first & _MASK32, (first & _MASK32) + count, dtype=np.uint32)
    rest = [np.array([w], dtype=np.uint32) for w in _words(high)] if high else []
    seed_high, seed_low, word_high, word_low = _seed_words(head + [low] + rest)
    inc = word_high << 1 | word_low >> 63, word_low << 1 | 1
    return _add128(_mul128(_add128(inc, (seed_high, seed_low)), _PCG_MULT_HALVES), inc), inc


def _pcg64_lanes(state, inc, out: np.ndarray) -> None:
    """Fill `out` (lanes, k) with the next k outputs of each lane, a PCG64
    generator at `state` with increment `inc`, (high, low) pairs of uint64
    arrays (lanes, 1); the increments may broadcast.

    PCG64 (O'Neill 2014) steps a 128-bit LCG, state * mult + c, and outputs
    XSL-RR of the new state: the xor of its halves rotated right by its top
    six bits.  The 128-bit arithmetic runs on uint64 halves, _PCG_ROUND
    steps at once: each jumps from the last state through _PCG_JUMPS.
    Beside `out`, a lane holds eight words a step of the round: the
    offsets' two halves, the new states' two and _mulhi's four arrays.
    """
    (scale_high, scale_low), (shift_high, shift_low) = _PCG_JUMPS
    state_high, state_low = state
    off_high, off_low = _mul128(inc, (shift_high, shift_low))      # (lanes or 1, round)
    k = out.shape[1]
    for lo in range(0, k, _PCG_ROUND):
        width = min(_PCG_ROUND, k - lo)
        high, low = _mul128((state_high, state_low), (scale_high[:width], scale_low[:width]))
        low += off_low[:, :width]
        high += off_high[:, :width]
        high += low < off_low[:, :width]
        state_high, state_low = high[:, -1:].copy(), low[:, -1:].copy()
        low ^= high                                 # XSL-RR, in place
        high >>= 58
        np.right_shift(low, high, out=out[:, lo:lo + width])
        np.subtract(64, high, out=high)
        high &= 63
        low <<= high
        out[:, lo:lo + width] |= low
        del high, low                               # before the next round's


def _sublanes(k: int) -> tuple[int, int]:
    """(sub-lanes, width): _pcg64_outputs steps a generator's k outputs as
    one lane up to _SUBLANE outputs, and past that as sub-lanes of about
    _SUBLANE consecutive outputs or more, _STREAM_LANES at most."""
    if k <= _SUBLANE:
        return 1, k
    lanes = min(_STREAM_LANES, -(-k // _SUBLANE))
    width = -(-k // (lanes * _PCG_ROUND)) * _PCG_ROUND
    return -(-k // width), width


@functools.lru_cache(maxsize=8)
def _sublane_jumps(lanes: int, width: int):
    """_jump(l * width) for l = 0 .. lanes - 1, as halves."""
    return _jumps(range(lanes), width)


def _pcg64_outputs(prefix: Sequence[int], first: int, count: int, k: int) -> np.ndarray:
    """(count, k) uint64: row i - first holds the first k outputs of
    np.random.default_rng([*prefix, i]), bit for bit its bit generator's
    random_raw(k).  Every generator is a lane of _pcg64_lanes, seeded a
    batch of _seed_runs at a time.  A run longer than _SUBLANE is cut
    into sub-lanes (_sublanes), each started by PCG64's jump-ahead as in
    _pcg64_stream, so it takes about _SUBLANE / _PCG_ROUND rounds and
    not k / _PCG_ROUND.  The held words are _pcg64_words(k) per generator.
    """
    lanes, width = _sublanes(k)
    out = np.empty((count, lanes * width), dtype=np.uint64)
    for index, stop in _seed_runs(first, count):
        state, inc = (tuple(half[:, None] for half in pair)
                      for pair in _pcg64_seeded(prefix, index, stop - index))
        if lanes > 1:
            scales, shifts = _sublane_jumps(lanes, width)
            state = tuple(half.reshape(-1, 1) for half in
                          _add128(_mul128(scales, state), _mul128(shifts, inc)))
            inc = tuple(np.repeat(half, lanes, axis=0) for half in inc)
        _pcg64_lanes(state, inc, out[index - first:stop - first].reshape(-1, width))
    return out[:, :k]


def _pcg64_words(k: int) -> int:
    """uint64s _pcg64_outputs holds per generator of k outputs at most: for
    each sub-lane its outputs, eight for each step of a round and, when
    there are several, eight for its start."""
    lanes, width = _sublanes(k)
    return lanes * (width + 8 * _PCG_ROUND + (8 if lanes > 1 else 0))


@functools.lru_cache(maxsize=8)
def _stream_seed(prefix: tuple[int, ...], index: int) -> tuple[int, int]:
    """default_rng([*prefix, index])'s PCG64 (state, increment), as ints."""
    (state_high, state_low), (inc_high, inc_low) = _pcg64_seeded(prefix, index, 1)
    return (int(state_high[0]) << 64 | int(state_low[0]),
            int(inc_high[0]) << 64 | int(inc_low[0]))


@functools.lru_cache(maxsize=8)
def _lane_jumps(width: int):
    """_jump(l * width) for l = 0 .. _STREAM_LANES - 1, as halves."""
    return _jumps(range(_STREAM_LANES), width)


def _pcg64_stream(prefix: Sequence[int], index: int, start: int, count: int) -> np.ndarray:
    """Outputs start .. start + count - 1 of the one stream of
    np.random.default_rng([*prefix, index]), bit for bit its bit
    generator's random_raw(count) after `start` outputs.

    The run is cut into lanes of consecutive outputs that _pcg64_lanes
    steps together: as few rounds as _STREAM_LANES lanes at most allow.
    Lane l starts from the state after start + l * width steps, PCG64's
    jump-ahead: mult^j * s + (1 + mult + ... + mult^(j-1)) * c for j steps
    from state s with increment c.  The held words are the outputs and
    _pcg64_words(0) a lane: 8 bytes an output and 256 KiB at most.
    """
    state, inc = _stream_seed(tuple(int(value) for value in prefix), int(index))
    lanes = min(_STREAM_LANES, -(-count // _PCG_ROUND))
    width = -(-count // (lanes * _PCG_ROUND)) * _PCG_ROUND
    lanes = -(-count // width)
    scale, shift = _jump(start)
    base = _halves([(scale * state + shift * inc) & _MASK128])
    inc_halves = _halves([inc])
    scales, shifts = (tuple(half[:lanes] for half in pair) for pair in _lane_jumps(width))
    starts = _add128(_mul128(scales, base), _mul128(shifts, inc_halves))
    out = np.empty((lanes, width), dtype=np.uint64)
    _pcg64_lanes(tuple(half[:, None] for half in starts),
                 tuple(half[:, None] for half in inc_halves), out)
    return out.reshape(-1)[:count]

