"""Achievable rate-equivocation points for discrete wiretap channels.

The transmitter sees the main-channel state noncausally, the eavesdropper's
state stays hidden, and an auxiliary variable u carries the message.  For a
policy p(u,x|v1,v2) the operative quantities are

    r_u1 = I(u;y) - max{I(u;v1,v2), I(u;z)}
    r_u2 = I(u;y) - I(u;v1,v2)

and every pair (R, d) with r_u1 <= R <= r_u2, 0 <= d <= 1 and R*d = r_u1 is
achievable, together with everything dominated by such a pair.  Policies are
searched by seeded Dirichlet sampling over the conditional simplex plus an
optional coarse deterministic grid.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import probability
from .clamp import _clamp_mi
from .errors import UsageError
from .modelio import BLOCK_ROWS
# marginalize is unused here; the benchmark's tracer wraps it in this namespace
from .probability import (JointPmf, TransitionKernel, compose, marginalize,  # noqa: F401
                          mutual_information, _check_stack, _entropy_bits_batch,
                          _ordered_sum)

U_CARD_SLACK = 4           # auxiliary alphabet may exceed |x||v1||v2| by this much
GRID_POLICY_CAP = 300_000  # refuse grids that would enumerate more policies
RATE_FLOOR = 1e-12
# what a region search holds, charged by _check_budget (tracemalloc-measured)
POLICY_BYTES = 128         # profile rows of both streams, the kept id, summary temporaries
POINT_BYTES = 24           # a point's r, d and policy_id
ROW_BYTES = 256            # a row of a layout or write block (234 B measured)
JOINT_BYTES = 32           # a composed joint entry of one stack, draws included (14-21 B measured)
# a policy of one stack, beside its table and joint: the draws' running sum,
# the repeated stack, the checks' masks and the profile rows' temporaries,
# which do not shrink with the joint (up to 57 B measured at 2 joint entries)
STACK_POLICY_BYTES = 64


@dataclass(frozen=True)
class DiscreteWiretapModel:
    """State pair distribution plus the two state-dependent channels."""

    state_pmf: JointPmf                 # axes ('v1', 'v2')
    main_kernel: TransitionKernel       # (x, v1) -> y
    wiretap_kernel: TransitionKernel    # (x, v2) -> z

    def __post_init__(self):
        if self.state_pmf.axis_names != ("v1", "v2"):
            raise UsageError(
                f"state pmf axes must be ('v1','v2'), got {self.state_pmf.axis_names}")
        if self.main_kernel.input_names != ("x", "v1") or self.main_kernel.output_names != ("y",):
            raise UsageError("main kernel must map (x, v1) -> y")
        if self.wiretap_kernel.input_names != ("x", "v2") or self.wiretap_kernel.output_names != ("z",):
            raise UsageError("wiretap kernel must map (x, v2) -> z")
        cards = dict(self.main_kernel.input_axes)
        if cards["v1"] != self.state_pmf.cardinality("v1"):
            raise UsageError("main kernel v1 cardinality does not match the state pmf")
        if dict(self.wiretap_kernel.input_axes)["v2"] != self.state_pmf.cardinality("v2"):
            raise UsageError("wiretap kernel v2 cardinality does not match the state pmf")
        if dict(self.wiretap_kernel.input_axes)["x"] != cards["x"]:
            raise UsageError("main and wiretap kernels disagree on |x|")

    @property
    def card_x(self) -> int:
        return dict(self.main_kernel.input_axes)["x"]

    @property
    def card_y(self) -> int:
        return dict(self.main_kernel.output_axes)["y"]

    @property
    def card_z(self) -> int:
        return dict(self.wiretap_kernel.output_axes)["z"]

    @property
    def card_v1(self) -> int:
        return self.state_pmf.cardinality("v1")

    @property
    def card_v2(self) -> int:
        return self.state_pmf.cardinality("v2")

    @property
    def u_card_bound(self) -> int:
        return self.card_x * self.card_v1 * self.card_v2 + U_CARD_SLACK


@dataclass(frozen=True)
class AuxiliaryPolicy:
    """Encoder policy p(u, x | v1, v2) as a transition kernel."""

    u_card: int
    table: TransitionKernel   # (v1, v2) -> (u, x)

    def __post_init__(self):
        if self.table.input_names != ("v1", "v2") or self.table.output_names != ("u", "x"):
            raise UsageError("policy kernel must map (v1, v2) -> (u, x)")
        if dict(self.table.output_axes)["u"] != self.u_card:
            raise UsageError(
                f"policy u cardinality {dict(self.table.output_axes)['u']} does not "
                f"match declared {self.u_card}")


@dataclass(frozen=True)
class RateTriplet:
    """Per-policy rates, unclamped except for the equivocation fraction."""

    r_u1: float
    r_u2: float
    d_u2: float
    mi_uy: float
    mi_uv: float
    mi_uz: float


@dataclass(frozen=True)
class SearchConfig:
    """Budget and shape of a policy search; the seed is part of the identity.

    mode 'v1v2' samples p(u,x|v1,v2); mode 'v1' restricts the policy to
    depend on the encoder-visible state only (it is then broadcast over v2).
    """

    u_card: int
    n_random: int = 0
    grid_steps: int = 0
    seed: int = 0
    mode: str = "v1v2"
    curve_points: int = 33

    def __post_init__(self):
        if self.u_card < 1:
            raise UsageError("u_card must be at least 1")
        if self.n_random < 0 or self.grid_steps < 0:
            raise UsageError("search budgets cannot be negative")
        if self.mode not in ("v1v2", "v1"):
            raise UsageError(f"unknown search mode {self.mode!r}")
        if self.curve_points < 2:
            raise UsageError("curve_points must be at least 2")
        if self.seed < 0:
            raise UsageError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class RegionPoint:
    r: float
    d: float
    policy_id: int


class _KeptPolicies(Mapping):
    """Read-only view of a region's kept policies by id; a policy object is
    built only when one is looked up."""

    def __init__(self, kept: np.ndarray, tables: np.ndarray):
        self._kept, self._tables = kept, tables

    def __len__(self) -> int:
        return len(self._kept)

    def __iter__(self) -> Iterator[int]:
        return iter(self._kept.tolist())

    def __getitem__(self, pid: int) -> AuxiliaryPolicy:
        j = int(np.searchsorted(self._kept, pid))
        if j == len(self._kept) or self._kept[j] != pid:
            raise KeyError(pid)
        return _policy(self._tables[j])


@dataclass(frozen=True)
class RegionPointSet:
    """Downward-closed achievable set, sampled along each policy's curve.

    Point i is (r[i], d[i]) on the curve of policy policy_id[i], -1 for the
    trivial point (0, 1).  tables[j] is the table of policy kept[j]; kept
    holds, in ascending order, the ids of the policies that have points.
    """

    r: np.ndarray
    d: np.ndarray
    policy_id: np.ndarray
    kept: np.ndarray
    tables: np.ndarray        # (len(kept), v1, v2, u, x)
    summary: dict             # search_summary of the same search

    @property
    def max_r_u1(self) -> float:
        """Largest r_u1 on the curve: the summary's secrecy rate."""
        return self.summary["secrecy_rate"]

    @property
    def points(self) -> tuple[RegionPoint, ...]:
        """The points as objects, in column order."""
        return tuple(map(RegionPoint, self.r.tolist(), self.d.tolist(),
                         self.policy_id.tolist()))

    @property
    def policies(self) -> Mapping[int, AuxiliaryPolicy]:
        """Each kept policy by id."""
        return _KeptPolicies(self.kept, self.tables)

    def contains(self, r: float, d: float, tol: float = 1e-12) -> bool:
        """True when (r, d) is dominated by some stored point."""
        if r < 0.0 or d < 0.0:
            return False
        return bool(np.any((r <= self.r + tol) & (d <= self.d + tol)))


def _check_policy(model: DiscreteWiretapModel, policy: AuxiliaryPolicy) -> None:
    """The policy's alphabets must be the model's, its u within the bound."""
    if policy.u_card > model.u_card_bound:
        raise UsageError(
            f"auxiliary cardinality {policy.u_card} exceeds the bound "
            f"{model.u_card_bound} for this model")
    cards = dict(policy.table.input_axes)
    if cards["v1"] != model.card_v1 or cards["v2"] != model.card_v2:
        raise UsageError("policy state cardinalities do not match the model")
    if dict(policy.table.output_axes)["x"] != model.card_x:
        raise UsageError("policy x cardinality does not match the model")


def _triplets(mi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r_u1, r_u2, d_u2) of every (I(u;y), I(u;v1,v2), I(u;z), ...) row."""
    mi_uy, mi_uv, mi_uz = mi[:, 0], mi[:, 1], mi[:, 2]
    r_u1 = mi_uy - np.maximum(mi_uv, mi_uz)
    r_u2 = mi_uy - mi_uv
    # differences below the rate floor are float noise, e.g. z a copy of y
    r_u1[np.abs(r_u1) <= RATE_FLOOR] = 0.0
    r_u2[np.abs(r_u2) <= RATE_FLOOR] = 0.0
    live = r_u2 > RATE_FLOOR
    d_u2 = np.divide(r_u1, r_u2, out=np.ones_like(r_u1), where=live)
    # min(1, max(0, x)): nan and -0.0 go to 0.0, as the comparisons do
    d_u2 = np.where(d_u2 > 0.0, d_u2, 0.0)
    return r_u1, r_u2, np.where(d_u2 < 1.0, d_u2, 1.0)


def _triplet_from_profile(mi_uy: float, mi_uv: float, mi_uz: float) -> RateTriplet:
    """One profile row's triplet: a one-row view of _triplets."""
    r_u1, r_u2, d_u2 = (float(v[0]) for v in _triplets(np.array([[mi_uy, mi_uv, mi_uz]])))
    return RateTriplet(r_u1, r_u2, d_u2, mi_uy, mi_uv, mi_uz)


def rate_triplet(model: DiscreteWiretapModel, policy: AuxiliaryPolicy) -> RateTriplet:
    """Evaluate one policy; r_u1 may be negative and is returned as is."""
    _check_policy(model, policy)
    return _joint_triplet(compose(model.state_pmf, policy.table,
                                  model.main_kernel, model.wiretap_kernel))


def _joint_triplet(joint: JointPmf) -> RateTriplet:
    """The triplet of a policy's composed (u, x, v1, v2, y, z) joint."""
    return _triplet_from_profile(mutual_information(joint, ("u",), ("y",)),
                                 mutual_information(joint, ("u",), ("v1", "v2")),
                                 mutual_information(joint, ("u",), ("z",)))


def _simplex_grid(steps: int, outcomes: int) -> np.ndarray:
    """Every pmf over `outcomes` with entries in multiples of 1/steps, in
    lexicographic order: stars and bars, one bar position per row."""
    bars = np.array(list(itertools.combinations(range(steps + outcomes - 1), outcomes - 1)),
                    dtype=int, ndmin=2)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, steps + outcomes - 1))
    return (np.diff(edges, axis=1) - 1) / steps


def _dirichlet_draws(seed: int, first: int, count: int, n_cells: int,
                     outcomes: int) -> np.ndarray:
    """default_rng([seed, i]).dirichlet(np.ones(outcomes), n_cells) for i in
    first .. first + count - 1, as one (count, n_cells, outcomes) array, bit
    for bit: dirichlet(ones) draws standard exponentials (standard_gamma(1))
    and multiplies each cell by the inverse of its left-to-right running sum.
    The generators come from _seeded_generators, not one default_rng each."""
    draws = np.empty((count, n_cells, outcomes))
    for draw, rng in zip(draws, probability._seeded_generators((seed,), first, count)):
        rng.standard_exponential(out=draw)
    draws *= 1.0 / draws.cumsum(axis=2)[:, :, -1:]
    return draws


def _stream_plan(model: DiscreteWiretapModel, search: SearchConfig) -> tuple[int, int]:
    """(grid policies, policies per stack) of the search's stream, after
    refusing a u_card over the bound, a grid over GRID_POLICY_CAP, a zero
    budget and a joint over the table cap."""
    if search.u_card > model.u_card_bound:
        raise UsageError(
            f"u_card {search.u_card} exceeds the bound {model.u_card_bound}")
    n_cells = model.card_v1 * (model.card_v2 if search.mode == "v1v2" else 1)
    outcomes = search.u_card * model.card_x
    grid_total = 0
    if search.grid_steps > 0:
        grid_total = math.comb(search.grid_steps + outcomes - 1, outcomes - 1) ** n_cells
        if grid_total > GRID_POLICY_CAP:
            raise UsageError(
                f"grid of {grid_total} policies exceeds the {GRID_POLICY_CAP} cap; "
                f"lower grid_steps or use random sampling")
    if grid_total + search.n_random == 0:
        raise UsageError("search budget is zero: set n_random or grid_steps")
    cap = probability.MAX_TABLE_ENTRIES
    joint_entries = outcomes * model.card_v1 * model.card_v2 * model.card_y * model.card_z
    if joint_entries > cap:
        raise UsageError(f"composed joint would hold {joint_entries} entries, "
                         f"above the {cap}-entry cap")
    return grid_total, cap // joint_entries


def _policy_chunks(model: DiscreteWiretapModel,
                   search: SearchConfig) -> Iterator[np.ndarray]:
    """The policy stream as (B, v1, v2, u, x) stacks: grid block first, then
    seeded random draws, draw i from (seed, i) alone so that growing n_random
    only extends the stream.  A stack composes to at most MAX_TABLE_ENTRIES
    joint entries, the cap a single joint obeys.  Draw i is
    default_rng([seed, i]).dirichlet(ones, n_cells), made by _dirichlet_draws."""
    grid_total, size = _stream_plan(model, search)
    c_v1, c_v2 = model.card_v1, model.card_v2
    cell_v2 = c_v2 if search.mode == "v1v2" else 1   # mode 'v1' broadcasts over v2
    n_cells = c_v1 * cell_v2
    outcomes = search.u_card * model.card_x

    def stack(cells: np.ndarray) -> np.ndarray:
        tables = cells.reshape(len(cells), c_v1, cell_v2, search.u_card, model.card_x)
        return np.repeat(tables, c_v2 // cell_v2, axis=2)

    if grid_total:
        points = _simplex_grid(search.grid_steps, outcomes)
        for start in range(0, grid_total, size):
            # one grid point per cell, the last cell varying fastest
            cells = np.unravel_index(np.arange(start, min(start + size, grid_total)),
                                     (len(points),) * n_cells)
            yield stack(points[np.stack(cells, axis=1)])

    for start in range(0, search.n_random, size):
        yield stack(_dirichlet_draws(search.seed, start, min(size, search.n_random - start),
                                     n_cells, outcomes))


def _policy(table: np.ndarray) -> AuxiliaryPolicy:
    c_v1, c_v2, u_card, c_x = table.shape
    return AuxiliaryPolicy(u_card, TransitionKernel(
        (("v1", c_v1), ("v2", c_v2)), (("u", u_card), ("x", c_x)), table))


def iter_policies(model: DiscreteWiretapModel,
                  search: SearchConfig) -> Iterator[AuxiliaryPolicy]:
    """The policy stream of a search, one validated policy at a time."""
    for tables in _policy_chunks(model, search):
        for table in tables:
            yield _policy(table)


def _compose_stack(model: DiscreteWiretapModel, tables: np.ndarray) -> np.ndarray:
    """The C-contiguous (N, u, x, v1, v2, y, z) joints of a policy stack,
    each bit for bit compose's einsum.  Every index is in einsum's output,
    so its path is one contraction over the operands reversed, multiplied
    left to right: ((p(z|x,v2) p(y|x,v1)) p(u,x|v1,v2)) p(v1,v2).  Here
    the same products are broadcast over the stack."""
    n, c_v1, c_v2, c_u, c_x = tables.shape
    channels = (model.wiretap_kernel.table[:, None, :, None, :]
                * model.main_kernel.table[:, :, None, :, None])       # (x, v1, v2, y, z)
    joint = np.empty((n, c_u, c_x, c_v1, c_v2, model.card_y, model.card_z))
    np.multiply(channels, tables.transpose(0, 3, 4, 1, 2)[..., None, None], out=joint)
    joint *= model.state_pmf.table[:, :, None, None]
    return joint


def _mi_profiles(model: DiscreteWiretapModel, tables: np.ndarray) -> np.ndarray:
    """(I(u;y), I(u;v1,v2), I(u;z), I(u;v1)) per policy of a stack.

    Composes and reduces exactly as compose, marginalize and
    mutual_information do for one policy, with a leading policy axis, so
    every row equals the validated single-policy path bit for bit.
    """
    _check_stack(tables, (3, 4), "policy table")
    joint = _compose_stack(model, tables)
    _check_stack(joint, (1, 2, 3, 4, 5, 6), "composed joint")
    h = _entropy_bits_batch

    def mi(h_a: np.ndarray, b: np.ndarray, ab: np.ndarray) -> np.ndarray:
        # I(A;B) from H(A) and the (N, B...) and (N, A..., B...) marginals
        return _clamp_mi(h_a + h(b) - h(ab))

    uy = _ordered_sum(joint, (2, 3, 4, 6))                          # (N, u, y)
    uz = _ordered_sum(joint, (2, 3, 4, 5))                          # (N, u, z)
    uv = _ordered_sum(joint, (2, 5, 6))                             # (N, u, v1, v2)
    h_u = h(uv.sum(axis=(2, 3)))
    return np.stack([mi(h(uy.sum(axis=2)), uy.sum(axis=1), uy),
                     mi(h_u, uv.sum(axis=1), uv),
                     mi(h(uz.sum(axis=2)), uz.sum(axis=1), uz),
                     mi(h_u, uv.sum(axis=(1, 3)), uv.sum(axis=3))], axis=1)


def _leading_v1(tables: np.ndarray) -> np.ndarray:
    """The 'v1' stack of a 'v1v2' stack of random draws: draw i of the 'v1'
    stream equals the first |v1| cells of draw i of the 'v1v2' stream bit for
    bit (each cell is normalised by its own sum), laid out as _policy_chunks
    lays out a 'v1' stack."""
    count, c_v1, c_v2 = tables.shape[:3]
    cells = tables.reshape(count, c_v1 * c_v2, *tables.shape[3:])[:, :c_v1]
    return np.repeat(cells[:, :, None], c_v2, axis=2)


def _sweep(model: DiscreteWiretapModel, search: SearchConfig,
           v1_rows: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each policy stack of the stream with its (mi_uy, mi_uv, mi_uz, mi_uv1) rows.

    Given v1_rows, an (n_random, 4) array, a 'v1v2' sweep also fills it with
    the rows of the 'v1' stream's random draws: both streams cut their draws
    into stacks at the same offsets, so each random stack leads the 'v1'
    stack of the same ids (_leading_v1), whose rows equal those of a sweep
    of the 'v1' stream bit for bit."""
    grid_total, _ = _stream_plan(model, search)
    first = 0
    for tables in _policy_chunks(model, search):
        if v1_rows is not None and first >= grid_total:
            at = first - grid_total
            v1_rows[at:at + len(tables)] = _mi_profiles(model, _leading_v1(tables))
        yield tables, _mi_profiles(model, tables)
        first += len(tables)


def _profiles(model: DiscreteWiretapModel, search: SearchConfig,
              v1_rows: np.ndarray | None = None) -> np.ndarray:
    """The profile rows of the search's stream, filled into one array (and
    v1_rows, as _sweep fills it)."""
    grid_total, _ = _stream_plan(model, search)
    mi = np.empty((grid_total + search.n_random, 4))
    first = 0
    for _, rows in _sweep(model, search, v1_rows):
        mi[first:first + len(rows)] = rows
        first += len(rows)
    return mi


def _v1_stream(model: DiscreteWiretapModel, search: SearchConfig,
               v1_rows: np.ndarray | None) -> np.ndarray | None:
    """Every row of the 'v1' stream of a 'v1v2' search: its grid block, swept
    on its own, then v1_rows, which _sweep took from the search's draws.
    None in a 'v1' search, whose own rows are that stream's."""
    if v1_rows is None or not search.grid_steps:
        return v1_rows
    grid = _profiles(model, dataclasses.replace(search, mode="v1", n_random=0))
    return np.concatenate([grid, v1_rows])


def _best(values) -> tuple[float, int]:
    """Largest value and its first policy id, or (0.0, -1) if none is positive."""
    pid = int(np.argmax(values))
    return (float(values[pid]), pid) if values[pid] > 0.0 else (0.0, -1)


def _summary(mi: np.ndarray, mi_v1: np.ndarray | None = None) -> dict:
    """Every searched result from the profile rows of the search's stream and
    of the 'v1' stream, which holds the capacity; without mi_v1 the search's
    own rows stand for both.  Ties keep the first policy id."""
    mi_v1 = mi if mi_v1 is None else mi_v1
    rate = _best(_triplets(mi)[0])
    state, capacity = (_best(rows[:, 0] - rows[:, 3]) for rows in (mi, mi_v1))
    tap = _best(mi[:, 0] - mi[:, 2])
    return {
        "secrecy_rate": rate[0],
        "secrecy_upper_bound": min(state[0], tap[0]),
        "main_channel_capacity": capacity[0],
        "best_policies": {"secrecy_rate": rate[1], "state_bound": state[1],
                          "wiretap_bound": tap[1], "main_channel_capacity": capacity[1]},
    }


def secrecy_rate(model: DiscreteWiretapModel, search: SearchConfig) -> float:
    """Largest max(r_u1, 0) over the searched policies."""
    mi = _profiles(model, search)
    return _summary(mi)["secrecy_rate"]


def secrecy_upper_bound(model: DiscreteWiretapModel, search: SearchConfig) -> float:
    """min{ max I(u;y)-I(u;v1), max I(u;y)-I(u;z) } over the same policy stream.

    Both terms are floored at zero: the constant auxiliary, which scores zero
    on each, belongs to every search space even when sampling misses it.
    This keeps secrecy_rate <= secrecy_upper_bound for any matched budget.
    """
    mi = _profiles(model, search)
    return _summary(mi)["secrecy_upper_bound"]


def main_channel_capacity(model: DiscreteWiretapModel, search: SearchConfig) -> float:
    """Searched max of I(u;y) - I(u;v1) over policies p(u,x|v1).

    The conditioning is forced to the encoder-visible state regardless of
    search.mode, matching the interference-cancellation capacity target.
    """
    mi = _profiles(model, dataclasses.replace(search, mode="v1"))
    return _summary(mi)["main_channel_capacity"]


def search_summary(model: DiscreteWiretapModel, search: SearchConfig) -> dict:
    """Summary for reporting: rates, bound, capacity, best ids.

    Ties break to the first policy in iteration order so identical seeds
    give identical ids.
    """
    v1_rows = np.empty((search.n_random, 4)) if search.mode == "v1v2" else None
    mi = _profiles(model, search, v1_rows)
    return _summary(mi, _v1_stream(model, search, v1_rows))


def _check_budget(model: DiscreteWiretapModel, search: SearchConfig) -> int:
    """Refuse, before any draw, a search whose region breaks BYTE_BUDGET, and
    return the stream's policy count.  The charge is what the search holds:
    - per policy of the stream, a kept table and POLICY_BYTES;
    - POINT_BYTES of columns per point of the bound 1 + policies * curve_points;
    - one block of rows being laid out or written, max(BLOCK_ROWS,
      curve_points) rows of ROW_BYTES;
    - the sweep's working set: one stack's tables, JOINT_BYTES per entry
      of its composed joints and STACK_POLICY_BYTES per policy."""
    grid_total, size = _stream_plan(model, search)
    policies = grid_total + search.n_random
    entries = model.card_v1 * model.card_v2 * search.u_card * model.card_x
    points = 1 + policies * search.curve_points
    joint = entries * model.card_y * model.card_z
    need = (policies * (8 * entries + POLICY_BYTES) + points * POINT_BYTES
            + max(BLOCK_ROWS, search.curve_points) * ROW_BYTES
            + min(policies, size) * (8 * entries + joint * JOINT_BYTES + STACK_POLICY_BYTES))
    if need > probability.BYTE_BUDGET:
        raise UsageError(
            f"{policies} policies at {search.curve_points} curve points need "
            f"{need / 2 ** 20:.0f} MiB, over the {probability.BYTE_BUDGET // 2 ** 20} MiB "
            f"budget; lower the random draws, the grid or the curve points")
    return policies


def _curve_points(r_u1: np.ndarray, r_u2: np.ndarray, d_u2: np.ndarray,
                  curve_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, d, count): the curve points of kept policies in order, each
    policy's (r1, 1), (r2, d_u2) and interior points, and each policy's
    point count; a policy with r2 = r1 has the first point only."""
    r1 = np.maximum(r_u1, 0.0)
    r2 = np.maximum(r_u2, r1)
    span = r2 - r1
    r = np.empty((len(r1), curve_points))
    r[:, 0], r[:, 1] = r1, r2
    # point k + 1 is interior point k of curve_points - 2
    r[:, 2:] = np.arange(1, curve_points - 1) * span[:, None] / (curve_points - 1)
    r[:, 2:] += r1[:, None]
    d = np.divide(r1[:, None], r, out=np.ones_like(r), where=r > RATE_FLOOR)
    d[:, 0], d[:, 1] = 1.0, d_u2
    count = np.where(r2 <= r1 + RATE_FLOOR, 1, curve_points)
    mask = np.arange(curve_points) < count[:, None]
    return r[mask], d[mask], count


def achievable_points(model: DiscreteWiretapModel,
                      search: SearchConfig) -> RegionPointSet:
    """Sample the achievable region: per-policy curve R*d = r_u1 plus endpoints,
    with the search summary of the same sweep.

    Policies with negative r_u1 are excluded; (0, 1) is always present so the
    trivial point survives even when every sampled policy leaks.  The points
    are laid out as r, d and policy_id columns, preallocated to the bound
    1 + policies * curve_points.  A search whose region would break the byte
    budget is refused before any draw.
    """
    policies = _check_budget(model, search)
    bound = 1 + policies * search.curve_points
    r, d, ids = np.empty(bound), np.empty(bound), np.empty(bound, dtype=np.int64)
    r[0], d[0], ids[0] = 0.0, 1.0, -1
    mi = np.empty((policies, 4))
    kept = np.empty(policies, dtype=np.int64)
    tables = np.empty((policies, model.card_v1, model.card_v2, search.u_card, model.card_x))
    step = max(1, BLOCK_ROWS // search.curve_points)    # policies per layout step
    v1_rows = np.empty((search.n_random, 4)) if search.mode == "v1v2" else None
    first = n_kept = 0
    n = 1
    for stack, rows in _sweep(model, search, v1_rows):
        mi[first:first + len(rows)] = rows
        r_u1, r_u2, d_u2 = _triplets(rows)
        keep = np.flatnonzero(~(r_u1 < -RATE_FLOOR))
        kept[n_kept:n_kept + len(keep)] = keep + first
        tables[n_kept:n_kept + len(keep)] = stack[keep]
        for start in range(0, len(keep), step):
            part = keep[start:start + step]
            block_r, block_d, count = _curve_points(r_u1[part], r_u2[part], d_u2[part],
                                                    search.curve_points)
            stop = n + len(block_r)
            r[n:stop], d[n:stop] = block_r, block_d
            ids[n:stop] = np.repeat(part + first, count)
            n = stop
        n_kept += len(keep)
        first += len(rows)
    return RegionPointSet(r[:n], d[:n], ids[:n], kept[:n_kept], tables[:n_kept],
                          _summary(mi, _v1_stream(model, search, v1_rows)))
