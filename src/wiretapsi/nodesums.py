"""Exact float64 row sums through node tables.

numpy sums a contiguous row of n <= 16 float64 terms in a fixed tree
(_sum_tree), so any subtree can be tabulated once for every joint symbol of
its coordinates (a node table), indexed by an additive code.  _NodeSums
cuts the tree into such tables; a row then costs one gather per table, or a
block of rows one outer sum of table rows, combined in the tree's own
order, and equals numpy's .sum bit for bit.  The simulator takes every
typicality score through it.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=None)
def _sum_tree(n: int):
    """numpy's order for summing a contiguous float64 row of n <= 16 terms,
    as nested (left, right) pairs of coordinates.

    A row of fewer than 8 terms is summed left to right.  From 8 terms on,
    eight accumulators start at a_0 .. a_7 (at n = 16 each also takes
    a_{j+8}) and combine as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)); the tail
    a_8 .. a_{n-1} is then added one term at a time.  A numpy that sums in
    another order fails the row-sum guard in tests/test_simulator.py.
    """
    if n < 8:
        tree, tail = 0, range(1, n)
    else:
        acc = [(j, j + 8) if n == 16 else j for j in range(8)]
        tree = (((acc[0], acc[1]), (acc[2], acc[3])), ((acc[4], acc[5]), (acc[6], acc[7])))
        tail = range(16 if n == 16 else 8, n)
    for i in tail:
        tree = (tree, i)
    return tree


@functools.lru_cache(maxsize=None)
def _leaves(tree) -> tuple[int, ...]:
    """Coordinates of a (sub)tree, left to right; the trees of n <= 16 are
    few, so every subtree is cached."""
    if isinstance(tree, int):
        return (tree,)
    return _leaves(tree[0]) + _leaves(tree[1])


class _NodeSums:
    """Exact row sums of n per-coordinate values through node tables.

    _sum_tree(n) is cut at its largest subtrees of at most `span`
    coordinates (a lone coordinate always qualifies).  A node table lists
    the subtree's partial sum, added in the tree's order, for every joint
    symbol of its c coordinates C, widths[t] = card^c entries per row for
    card symbols each; symbol s of coordinate C[j] adds s * card^j to the
    index (weight[t] holds these place values, 0 off the node).  A row sum
    is one gather per table, combined in the tree's order: numpy's .sum of
    the row, bit for bit.  The tree's digit order numbers every symbol
    sequence by its node indices, node 0's minor; block() sums a range of
    it.
    """

    def __init__(self, n: int, card: int, span: int):
        nodes = []
        self.shape = _cut(_sum_tree(n), span, nodes)     # the tree over node indices
        self.nodes = tuple(nodes)
        self.buffers = _buffers(self.shape)                # floats per row in total()
        self.widths = tuple(card ** len(_leaves(node)) for node in nodes)
        self.entries = sum(self.widths)
        # node t's digit is place // places[t] % widths[t] in the digit order
        self.places = np.cumprod((1,) + self.widths[:-1])
        self.places.setflags(write=False)
        self.weight = np.zeros((len(nodes), n), dtype=np.intp)
        for t, node in enumerate(nodes):
            coords = list(_leaves(node))
            self.weight[t, coords] = card ** np.arange(len(coords))
        self.weight.setflags(write=False)       # one cut serves every caller, see _shared_cut

    def tables(self, per_coord) -> list[np.ndarray]:
        """The (B, card^c) node tables, from per_coord(i), the (B, card)
        values of coordinate i in B independent rows."""
        return [_node_table(node, per_coord) for node in self.nodes]

    def sequence_codes(self, symbols: np.ndarray) -> np.ndarray:
        """(G, R) index parts of R symbol rows (R, n)."""
        return self.weight @ symbols.T

    def digit_order(self, card: int) -> np.ndarray:
        """(card^n,) each state sequence's place in the tree's digit order,
        sequences lexicographic: the place value of each coordinate's
        symbol, summed, built as one row."""
        return _lex_codes((self.places @ self.weight)[None], card)[0]

    def total(self, tables: list[np.ndarray], code) -> np.ndarray:
        """Row sums: code(t) is node t's whole index, any shape R.  With
        one row per table the sums have shape R; with B rows, (B, *R)."""
        def gather(t):
            table, index = tables[t], code(t)
            return np.take(table, index, axis=1) if len(table) > 1 else np.take(table, index)
        return _tree_total(self.shape, gather)

    def block(self, rows: list[np.ndarray], lo: int, width: int) -> np.ndarray:
        """(R, width) sums of the sequences lo .. lo + width - 1 in the
        tree's digit order, from rows[t], R rows of node t's table: an
        outer sum of table rows in the tree's order.  width is a power of
        card and lo a multiple of it."""
        return _outer(self.shape, self.widths, rows, lo, width)


# The recursive helpers are module functions: a nested function that calls
# itself is a reference cycle, which would hold its tables until the next
# garbage collection.

def _cut(tree, span: int, nodes: list):
    """tree with each tabulated subtree replaced by its index in nodes."""
    if isinstance(tree, int) or len(_leaves(tree)) <= span:
        nodes.append(tree)
        return len(nodes) - 1
    return _cut(tree[0], span, nodes), _cut(tree[1], span, nodes)


def _lex_codes(weight: np.ndarray, card: int) -> np.ndarray:
    """Index parts of every sequence over weight's coordinates, in
    lexicographic order: the outer sum of the first half's and the last's."""
    if weight.shape[1] == 1:
        return weight * np.arange(card)
    high, low = (_lex_codes(part, card) for part in np.array_split(weight, 2, axis=1))
    return (high[:, :, None] + low[:, None, :]).reshape(len(weight), -1)


def _node_table(tree, per_coord) -> np.ndarray:
    """Partial sums of a subtree for every joint symbol, left coordinates minor."""
    if isinstance(tree, int):
        return per_coord(tree)
    left, right = _node_table(tree[0], per_coord), _node_table(tree[1], per_coord)
    return (right[:, :, None] + left[:, None, :]).reshape(len(left), -1, *left.shape[2:])


def _outer(shape, widths, rows, lo: int, width: int) -> np.ndarray:
    """_NodeSums.block over the subtree shape."""
    if isinstance(shape, int):
        return rows[shape][:, lo:lo + width]
    size = math.prod(widths[t] for t in _leaves(shape[0]))    # the left digits' range
    if width <= size:
        return (_outer(shape[0], widths, rows, lo % size, width)
                + _outer(shape[1], widths, rows, lo // size, 1))
    left = _outer(shape[0], widths, rows, 0, size)
    right = _outer(shape[1], widths, rows, lo // size, width // size)
    return (left[:, None, :] + right[:, :, None]).reshape(len(left), -1)


def _buffers(shape) -> int:
    """Arrays _tree_total holds at once, per row: a gather's index and
    values, plus the sum of every left subtree still waiting for its right."""
    if isinstance(shape, int):
        return 2
    return max(_buffers(shape[0]), 1 + _buffers(shape[1]))


def _tree_total(shape, gather) -> np.ndarray:
    """Sum of gather(t) over the node indices t of shape, in its order."""
    if isinstance(shape, int):
        return gather(shape)
    total = _tree_total(shape[0], gather)
    total += _tree_total(shape[1], gather)
    return total


_shared_cut = functools.lru_cache(maxsize=None)(_NodeSums)
