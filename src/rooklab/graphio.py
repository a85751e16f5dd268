"""graph6 encoding for graphs.

graph6 is the ASCII format used by nauty and friends: a vertex-count header
followed by the upper triangle of the adjacency matrix, column by column,
packed into 6-bit groups offset by 63.  Sizes up to 258047 vertices use the
one- or four-byte headers implemented here.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, _bit_matrix


def _encode_size(n):
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError("graphs this large are out of scope for graph6 here")


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (labels are dropped)."""
    n = g.order
    # Entry [j, i] of the transpose, i < j, is bit i of row j: the upper
    # triangle column by column, zero-padded to whole 6-bit groups.
    bits = _bit_matrix(g.rows).T[np.tril_indices(n, -1)]
    groups = np.pad(bits, (0, -len(bits) % 6)).reshape(-1, 6)
    chars = groups @ np.array([32, 16, 8, 4, 2, 1]) + 63
    return _encode_size(n) + chars.astype(np.uint8).tobytes().decode("ascii")
