"""graph6 encoding for graphs.

graph6 is the ASCII format used by nauty and friends: a vertex-count header
followed by the upper triangle of the adjacency matrix, column by column,
packed into 6-bit groups offset by 63.  Sizes up to 258047 vertices use the
one- or four-byte headers implemented here.
"""

from __future__ import annotations

from .graphs import Graph


def _encode_size(n):
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise ValueError("graphs this large are out of scope for graph6 here")


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (labels are dropped)."""
    n = g.order
    bits = []
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    chars = [_encode_size(n)]
    for k in range(0, len(bits), 6):
        group = bits[k:k + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)
