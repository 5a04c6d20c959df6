"""Plain graphs, cotree expressions and the file formats, written apart from
cogret so that the benchmark can build inputs and check answers without
trusting the program under test.

A cotree expression is a vertex id (an int) or a pair (kind, children) with
kind "U" (disjoint union) or "J" (join) and children a tuple of expressions.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence


class PlainGraph:
    """Undirected simple graph on 0..n-1 with set adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            self.adj[u].add(v)
            self.adj[v].add(u)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


def shuffled_ids(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# cotree expressions


def postorder(expr) -> list:
    """Every node of the expression, children before parents (iterative)."""
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, tuple):
            stack.extend(node[1])
    out.reverse()
    return out


def leaves(expr) -> list[int]:
    out: list[int] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(reversed(node[1]))
        else:
            out.append(node)
    return out


def realize(expr) -> PlainGraph:
    """The graph of an expression whose leaves are a permutation of 0..n-1."""
    ids = leaves(expr)
    if sorted(ids) != list(range(len(ids))):
        raise ValueError("leaf ids must be a permutation of 0..n-1")
    g = PlainGraph(len(ids))
    under: dict[int, list[int]] = {}
    for node in postorder(expr):
        if not isinstance(node, tuple):
            under[id(node)] = [node]
            continue
        kind, children = node
        parts = [under.pop(id(c)) for c in children]
        if kind == "J":
            for i, a in enumerate(parts):
                for b in parts[i + 1 :]:
                    for u in a:
                        g.adj[u].update(b)
                    for v in b:
                        g.adj[v].update(a)
        under[id(node)] = [v for p in parts for v in p]
    return g


def relabel_expr(expr, perm: Sequence[int]):
    """Same shape, leaf v renamed perm[v]."""
    done: dict[int, object] = {}
    for node in postorder(expr):
        if isinstance(node, tuple):
            done[id(node)] = (node[0], tuple(done[id(c)] for c in node[1]))
        else:
            done[id(node)] = perm[node]
    return done[id(expr)]


def _omegas(expr) -> dict[int, int]:
    """Clique number of every subexpression, keyed by id()."""
    val: dict[int, int] = {}
    for node in postorder(expr):
        if isinstance(node, tuple):
            kids = [val[id(c)] for c in node[1]]
            val[id(node)] = sum(kids) if node[0] == "J" else max(kids)
        else:
            val[id(node)] = 1
    return val


def omega_of(expr) -> int:
    """Clique number read off the construction."""
    return _omegas(expr)[id(expr)]


def in_max_clique(expr) -> dict[int, bool]:
    """For each vertex: does it lie in a maximum clique?  True iff at every
    union ancestor its branch has the largest clique number."""
    omega = _omegas(expr)
    out: dict[int, bool] = {}
    stack = [(expr, True)]
    while stack:
        node, good = stack.pop()
        if not isinstance(node, tuple):
            out[node] = good
            continue
        best = max(omega[id(c)] for c in node[1])
        for c in node[1]:
            stack.append((c, good and (node[0] == "J" or omega[id(c)] == best)))
    return out


def coloring_into_clique(expr) -> tuple[dict[int, int], list[int]]:
    """An optimal colouring of the expression's graph (vertex -> colour) and
    a maximum clique listed so that clique[c] has colour c."""
    color: dict[int, dict[int, int]] = {}
    clique: dict[int, list[int]] = {}
    for node in postorder(expr):
        if not isinstance(node, tuple):
            color[id(node)] = {node: 0}
            clique[id(node)] = [node]
            continue
        kind, children = node
        if kind == "U":
            merged: dict[int, int] = {}
            for c in children:
                merged.update(color.pop(id(c)))
            best = max(children, key=lambda c: len(clique[id(c)]))
            clique[id(node)] = clique[id(best)]
        else:
            merged = {}
            offset = 0
            picked: list[int] = []
            for c in children:
                for v, col in color.pop(id(c)).items():
                    merged[v] = col + offset
                offset += len(clique[id(c)])
                picked.extend(clique[id(c)])
            clique[id(node)] = picked
        color[id(node)] = merged
    return color[id(expr)], clique[id(expr)]


# ---------------------------------------------------------------------------
# file formats, written from the format descriptions


def format_cotree_text(expr) -> str:
    parts: list[str] = []
    stack: list = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, tuple):
            kind, children = item
            parts.append(kind + "(")
            stack.append(")")
            for i in range(len(children) - 1, -1, -1):
                stack.append(children[i])
                if i:
                    stack.append(",")
        else:
            parts.append(str(item))
    return "".join(parts) + "\n"


def format_edge_list_text(g: PlainGraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"


def format_graph6_text(g: PlainGraph) -> str:
    n = g.n
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    acc = 0
    width = 0
    for j in range(1, n):
        row = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | (1 if i in row else 0)
            width += 1
            if width == 6:
                out.append(acc + 63)
                acc = width = 0
    if width:
        out.append((acc << (6 - width)) + 63)
    return bytes(out).decode("ascii") + "\n"
