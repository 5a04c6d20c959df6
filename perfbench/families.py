"""Input families with planted verdicts.

Every pair is built so that its answer is known from the construction:

* planted YES pairs carry a certificate (rho, gamma) read off the
  construction: G is H plus false twins (folded onto their twin) and
  dominated union branches (coloured into a maximum clique of a sibling
  with at least their clique number), or G retracts onto its maximum
  clique;
* planted NO pairs name a property that every retract has and that the
  pair violates (see checks.NO_REASONS), with n(H) <= n(G) and
  omega(H) = omega(G) so that no size or clique-number test settles them.

Vertex ids are shuffled with the pair's own random stream, so the program
never sees the construction order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import (
    PlainGraph,
    coloring_into_clique,
    leaves,
    omega_of,
    postorder,
    realize,
    relabel_expr,
    shuffled_ids,
)


@dataclass
class Pair:
    family: str
    g_expr: object
    h_expr: object
    g: PlainGraph
    h: PlainGraph
    planted: str  # "YES" or "NO"
    reason: str  # NO: a key of checks.NO_REASONS; YES: how it was planted
    cert: tuple | None = None  # planted (rho, gamma) for YES pairs


def finish(rng: random.Random, family, g_expr, h_expr, planted, reason, cert=None) -> Pair:
    """Shuffle both vertex sets and carry the planted certificate along."""
    ng, nh = len(leaves(g_expr)), len(leaves(h_expr))
    pg, ph = shuffled_ids(rng, ng), shuffled_ids(rng, nh)
    g_expr, h_expr = relabel_expr(g_expr, pg), relabel_expr(h_expr, ph)
    if cert is not None:
        rho, gamma = cert
        new_rho = [0] * ng
        for x in range(ng):
            new_rho[pg[x]] = ph[rho[x]]
        new_gamma = [0] * nh
        for y in range(nh):
            new_gamma[ph[y]] = pg[gamma[y]]
        cert = (tuple(new_rho), tuple(new_gamma))
    return Pair(family, g_expr, h_expr, realize(g_expr), realize(h_expr), planted, reason, cert)


def normalize(expr):
    """Merge children of the same kind into their parent."""
    done: dict[int, object] = {}
    for node in postorder(expr):
        if not isinstance(node, tuple):
            done[id(node)] = node
            continue
        flat = []
        for c in node[1]:
            d = done[id(c)]
            if isinstance(d, tuple) and d[0] == node[0]:
                flat.extend(d[1])
            else:
                flat.append(d)
        done[id(node)] = flat[0] if len(flat) == 1 else (node[0], tuple(flat))
    return done[id(expr)]


# ---------------------------------------------------------------------------
# threshold graphs, from creation sequences: vertex i arrives isolated
# (bit 0) or dominating (bit 1); bit 0 of the sequence is ignored


def threshold_expr(bits) -> object:
    node: object = 0
    i = 1
    while i < len(bits):
        j = i
        while j + 1 < len(bits) and bits[j + 1] == bits[i]:
            j += 1
        node = ("J" if bits[i] else "U", (node,) + tuple(range(i, j + 1)))
        i = j + 1
    return node


def sparse_bits(rng: random.Random, n: int, trailing: int) -> list[int]:
    """About three dominating arrivals per doubling of the vertex count, one
    in each third of the range, then `trailing` universal vertices."""
    bits = [0] * n
    lo = 1
    body = n - trailing
    while lo < body:
        hi = min(2 * lo, body)
        step = max(1, (hi - lo) // 3)
        for a in range(lo, hi, step):
            bits[rng.randrange(a, min(a + step, hi))] = 1
        lo = hi
    for i in range(body, n):
        bits[i] = 1
    bits[body - 1] = 0
    return bits


def dense_bits(rng: random.Random, n: int, trailing: int) -> list[int]:
    """One dominating arrival in every pair of positions, so the edge count
    barely depends on the seed, then `trailing` universal vertices."""
    bits = [0] * n
    body = n - trailing
    for a in range(1, body - 1, 2):
        bits[a + rng.randrange(2)] = 1
    for i in range(body, n):
        bits[i] = 1
    bits[body - 1] = 0
    return bits


def _insert_isolated(rng: random.Random, bits: list[int], extra: int):
    """Insert isolated arrivals after position 0 and before the trailing
    universal run; return the new sequence and, for each new vertex, an
    older vertex of the original sequence that it folds onto."""
    tail = len(bits)
    while tail > 1 and bits[tail - 1] == 1:
        tail -= 1
    spots = sorted(rng.randrange(1, tail) for _ in range(extra))
    out: list[int] = []
    origin: list[int] = []  # origin[new id] = original id, or -(onto) - 1
    k = 0
    for i, b in enumerate(bits):
        while k < len(spots) and spots[k] == i:
            out.append(0)
            origin.append(-(i - 1) - 1)  # fold onto the vertex just before
            k += 1
        out.append(b)
        origin.append(i)
    return out, origin


def threshold_yes(rng, family, bits_h, extra) -> Pair:
    bits_g, origin = _insert_isolated(rng, bits_h, extra)
    old_to_new = {o: v for v, o in enumerate(origin) if o >= 0}
    rho = tuple(o if o >= 0 else -o - 1 for o in origin)
    gamma = tuple(old_to_new[y] for y in range(len(bits_h)))
    return finish(rng, family, threshold_expr(bits_g), threshold_expr(bits_h), "YES", "isolated-twins", (rho, gamma))


def threshold_no_universal(rng, family, bits_h, extra) -> Pair:
    """G moves one interior dominating arrival of H to the end: the same
    clique number, one more universal vertex."""
    tail = len(bits_h)
    while bits_h[tail - 1] == 1:
        tail -= 1
    interior = [i for i in range(1, tail) if bits_h[i] == 1]
    moved = interior[rng.randrange(len(interior))]
    bits = bits_h[:moved] + bits_h[moved + 1 :] + [1]
    bits_g, _ = _insert_isolated(rng, bits, extra)
    return finish(rng, family, threshold_expr(bits_g), threshold_expr(bits_h), "NO", "universal")


def threshold_no_connectivity(rng, family, bits_h, extra) -> Pair:
    """H ends with isolated arrivals (disconnected); G moves H's last
    dominating arrival to the end (connected)."""
    last = max(i for i, b in enumerate(bits_h) if b)
    bits = bits_h[:last] + bits_h[last + 1 :] + [1]
    bits_g, _ = _insert_isolated(rng, bits, extra)
    return finish(rng, family, threshold_expr(bits_g), threshold_expr(bits_h), "NO", "connectivity")


# ---------------------------------------------------------------------------
# trivially perfect graphs, as rooted forests: a vertex is adjacent to its
# ancestors and descendants


def forest(rng: random.Random, n: int, roots: int, cap: int, chain: float = 0.3) -> list[int]:
    """Parent list (-1 for roots) of a random forest of height exactly cap.
    Root 0 carries a path of length cap; later vertices extend the newest
    vertex with probability `chain`, else hang under a random vertex."""
    parent = [-1] * roots
    depth = [1] * roots
    for _ in range(cap - 1):
        parent.append(len(parent) - 1 if len(parent) > roots else 0)
        depth.append(depth[parent[-1]] + 1)
    while len(parent) < n:
        last = len(parent) - 1
        if rng.random() < chain and depth[last] < cap:
            p = last
        else:
            p = rng.randrange(len(parent))
            while depth[p] >= cap:
                p = rng.randrange(len(parent))
        parent.append(p)
        depth.append(depth[p] + 1)
    return parent


def forest_expr(parent: list[int]) -> object:
    children: list[list[int]] = [[] for _ in parent]
    roots = []
    for v, p in enumerate(parent):
        (roots if p < 0 else children[p]).append(v)
    sub: dict[int, object] = {}
    order = []
    stack = list(roots)
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    for v in reversed(order):
        kids = [sub.pop(c) for c in children[v]]
        if not kids:
            sub[v] = v
        elif len(kids) == 1:
            k = kids[0]
            sub[v] = ("J", (v,) + (k[1] if isinstance(k, tuple) and k[0] == "J" else (k,)))
        else:
            sub[v] = ("J", (v, ("U", tuple(kids))))
    tops = [sub[r] for r in roots]
    return tops[0] if len(tops) == 1 else ("U", tuple(tops))


def _depths(parent: list[int]) -> list[int]:
    depth = [0] * len(parent)
    for v in range(len(parent)):
        chain = []
        u = v
        while u >= 0 and depth[u] == 0:
            chain.append(u)
            u = parent[u]
        base = depth[u] if u >= 0 else 0
        for w in reversed(chain):
            base += 1
            depth[w] = base
    return depth


def _children(parent: list[int]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            kids[p].append(v)
    return kids


def two_inner_children(expr, kind: str) -> bool:
    """Some node of this kind has two non-leaf children: for a union that
    is an induced 2K2, for a join an induced C4."""
    return any(
        isinstance(node, tuple)
        and node[0] == kind
        and sum(1 for c in node[1] if isinstance(c, tuple)) >= 2
        for node in postorder(expr)
    )


def tp_forest(rng, n, roots, cap) -> list[int]:
    """A forest whose graph is trivially perfect but not threshold."""
    while True:
        parent = forest(rng, n, roots, cap)
        if two_inner_children(forest_expr(parent), "U"):
            return parent


def tp_yes(rng, family, n_h, roots, cap, twins, branches) -> Pair:
    """H plus false-twin leaves and dominated branches."""
    parent = tp_forest(rng, n_h, roots, cap)
    depth = _depths(parent)
    kids = _children(parent)
    rho = list(range(n_h))
    g_parent = list(parent)
    leaf_ids = [v for v in range(n_h) if not kids[v]]
    for _ in range(twins):
        leaf = leaf_ids[rng.randrange(len(leaf_ids))]
        g_parent.append(parent[leaf])
        rho.append(leaf)
    height = [1] * n_h  # longest downward chain, counted in vertices
    for v in sorted(range(n_h), key=lambda v: -depth[v]):
        if parent[v] >= 0:
            height[parent[v]] = max(height[parent[v]], height[v] + 1)
    holders = [v for v in range(n_h) if kids[v]]
    for _ in range(branches):
        u = holders[rng.randrange(len(holders))]
        top = max(kids[u], key=lambda c: height[c])
        chain = [top]
        while kids[chain[-1]]:
            chain.append(max(kids[chain[-1]], key=lambda c: height[c]))
        size = rng.randrange(1, 2 * len(chain) + 1) if len(chain) > 1 else 1
        local_depth: list[int] = []
        base = len(g_parent)
        for i in range(size):
            if i == 0:
                g_parent.append(u)
                local_depth.append(0)
            else:
                p = rng.randrange(i)
                while local_depth[p] + 1 >= len(chain):
                    p = rng.randrange(i)
                g_parent.append(base + p)
                local_depth.append(local_depth[p] + 1)
            rho.append(chain[local_depth[-1]])
    gamma = tuple(range(n_h))
    return finish(rng, family, forest_expr(g_parent), forest_expr(parent), "YES", "twins-and-branches", (tuple(rho), gamma))


def tp_no_alpha(rng, family, n_h, roots, cap, moves, subdivisions) -> Pair:
    """G re-hangs leaves of H under other leaves (one leaf fewer each time)
    and subdivides shallow leaf edges (same leaves, same height)."""
    while True:
        parent = tp_forest(rng, n_h, roots, cap)
        g_parent = _fewer_leaves(rng, parent, cap, moves, subdivisions)
        if g_parent is not None:
            return finish(rng, family, forest_expr(g_parent), forest_expr(parent), "NO", "alpha")


def _fewer_leaves(rng, parent, cap, moves, subdivisions) -> list[int] | None:
    g_parent = list(parent)
    for step in range(moves + subdivisions):
        depth = _depths(g_parent)
        kids = _children(g_parent)
        shallow = [v for v in range(len(g_parent)) if not kids[v] and depth[v] < cap]
        if step >= moves:
            if not shallow:
                return None
            leaf = shallow[rng.randrange(len(shallow))]
            g_parent.append(g_parent[leaf])
            g_parent[leaf] = len(g_parent) - 1
            continue
        movable = [v for v in shallow if g_parent[v] < 0 or len(kids[g_parent[v]]) >= 2]
        if not movable or len(shallow) < 2:
            return None
        a = movable[rng.randrange(len(movable))]
        b = shallow[rng.randrange(len(shallow))]
        while b == a:
            b = shallow[rng.randrange(len(shallow))]
        g_parent[a] = b
    return g_parent


def tp_no_universal(rng, family, k, n_x, roots, cap) -> Pair:
    """H = K_k joined to a forest X of height cap; G = K_{k+1} joined to a
    forest of height cap - 1 with one vertex more than X."""

    def joined(chain_len, n_rest, height):
        rest = tp_forest(rng, n_rest, roots, height)
        parent = [-1] + list(range(chain_len - 1))
        parent += [p + chain_len if p >= 0 else chain_len - 1 for p in rest]
        return forest_expr(parent)

    return finish(rng, family, joined(k + 1, n_x + 1, cap - 1), joined(k, n_x, cap), "NO", "universal")


# ---------------------------------------------------------------------------
# general cographs


def random_cotree(rng: random.Random, ids, kind: str):
    """Random alternating expression over the given vertex ids."""
    ids = list(ids)
    if len(ids) == 1:
        return ids[0]
    parts = rng.randint(2, min(3, len(ids)))
    cuts = sorted(rng.sample(range(1, len(ids)), parts - 1))
    bounds = [0] + cuts + [len(ids)]
    other = "J" if kind == "U" else "U"
    return (kind, tuple(random_cotree(rng, ids[bounds[i] : bounds[i + 1]], other) for i in range(parts)))


def non_tp_cotree(rng: random.Random, ids, kind: str):
    while True:
        expr = random_cotree(rng, ids, kind)
        if two_inner_children(expr, "J"):
            return expr


def clique(ids):
    ids = list(ids)
    return ids[0] if len(ids) == 1 else ("J", tuple(ids))


def c4_join_clique(k: int):
    """join(C4, K_k) on ids 0..k+3."""
    return ("J", (("U", (0, 1)), ("U", (2, 3))) + tuple(range(4, 4 + k)))


def c4_clique_yes(rng, family, k) -> Pair:
    """join(C4, K_k) retracts onto its maximum clique K_{k+2}."""
    g_expr = c4_join_clique(k)
    colour, big = coloring_into_clique(g_expr)
    rho = tuple(colour[v] for v in range(k + 4))
    return finish(rng, family, g_expr, clique(range(k + 2)), "YES", "onto-max-clique", (rho, tuple(big)))


def c4_alpha_no(rng, family, k) -> Pair:
    """join(3K1, K_{k+1}) has independence number 3 > 2 = alpha(join(C4, K_k))."""
    h_expr = ("J", (("U", (0, 1, 2)),) + tuple(range(3, k + 4)))
    return finish(rng, family, c4_join_clique(k), h_expr, "NO", "alpha")


def cograph_yes(rng, family, n_h, twins, branches) -> Pair:
    """H (with an induced C4) plus dominated union branches and false twins."""
    return extension(rng, family, non_tp_cotree(rng, range(n_h), rng.choice("UJ")), twins, branches)


def extension(rng, family, h_expr, twins, branches) -> Pair:
    """G = H plus dominated union branches and false twins, with the
    certificate that folds each twin onto its vertex and colours each branch
    into a maximum clique of its sibling."""
    n_h = len(leaves(h_expr))
    rho = list(range(n_h))
    next_id = n_h
    extra: dict[int, list] = {}
    unions = [node for node in postorder(h_expr) if isinstance(node, tuple) and node[0] == "U"]
    top_extra: list = []
    for _ in range(branches):
        at_top = not unions or rng.random() < 0.25
        if at_top:
            sibling = h_expr
        else:
            node = unions[rng.randrange(len(unions))]
            sibling = max(node[1], key=omega_of)
        _, sib_clique = coloring_into_clique(sibling)
        size = rng.randint(1, 4)
        branch = random_cotree(rng, range(next_id, next_id + size), "J")
        if omega_of(branch) > len(sib_clique):
            branch = ("U", tuple(range(next_id, next_id + size))) if size > 1 else next_id
        colour, _ = coloring_into_clique(branch)
        for v in range(next_id, next_id + size):
            rho.append(sib_clique[colour[v]])
        next_id += size
        (top_extra if at_top else extra.setdefault(id(node), [])).append(branch)
    twin_of: dict[int, int] = {}
    for _ in range(twins):
        v = rng.randrange(n_h)
        while v in twin_of:
            v = rng.randrange(n_h)
        twin_of[v] = next_id
        rho.append(v)
        next_id += 1
    done: dict[int, object] = {}
    for node in postorder(h_expr):
        if isinstance(node, tuple):
            kids = tuple(done[id(c)] for c in node[1]) + tuple(extra.get(id(node), ()))
            done[id(node)] = (node[0], kids)
        else:
            done[id(node)] = ("U", (node, twin_of[node])) if node in twin_of else node
    g_expr = done[id(h_expr)]
    if top_extra:
        g_expr = ("U", (g_expr,) + tuple(top_extra))
    cert = (tuple(rho), tuple(range(n_h)))
    return finish(rng, family, normalize(g_expr), h_expr, "YES", "twins-and-branches", cert)


def cograph_no_universal(rng, family, k, n_x) -> Pair:
    """H = join(K_k, X), G = join(K_{k+1}, X') with X, X' disconnected,
    X with an induced C4 and omega(X') = omega(X) - 1."""
    x = non_tp_cotree(rng, range(k, k + n_x), "U")
    ids = range(k + 1, k + 1 + n_x)
    for _ in range(100):
        x2 = random_cotree(rng, ids, "U")
        if omega_of(x2) == omega_of(x) - 1:
            break
    else:  # disjoint cliques of the right size
        size = omega_of(x) - 1
        x2 = ("U", tuple(clique(ids[i : i + size]) for i in range(0, n_x, size)))
    h_expr = ("J", tuple(range(k)) + (x,))
    g_expr = ("J", tuple(range(k + 1)) + (x2,))
    return finish(rng, family, g_expr, h_expr, "NO", "universal")


def balanced_cotree(ids: list[int], omega: int, kind: str):
    """Connected (kind J) or not (kind U) expression in which every union
    node's children share one clique number, so every vertex lies in a
    maximum clique."""
    if len(ids) == 1 or omega == len(ids) and kind == "J":
        return clique(ids)
    if kind == "U":
        parts = max(2, min(3, len(ids) // max(omega, 1)))
        size = len(ids) // parts
        if size < omega:
            return balanced_cotree(ids, omega, "J")
        chunks = [ids[i * size : (i + 1) * size] for i in range(parts - 1)]
        chunks.append(ids[(parts - 1) * size :])
        return ("U", tuple(balanced_cotree(c, omega, "J") for c in chunks))
    if omega == 1:
        return ("U", tuple(ids))
    first = omega // 2
    split = max(first, min(len(ids) - (omega - first), len(ids) // 2))
    left = balanced_cotree(ids[:split], first, "U")
    right = balanced_cotree(ids[split:], omega - first, "U")
    return normalize(("J", (left, right)))


def deficient_cotree(rng: random.Random, n: int, omega: int):
    """A balanced connected expression plus a clique (of at most three
    vertices, returned too) added under one of its union nodes whose
    children have a larger clique number, so the new vertices lie in no
    maximum clique."""
    widest = max(omega_of(node) for node in postorder(balanced_cotree(list(range(n - 1)), omega, "J"))
                 if isinstance(node, tuple) and node[0] == "U")
    k = min(3, widest - 1)
    body = balanced_cotree(list(range(n - k)), omega, "J")
    unions = [node for node in postorder(body)
              if isinstance(node, tuple) and node[0] == "U" and omega_of(node) > k]
    target = unions[rng.randrange(len(unions))]
    short = clique(range(n - k, n))
    done: dict[int, object] = {}
    for node in postorder(body):
        if isinstance(node, tuple):
            kids = tuple(done[id(c)] for c in node[1])
            done[id(node)] = (node[0], kids + ((short,) if node is target else ()))
        else:
            done[id(node)] = node
    return done[id(body)], list(range(n - k, n))
