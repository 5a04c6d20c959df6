"""Output checks that do not call cogret: a certificate checker, graph
invariants and classes from the benchmark's own decomposition, the planted
NO reasons, a fold-sequence replayer and a brute-force retract search."""

from __future__ import annotations

from .model import PlainGraph


class NotCograph(ValueError):
    pass


def certificate_error(g: PlainGraph, h: PlainGraph, rho, gamma) -> str | None:
    """None when rho: G->H and gamma: H->G preserve edges and rho.gamma = id."""
    if len(rho) != g.n or len(gamma) != h.n:
        return "certificate has the wrong length"
    if any(not (0 <= y < h.n) for y in rho) or any(not (0 <= x < g.n) for x in gamma):
        return "certificate maps outside the graph"
    for u in range(g.n):
        ru, targets = rho[u], h.adj[rho[u]]
        for v in g.adj[u]:
            if rho[v] not in targets:
                return f"rho sends edge {u}-{v} to a non-edge {ru}-{rho[v]}"
    for y in range(h.n):
        gy, targets = gamma[y], g.adj[gamma[y]]
        for z in h.adj[y]:
            if gamma[z] not in targets:
                return f"gamma sends edge {y}-{z} to a non-edge {gy}-{gamma[z]}"
    for y in range(h.n):
        if rho[gamma[y]] != y:
            return f"rho(gamma({y})) = {rho[gamma[y]]}"
    return None


# ---------------------------------------------------------------------------
# invariants and classes


def is_connected(g: PlainGraph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def universal_count(g: PlainGraph) -> int:
    return sum(1 for v in range(g.n) if len(g.adj[v]) == g.n - 1)


def threshold_counts(g: PlainGraph) -> tuple[int, int] | None:
    """(isolated, universal) removal counts of an elimination of g, or None
    when g is not a threshold graph.  alpha is the first, omega the second
    plus one."""
    order = sorted(range(g.n), key=lambda v: len(g.adj[v]))
    lo, hi, removed_universal, isolated = 0, g.n - 1, 0, 0
    while lo <= hi:
        if len(g.adj[order[lo]]) == removed_universal:
            lo += 1
            isolated += 1
        elif len(g.adj[order[hi]]) - removed_universal == hi - lo:
            hi -= 1
            removed_universal += 1
        else:
            return None
    return isolated, removed_universal


def decompose(g: PlainGraph):
    """Cotree expression of g by components and complement components;
    raises NotCograph when a part splits neither way."""
    root = tuple(range(g.n))
    built: dict[tuple, object] = {}
    plan: dict[tuple, tuple[str, list[tuple]]] = {}
    stack = [root]
    order = []
    while stack:
        vs = stack.pop()
        order.append(vs)
        if len(vs) == 1:
            continue
        parts = _split(g, vs, complement=False)
        kind = "U"
        if len(parts) == 1:
            parts = _split(g, vs, complement=True)
            kind = "J"
            if len(parts) == 1:
                raise NotCograph(f"part of {len(vs)} vertices is prime")
        plan[vs] = (kind, parts)
        stack.extend(parts)
    for vs in reversed(order):
        if len(vs) == 1:
            built[vs] = vs[0]
        else:
            kind, parts = plan[vs]
            built[vs] = (kind, tuple(built[p] for p in parts))
    return built[root]


def _split(g: PlainGraph, vs: tuple, complement: bool) -> list[tuple]:
    unvisited = set(vs)
    parts = []
    for s in vs:
        if s not in unvisited:
            continue
        unvisited.discard(s)
        part = [s]
        stack = [s]
        while stack:
            v = stack.pop()
            step = (unvisited - g.adj[v]) if complement else (unvisited & g.adj[v])
            unvisited -= step
            part.extend(step)
            stack.extend(step)
        parts.append(tuple(sorted(part)))
    return parts


def expr_class(expr) -> str:
    """threshold, trivially_perfect or cograph, from a decomposition whose
    kinds alternate: TP iff no join has two union children; threshold iff
    also no union has two join children."""
    tp = threshold = True
    stack = [expr]
    while stack:
        node = stack.pop()
        if not isinstance(node, tuple):
            continue
        inner = sum(1 for c in node[1] if isinstance(c, tuple))
        if inner >= 2:
            threshold = False
            if node[0] == "J":
                tp = False
        stack.extend(node[1])
    if threshold:
        return "threshold"
    return "trivially_perfect" if tp else "cograph"


def invariants(g: PlainGraph) -> dict:
    """n, class, alpha, omega, universal vertices and connectivity."""
    counts = threshold_counts(g)
    if counts is not None:
        alpha, omega, cls = counts[0], counts[1] + 1, "threshold"
    else:
        expr = decompose(g)
        cls = expr_class(expr)
        alpha, omega = _alpha_omega(expr)
    return {
        "n": g.n,
        "class": cls,
        "alpha": alpha,
        "omega": omega,
        "universal": universal_count(g),
        "connected": is_connected(g),
    }


def _alpha_omega(expr) -> tuple[int, int]:
    val: dict[int, tuple[int, int]] = {}
    stack = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if not isinstance(node, tuple):
            val[id(node)] = (1, 1)
        elif ready:
            kids = [val[id(c)] for c in node[1]]
            a = [k[0] for k in kids]
            w = [k[1] for k in kids]
            val[id(node)] = (sum(a), max(w)) if node[0] == "U" else (max(a), sum(w))
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node[1])
    return val[id(expr)]


def expected_route(g_class: str, h_class: str) -> str:
    if g_class == h_class == "threshold":
        return "threshold"
    if {g_class, h_class} <= {"threshold", "trivially_perfect"}:
        return "tp"
    return "fpt"


# Every retract H of G is an induced subgraph (gamma embeds it) onto which G
# maps homomorphically and surjectively (rho).  So alpha(H) <= alpha(G),
# omega(H) = omega(G), a connected G has a connected H, and rho sends the
# universal vertices of G, a clique, to distinct universal vertices of H.
NO_REASONS = {
    "alpha": lambda ig, ih: ih["alpha"] > ig["alpha"],
    "universal": lambda ig, ih: ig["universal"] > ih["universal"],
    "connectivity": lambda ig, ih: ig["connected"] and not ih["connected"],
}


def planted_no_error(reason: str, ig: dict, ih: dict) -> str | None:
    """None when the planted NO reason holds and no size or clique-number
    test alone settles the pair."""
    if not NO_REASONS[reason](ig, ih):
        return f"planted reason {reason!r} does not hold"
    if ih["n"] > ig["n"] or ih["omega"] != ig["omega"]:
        return "a size or clique-number test settles this NO pair"
    return None


def no_image_vertex(g: PlainGraph, ids) -> int | None:
    """A vertex outside ids whose neighbours in ids have no common neighbour
    in ids.  A retraction onto G[ids] fixes ids, so it would have to send
    that vertex to such a common neighbour: none exists, so the answer is
    NO.  None when every outside vertex has a candidate image."""
    inside = set(ids)
    for x in range(g.n):
        if x in inside:
            continue
        nbrs = g.adj[x] & inside
        if nbrs and not set.intersection(*(g.adj[z] for z in nbrs)) & inside:
            return x
    return None


# ---------------------------------------------------------------------------
# folding


def replay_folds(g: PlainGraph, component, steps) -> PlainGraph | str:
    """Apply the folds to the induced subgraph on component (renumbered in
    ascending order); the final graph, or a message naming the bad step."""
    comp = sorted(component)
    if len(set(comp)) != len(comp) or any(not (0 <= v < g.n) for v in comp):
        return "component is not a set of vertices of g"
    index = {v: i for i, v in enumerate(comp)}
    adj = [{index[u] for u in g.adj[v] if u in index} for v in comp]
    for k, (x, y) in enumerate(steps):
        n = len(adj)
        if not (0 <= x < n and 0 <= y < n) or x == y:
            return f"fold {k} names a vertex out of range"
        if y in adj[x] or not (adj[x] & adj[y]):
            return f"fold {k}: {x} and {y} are not at distance two"
        merged = (adj[x] | adj[y]) - {x, y}
        for u in adj[y]:
            adj[u].discard(y)
        adj[x] = merged
        for u in merged:
            adj[u].add(x)
        del adj[y]
        adj = [{u - 1 if u > y else u for u in s} for s in adj]
    out = PlainGraph(len(adj))
    out.adj = adj
    return out


def is_complete(g: PlainGraph) -> bool:
    return all(len(s) == g.n - 1 for s in g.adj)


# ---------------------------------------------------------------------------
# brute-force retract search, for the benchmark's own tests on small inputs


def brute_retract(g: PlainGraph, h: PlainGraph):
    """Some (rho, gamma) certificate, or None when H is not a retract of G."""
    hs = sorted(range(h.n), key=lambda y: -len(h.adj[y]))
    gamma = [-1] * h.n
    used: set[int] = set()

    def embed(i: int):
        if i == h.n:
            return extend_rho(g, h, gamma)
        y = hs[i]
        for x in range(g.n):
            if x in used or len(g.adj[x]) < len(h.adj[y]):
                continue
            if any((gamma[z] in g.adj[x]) != (z in h.adj[y]) for z in hs[:i]):
                continue
            gamma[y] = x
            used.add(x)
            found = embed(i + 1)
            used.discard(x)
            if found is not None:
                return found
        gamma[y] = -1
        return None

    return embed(0)


def extend_rho(g: PlainGraph, h: PlainGraph, gamma):
    """A certificate whose co-retraction is the given embedding gamma, or
    None when no retraction fixes its image."""
    rho = [-1] * g.n
    for y, x in enumerate(gamma):
        rho[x] = y
    free = [x for x in range(g.n) if rho[x] < 0]

    def place(i: int) -> bool:
        if i == len(free):
            return True
        x = free[i]
        for y in range(h.n):
            if all(rho[z] < 0 or rho[z] in h.adj[y] for z in g.adj[x]):
                rho[x] = y
                if place(i + 1):
                    return True
        rho[x] = -1
        return False

    if place(0):
        return tuple(rho), tuple(gamma)
    return None
