"""Seeded generators of corpus text for the `chains` and `structural`
workloads.

Each generator returns s-expression text in the bundled corpus format, so
the program under test only ever sees generated input through
`corpus.parse_corpus`. The same seed gives byte-identical text.

`chains` items are canonical contexts (parameter skeletons, parameter to
parameter constraints, bare lower dirt bounds), so reduction is the
identity and the graph phases do the work. Every item carries a term of
its declared type: a cast of a function argument along a walk through the
constraint graph, written as a balanced `coseq` tree so that nesting stays
logarithmic in the walk length. Type and dirt graphs share one shape;
each walk step is one `coarrow` coercion that pairs the type edge with its
dirt edge.

`structural` items are non-canonical: chains of type parameters at arrow
skeletons of depth 1 to 3 linked by structural constraints, which
reduction decomposes down to parameter edges, and dirt chains fed by
closed lower bounds, which force absorption restarts. Only depth-1 items
carry a term; see NOTES.md for why.
"""

from __future__ import annotations

import random

SIGNATURE = "(signature (op Random (unit) (base bit)) (op Fail (unit) (unit)))"
OPS = ("Fail", "Random")

# Parameters per sort. Dense contexts stop at 200 and the 400 ladder is
# only checked (CHECK_ONLY), so that a timed pass takes a few seconds and
# a run holds several passes.
CHAIN_SIZES = {
    "chain": (100, 200, 400),
    "ring": (100, 200, 400),
    "ladder": (100, 200, 400),
    "dense": (100, 200),
}
# Items that only the untimed output checks run. `ladder_n400` is the
# smallest generated item whose phase trace is long enough for the
# witness check to fail (NOTES.md, "Known defects").
CHECK_ONLY = {"ladder_n400"}
STRUCT_DEPTHS = (1, 2, 3)
STRUCT_SIZES = (200, 400, 800)


def coseq_tree(leaves: list[str]) -> str:
    """Balanced composition of coercion texts, first leaf applied first."""
    if len(leaves) == 1:
        return leaves[0]
    mid = len(leaves) // 2
    return f"(coseq {coseq_tree(leaves[:mid])} {coseq_tree(leaves[mid:])})"


def _dirt(ops, tail: str) -> str:
    return f"(dirt ({' '.join(sorted(ops))}) {tail})"


def _fn_type(dom: str, a: str, d: str) -> str:
    return f"(arrow {dom} (comp (param {a}) (dirt () {d})))"


def _graph_item(name: str, n: int, edges, walk, labels, held) -> str:
    """One canonical item over `n` nodes; node i is type parameter `a<i>`
    and dirt parameter `d<i>`, edge k is `w<k>` on types and `p<k>` on
    dirt. `walk` lists edge indices forming a path; `labels[k]` is the
    operation set on the upper bound of dirt edge k (walk edges must be
    unlabeled so the casts compose).

    The cast function's domain is `(unit)`, or with `held = (x, z)` the
    type `unit -> a<x> ! d<z>`. The domain occurs on both sides of the
    declared type, so held parameters are bipolar and no bridge can remove
    them: they are the residue the phases must keep."""
    decls = ["(skel s1)"]
    decls += [f"(dirt d{i})" for i in range(n)]
    decls += [f"(typaram a{i} (param s1))" for i in range(n)]
    decls += [f"(dco p{k} (dirt () d{u}) {_dirt(labels[k], f'd{v}')})"
              for k, (u, v) in enumerate(edges)]
    decls += [f"(tyco w{k} (param a{u}) (param a{v}))"
              for k, (u, v) in enumerate(edges)]
    start = edges[walk[0]][0]
    end = edges[walk[-1]][1]
    arg = "(unit)"
    if held:
        x, z = held
        arg = f"(arrow (unit) (comp (param a{x}) (dirt () d{z})))"
    dom = _fn_type(arg, f"a{start}", f"d{start}")
    cod = _fn_type(arg, f"a{end}", f"d{end}")
    steps = [f"(coarrow (corefl {arg}) (cco (covar w{k}) (dvar p{k})))" for k in walk]
    return (
        f"(item {name}\n  {SIGNATURE}\n  (context\n    "
        + "\n    ".join(decls)
        + f")\n  (poltype (arrow {dom} (comp {cod} (dirt ()))))"
        + f"\n  (term (lam f {dom} (return (castv (var f) {coseq_tree(steps)})))))\n"
    )


def _chain(n: int, rng: random.Random):
    edges = [(i, i + 1) for i in range(n - 1)]
    return edges, list(range(len(edges))), [()] * len(edges), ()


def _ring(n: int, rng: random.Random):
    """Rings of about sqrt(n) nodes, each linked to the next by one edge.

    The walk goes round every ring and then crosses to the next one, so it
    uses every edge."""
    size = max(2, round(n ** 0.5))
    rings = [list(range(s, min(s + size, n))) for s in range(0, n, size)]
    if len(rings[-1]) < 2:
        rings[-2].extend(rings.pop())
    edges, walk = [], []
    for j, ring in enumerate(rings):
        for i, node in enumerate(ring):
            walk.append(len(edges))
            edges.append((node, ring[(i + 1) % len(ring)]))
        if j + 1 < len(rings):
            walk.append(len(edges))
            edges.append((ring[0], rings[j + 1][0]))
    return edges, walk, [()] * len(edges), ()


def _ladder(n: int, rng: random.Random):
    """Diamonds top -> left, right -> next top; the walk takes the left."""
    edges, walk = [], []
    top = 0
    while top + 3 < n:
        left, right, nxt = top + 1, top + 2, top + 3
        walk += [len(edges), len(edges) + 2]
        edges += [(top, left), (top, right), (left, nxt), (right, nxt)]
        top = nxt
    return edges, walk, [()] * len(edges), ()


def _dense(n: int, rng: random.Random):
    """A spine 0 -> 1 -> ... plus one random forward edge from every other
    node, labeled at random on the dirt side, and two random held nodes.
    Every other node merges into the start, the end or a held node, so the
    residue hardly depends on the seed."""
    edges = [(i, i + 1) for i in range(n - 1)]
    walk = list(range(len(edges)))
    labels = [()] * len(edges)
    for u in range(0, n - 2, 2):
        edges.append((u, rng.randrange(u + 2, min(n, u + 10))))
        labels.append(tuple(op for op in OPS if rng.random() < 0.5))
    held = tuple(rng.sample(range(1, n - 1), 2))
    return edges, walk, labels, held


_SHAPES = {"chain": _chain, "ring": _ring, "ladder": _ladder, "dense": _dense}


def chains_text(seed: int) -> str:
    """Corpus text for the `chains` workload: every family at every size.

    Item names carry the family and size (`chain_n200`); the seed picks the
    random edges of the dense family and the order of the declarations is
    fixed, so equal seeds give equal text."""
    rng = random.Random(f"chains:{seed}")
    parts = [f"; chains workload, seed {seed}\n"]
    for family, sizes in CHAIN_SIZES.items():
        for n in sizes:
            edges, walk, labels, held = _SHAPES[family](n, rng)
            parts.append(_graph_item(f"{family}_n{n}", n, edges, walk, labels, held))
    return "".join(parts)


def _skel(depth: int) -> str:
    if depth == 0:
        return "(param s1)"
    return f"(arrow {_skel(depth - 1)} {_skel(depth - 1)})"


def struct_out_params(depth: int) -> int:
    """Canonical parameters that one type parameter of this depth becomes:
    one per skeleton leaf plus one dirt per arrow."""
    return 2 ** (depth + 1) - 1


def _struct_item(name: str, depth: int, size: int, rng: random.Random) -> str:
    """Half of `size` output parameters come from a chain of type
    parameters at depth-`depth` arrow skeletons, half from a dirt chain
    fed by four closed lower bounds of one operation in its last eighth. Each
    absorption restarts the dirt stage, which recomposes the whole
    substitution built so far."""
    per = struct_out_params(depth)
    count = max(2, (size // 2) // per)
    dirts = size - count * per
    op = rng.choice(OPS)
    # One feed in each quarter of the last eighth: the restarts, and so the
    # item's cost, vary less between seeds than with four free draws.
    lo, span = dirts - dirts // 8, dirts // 8
    feeds = [lo + (k * span) // 4 + rng.randrange(max(1, span // 4)) for k in range(4)]
    decls = ["(skel s1)"]
    decls += [f"(dirt e{i})" for i in range(dirts)]
    decls += [f"(typaram f{i} {_skel(depth)})" for i in range(count)]
    decls += [f"(dco g{i} (dirt () e{i}) (dirt () e{i + 1}))" for i in range(dirts - 1)]
    decls += [f"(dco h{j} (dirt ({op})) (dirt () e{i}))" for j, i in enumerate(feeds)]
    decls += [f"(tyco c{i} (param f{i}) (param f{i + 1}))" for i in range(count - 1)]
    text = (
        f"(item {name}\n  {SIGNATURE}\n  (context\n    "
        + "\n    ".join(decls)
        + f")\n  (poltype (arrow (param f0) (comp (param f{count - 1}) (dirt ()))))"
    )
    if depth == 1:
        steps = [f"(covar c{i})" for i in range(count - 1)]
        text += (f"\n  (term (lam x (param f0) "
                 f"(return (castv (var x) {coseq_tree(steps)}))))")
    return text + ")\n"


def structural_text(seed: int) -> str:
    """Corpus text for the `structural` workload: every depth at every
    output size. The seed picks the operation and the feeding points of
    each dirt chain."""
    rng = random.Random(f"structural:{seed}")
    parts = [f"; structural workload, seed {seed}\n"]
    for depth in STRUCT_DEPTHS:
        for size in STRUCT_SIZES:
            parts.append(_struct_item(f"arrow{depth}_n{size}", depth, size, rng))
    return "".join(parts)
