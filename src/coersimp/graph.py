"""Constraint graphs of canonical contexts.

A canonical context is read as two directed graphs. The type graph has one
node per type parameter and one edge per subtyping constraint (which, in
canonical form, always relates two bare parameters). The dirt graph has one
node per dirt parameter plus a single shared sink for closed upper bounds;
each edge carries the finite operation set of its upper bound as a label.

`ConstraintGraph` is the mutable, indexed form the phase engine keeps for a
whole run: edges are updated in place as steps merge or ground parameters,
so a step costs the size of its change. Both sorts share it: a type edge is
a dirt edge with an empty label that never ends in the sink. `to_dot`
renders both graphs straight from the context rows.
"""

from __future__ import annotations

from .syntax import ParamContext

# Shared sink node for dirt constraints with a closed upper bound. Not a
# parameter name; kept out of node lists.
SINK = "*closed*"


def build_type_graph(ctx: ParamContext) -> ConstraintGraph:
    return ConstraintGraph([name for name, _ in ctx.ty_params],
                           [(name, lo.name, hi.name, frozenset()) for name, lo, hi in ctx.ty_cos])


def build_dirt_graph(ctx: ParamContext) -> ConstraintGraph:
    return ConstraintGraph(list(ctx.dirt_params),
                           [(name, lo.tail, SINK if hi.tail is None else hi.tail, hi.ops)
                            for name, lo, hi in ctx.dirt_cos])


def tarjan_scc(nodes: list[str], succ: dict[str, list[str]]) -> list[list[str]]:
    """Strongly connected components, iteratively, in reverse topological
    order of the condensation. Node order inside a component follows
    discovery order.

    A node leaves the search stack with its component; its index is then
    raised above every other, so that an edge into a finished component
    lowers no lowlink and no on-stack set is needed."""
    index: dict[str, int] = {}
    stack: list[str] = []
    sccs: list[list[str]] = []
    done = float("inf")  # the index of a node whose component is out

    for root in nodes:
        if root in index:
            continue
        index[root] = len(index)
        stack.append(root)
        # Each frame is [node, iterator over its remaining successors, lowlink].
        work = [[root, iter(succ.get(root, ())), index[root]]]
        while work:
            frame = work[-1]
            node, kids, low = frame
            for kid in kids:
                seen = index.get(kid)
                if seen is None:
                    frame[2] = low
                    index[kid] = seen = len(index)
                    stack.append(kid)
                    work.append([kid, iter(succ.get(kid, ())), seen])
                    break
                if seen < low:
                    low = seen
            else:
                work.pop()
                if low == index[node]:
                    at = len(stack) - 1
                    while stack[at] != node:
                        at -= 1
                    comp = stack[at:]
                    del stack[at:]
                    for member in comp:
                        index[member] = done
                    sccs.append(comp)
                elif low < work[-1][2]:  # not a component's root, so not the search's
                    work[-1][2] = low
    return sccs


class Edge:
    """A mutable edge of a `ConstraintGraph`. `key` is the edge's position
    in the context's constraint list and fixes its order."""

    __slots__ = ("name", "src", "dst", "ops", "key")

    def __init__(self, name: str, src: str, dst: str, ops: frozenset[str], key: int):
        self.name, self.src, self.dst, self.ops, self.key = name, src, dst, ops, key


class ConstraintGraph:
    """One sort's constraint graph, indexed for in-place updates.

    Nodes keep their context order (`order` maps each live node to its
    position) and edges their constraint order (`Edge.key`). Besides the
    in- and out-edges of every node, the graph counts the edges of every
    (source, target) pair and indexes the self loops and the pairs holding
    two or more edges, so cleanup finds its work without a scan. The
    constructor fills every index in one pass over the rows, and leaves
    `touched` empty: nothing has changed yet. From then on every end of an
    added, moved or removed edge, and every removed node, is recorded in
    `touched` until the owner clears it. `additions` counts the edges added
    after construction.
    """

    def __init__(self, nodes: list[str], rows: list[tuple[str, str, str, frozenset[str]]]):
        """`rows` are the edges as (name, source, target, label), in
        constraint order."""
        self.order = {n: i for i, n in enumerate(nodes)}
        self.ins: dict[str, dict[int, Edge]] = {n: {} for n in nodes}
        self.outs: dict[str, dict[int, Edge]] = {n: {} for n in nodes}
        self.ins[SINK] = {}
        self.edges: dict[int, Edge] = {}
        self.pairs: dict[tuple[str, str], int] = {}
        self.loops: dict[int, Edge] = {}
        self.multi: set[tuple[str, str]] = set()
        self.touched: set[str] = set()
        self.additions = 0
        ins, outs, edges, pairs = self.ins, self.outs, self.edges, self.pairs
        for key, (name, src, dst, ops) in enumerate(rows):
            e = edges[key] = outs[src][key] = ins[dst][key] = Edge(name, src, dst, ops, key)
            pair = (src, dst)
            if pair in pairs:
                pairs[pair] += 1
                self.multi.add(pair)
            else:
                pairs[pair] = 1
            if src == dst:
                self.loops[key] = e

    def add(self, e: Edge) -> None:
        self.edges[e.key] = self.outs[e.src][e.key] = self.ins[e.dst][e.key] = e
        self._pair(e)
        self.additions += 1

    def remove(self, e: Edge) -> None:
        del self.edges[e.key], self.outs[e.src][e.key], self.ins[e.dst][e.key]
        self._unpair(e)

    def merge(self, node: str, target: str, ops: frozenset[str] = frozenset()) -> None:
        """Re-point every edge of `node` to `target` and drop the node.

        `node` becomes `ops` over `target`, so every edge into it gains
        `ops`. Only the end of an edge that changes is indexed again."""
        for e in self.outs.pop(node).values():
            self._unpair(e)
            e.src = target
            self.outs[target][e.key] = e
            self._pair(e)
        for e in self.ins.pop(node).values():
            self._unpair(e)
            e.dst, e.ops = target, e.ops | ops
            self.ins[target][e.key] = e
            self._pair(e)
        del self.order[node]
        self.touched.add(node)

    def remove_node(self, node: str) -> None:
        """Drop a node; its edges must already be gone."""
        assert not self.ins[node] and not self.outs[node], node
        del self.order[node], self.ins[node], self.outs[node]
        self.touched.add(node)

    def _pair(self, e: Edge) -> None:
        """Count `e` in its (source, target) pair; it touches both."""
        pair = (e.src, e.dst)
        count = self.pairs[pair] = self.pairs.get(pair, 0) + 1
        if count == 2:
            self.multi.add(pair)
        if e.src == e.dst:
            self.loops[e.key] = e
        self.touched.update(pair)

    def _unpair(self, e: Edge) -> None:
        pair = (e.src, e.dst)
        count = self.pairs.pop(pair) - 1
        if count:
            self.pairs[pair] = count
        if count == 1:
            self.multi.discard(pair)
        if e.src == e.dst:
            del self.loops[e.key]
        self.touched.update(pair)

    @staticmethod
    def ordered(edges: dict[int, Edge]) -> list[Edge]:
        if len(edges) < 2:
            return list(edges.values())
        return [edges[k] for k in sorted(edges)]

    def in_edges(self, node: str) -> list[Edge]:
        return self.ordered(self.ins[node])

    def out_edges(self, node: str) -> list[Edge]:
        return self.ordered(self.outs[node])

    def all_edges(self) -> list[Edge]:
        return self.ordered(self.edges)


def _quote(text: str) -> str:
    """A DOT quoted string, with backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(ctx: ParamContext, fps=None) -> str:
    """Deterministic DOT rendering of both graphs.

    Polarities (if given) are appended to node labels: `+`, `-`, or `+-`.
    A dirt constraint is an edge from its lower tail to its upper one (or
    to the `closed` node), labelled with the upper bound's operations; a
    lower bound with operations of its own shows them as well, a closed
    one as a box node of its own.
    """

    def mark(name: str) -> str:
        if fps is None:
            return ""
        tag = ""
        if name in fps.pos:
            tag += "+"
        if name in fps.neg:
            tag += "-"
        return f" [{tag}]" if tag else ""

    def node(node_id: str, name: str) -> str:
        return f"    {_quote(node_id)} [label={_quote(name + mark(name))}];"

    def ops(d) -> str:
        return "{" + ",".join(d.sorted_ops()) + "}"

    def edge(src_id: str, dst_id: str, label: str) -> str:
        return f"    {_quote(src_id)} -> {_quote(dst_id)} [label={_quote(label)}];"

    lines = ["digraph constraints {", "  rankdir=LR;"]
    lines.append("  subgraph cluster_type {")
    lines.append('    label="type constraints";')
    lines.extend(node(f"ty_{name}", name) for name, _ in ctx.ty_params)
    lines.extend(edge(f"ty_{lo.name}", f"ty_{hi.name}", name) for name, lo, hi in ctx.ty_cos)
    lines.append("  }")
    lines.append("  subgraph cluster_dirt {")
    lines.append('    label="dirt constraints";')
    lines.extend(node(f"dt_{name}", name) for name in ctx.dirt_params)
    if any(hi.tail is None for _, _, hi in ctx.dirt_cos):
        lines.append(f'    {_quote(f"dt_{SINK}")} [label="closed", shape=box];')
    for name, lo, hi in ctx.dirt_cos:
        src, label = f"dt_{lo.tail}", f"{name}:{ops(hi)}"
        if lo.tail is None:
            # A closed lower bound is a source node of its own.
            src = f"lo_{name}"
            lines.append(f"    {_quote(src)} [label={_quote(ops(lo))}, shape=box];")
        elif lo.ops:
            label = f"{name}:{ops(lo)}<={ops(hi)}"
        dst = SINK if hi.tail is None else hi.tail
        lines.append(edge(src, f"dt_{dst}", label))
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
