"""The phase engine as it was before the incremental rewrite, kept as a
test-only differential oracle.

`_Runner` rewrites the whole context after every step, recomputes the
polarity set and re-composes the total substitution, and rebuilds the
constraint graphs from the context for every scan. It is slow but simple;
`tests/test_phases.py` checks that `coersimp.phases.run_phases` picks the
same steps, in the same order, with the same results. It reads its graphs
off the context rows with its own scan (`_Graph`) and finds their cycles
with its own search (`_tarjan_scc`, the engine's as it was when copied),
so it shares no graph code with the engine it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from coersimp.check import derived_empty, derived_refl_dirt, right_extend
from coersimp.phases import PhaseResult
from coersimp.polarity import FreeParamSet, subst_fps
from coersimp.subst import Substitution, apply_context, apply_dirt, compose
from coersimp.syntax import (
    DCoParam,
    DCoReflParam,
    Dirt,
    NameSupply,
    ParamContext,
    Signature,
    TyParam,
    VCoParam,
    VCoReflParam,
)

from support import identity


# The node a closed upper bound points to; not a parameter name.
SINK = "*closed*"


@dataclass(frozen=True)
class _Edge:
    name: str
    src: str
    dst: str  # parameter name or SINK
    ops: frozenset[str]


class _Graph:
    """One sort's constraint graph, scanned from the context rows: nodes in
    context order, edges in constraint order."""

    def __init__(self, nodes: list[str], edges: list[_Edge]):
        self.nodes = nodes
        self.edges = edges
        self._ins: dict[str, list[_Edge]] = {n: [] for n in nodes}
        self._outs: dict[str, list[_Edge]] = {n: [] for n in nodes}
        for e in edges:
            self._outs[e.src].append(e)
            self._ins.setdefault(e.dst, []).append(e)

    def in_edges(self, node: str) -> list[_Edge]:
        return self._ins[node]

    def out_edges(self, node: str) -> list[_Edge]:
        return self._outs[node]

    def successors(self) -> dict[str, list[str]]:
        """Each node's targets, closed bounds left out."""
        return {n: [e.dst for e in self._outs[n] if e.dst != SINK] for n in self.nodes}


def _type_graph(ctx: ParamContext) -> _Graph:
    return _Graph([name for name, _ in ctx.ty_params],
                  [_Edge(name, lo.name, hi.name, frozenset()) for name, lo, hi in ctx.ty_cos])


def _dirt_graph(ctx: ParamContext) -> _Graph:
    return _Graph(list(ctx.dirt_params),
                  [_Edge(name, lo.tail, SINK if hi.tail is None else hi.tail, hi.ops)
                   for name, lo, hi in ctx.dirt_cos])


def _tarjan_scc(nodes: list[str], succ: dict[str, list[str]]) -> list[list[str]]:
    """Strongly connected components, iteratively, in reverse topological
    order of the condensation. Node order inside a component follows
    discovery order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # Each frame is (node, iterator position into its successors).
        work = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            kids = succ.get(node, [])
            for i in range(pos, len(kids)):
                kid = kids[i]
                if kid not in index:
                    work.append((node, i + 1))
                    work.append((kid, 0))
                    advanced = True
                    break
                if kid in on_stack:
                    lowlink[node] = min(lowlink[node], index[kid])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.append(top)
                    if top == node:
                        break
                comp.reverse()
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


@dataclass(frozen=True)
class PhaseStep:
    phase: str  # cleanup-loop | cleanup-parallel | scc | bridge-in | bridge-out | empty | full
    sort: str  # "type" | "dirt"
    info: str
    subst: Substitution
    before: ParamContext
    after: ParamContext
    fps: FreeParamSet  # polarity set before this step
    data: dict


class _Runner:
    """Mutable state for one phase run."""

    def __init__(self, sig: Signature, ctx: ParamContext, fps: FreeParamSet, supply: NameSupply):
        self.sig = sig
        self.ctx = ctx
        self.fps = fps
        self.supply = supply
        self.total = identity()
        self.steps: list[PhaseStep] = []

    def commit(self, phase: str, sort: str, info: str, sub: Substitution,
               after: ParamContext, data: dict) -> None:
        self.steps.append(
            PhaseStep(phase, sort, info, sub, self.ctx, after, self.fps, data)
        )
        self.ctx = after
        self.fps = subst_fps(sub, self.fps)
        self.total = compose(sub, self.total)

    # -- cleanup ------------------------------------------------------------

    def _drop_type_loops(self) -> bool:
        changed = False
        for name, lo, hi in self.ctx.ty_cos:
            if lo == hi:
                sub = Substitution(vco={name: VCoReflParam(lo.name)})
                after = apply_context(sub, self.ctx)
                self.commit("cleanup-loop", "type", f"drop loop {name} on {lo}",
                            sub, after, {"edge": name})
                changed = True
        return changed

    def _drop_dirt_loops(self) -> bool:
        changed = False
        for name, lo, hi in self.ctx.dirt_cos:
            if hi.tail is not None and hi.tail == lo.tail:
                co = right_extend(hi.ops, DCoReflParam(lo.tail))
                sub = Substitution(dco={name: co})
                after = apply_context(sub, self.ctx)
                self.commit("cleanup-loop", "dirt", f"drop loop {name} on {lo}",
                            sub, after, {"edge": name})
                changed = True
        return changed

    def _collapse_type_parallels(self) -> bool:
        groups: dict[tuple[str, str], list[str]] = {}
        for name, lo, hi in self.ctx.ty_cos:
            groups.setdefault((lo.name, hi.name), []).append(name)
        changed = False
        for (src, dst), names in groups.items():
            if len(names) < 2:
                continue
            kept, dropped = names[0], names[1:]
            sub = Substitution(vco={n: VCoParam(kept) for n in dropped})
            after = apply_context(sub, self.ctx)
            self.commit("cleanup-parallel", "type",
                        f"merge parallel {'/'.join(names)} into {kept}",
                        sub, after, {"kept": kept, "dropped": dropped})
            changed = True
        return changed

    def _collapse_dirt_parallels(self) -> bool:
        groups: dict[tuple[str, str | None], list[tuple[str, Dirt, Dirt]]] = {}
        for row in self.ctx.dirt_cos:
            groups.setdefault((row[1].tail, row[2].tail), []).append(row)
        changed = False
        for (src, dst), rows in groups.items():
            if len(rows) < 2:
                continue
            meet = frozenset.intersection(*[hi.ops for _, _, hi in rows])
            upper = Dirt(meet, dst)
            kept = next((n for n, _, hi in rows if hi.ops == meet), None)
            fresh = None if kept is not None else self.supply.fresh("p")
            rep = kept if kept is not None else fresh
            dropped = [n for n, _, _ in rows if n != kept]
            sub = Substitution(dco={
                n: right_extend(hi.ops - meet, DCoParam(rep))
                for n, _, hi in rows if n != kept
            })
            survivors = apply_context(sub, self.ctx)
            if fresh is not None:
                # Insert the intersected constraint where the bundle started.
                new_rows = []
                for row in self.ctx.dirt_cos:
                    if row[0] == rows[0][0]:
                        new_rows.append((fresh, row[1], upper))
                    if row[0] not in dropped:
                        new_rows.append(row)
                survivors = ParamContext(
                    survivors.skel_params, survivors.dirt_params,
                    survivors.ty_params, tuple(new_rows), survivors.ty_cos,
                )
            self.commit("cleanup-parallel", "dirt",
                        f"intersect parallel bundle on {src} into {rep}",
                        sub, survivors,
                        {"kept": kept, "fresh": fresh, "dropped": dropped,
                         "src": src, "upper": upper})
            changed = True
        return changed

    def cleanup(self, sort: str) -> None:
        while True:
            changed = False
            if sort in ("type", "both"):
                changed |= self._drop_type_loops()
                changed |= self._collapse_type_parallels()
            if sort in ("dirt", "both"):
                changed |= self._drop_dirt_loops()
                changed |= self._collapse_dirt_parallels()
            if not changed:
                return

    # -- strongly connected components --------------------------------------

    def _scc_type(self) -> bool:
        g = _type_graph(self.ctx)
        order = {n: i for i, n in enumerate(g.nodes)}
        changed = False
        for comp in _tarjan_scc(g.nodes, g.successors()):
            if len(comp) < 2:
                continue
            rep = min(comp, key=order.__getitem__)
            members = set(comp)
            internal = [e.name for e in g.edges
                        if e.src in members and e.dst in members]
            sub = Substitution(
                ty={m: TyParam(rep) for m in comp if m != rep},
                vco={n: VCoReflParam(rep) for n in internal},
            )
            after = apply_context(sub, self.ctx)
            self.commit("scc", "type",
                        f"contract cycle {'/'.join(comp)} to {rep}",
                        sub, after,
                        {"rep": rep, "merged": [m for m in comp if m != rep],
                         "internal": internal})
            self.cleanup("type")
            changed = True
            return True  # graph changed; recompute components
        return changed

    def _scc_dirt(self) -> bool:
        g = _dirt_graph(self.ctx)
        empty_succ: dict[str, list[str]] = {n: [] for n in g.nodes}
        for e in g.edges:
            if e.dst != SINK and not e.ops:
                empty_succ[e.src].append(e.dst)
        order = {n: i for i, n in enumerate(g.nodes)}
        for comp in _tarjan_scc(g.nodes, empty_succ):
            if len(comp) < 2:
                continue
            rep = min(comp, key=order.__getitem__)
            members = set(comp)
            internal = [e.name for e in g.edges
                        if e.src in members and e.dst in members and not e.ops]
            sub = Substitution(
                dirt={m: Dirt(frozenset(), rep) for m in comp if m != rep},
                dco={n: DCoReflParam(rep) for n in internal},
            )
            after = apply_context(sub, self.ctx)
            self.commit("scc", "dirt",
                        f"contract cycle {'/'.join(comp)} to {rep}",
                        sub, after,
                        {"rep": rep, "merged": [m for m in comp if m != rep],
                         "internal": internal})
            self.cleanup("dirt")  # labeled cycle edges became self-loops
            return True
        return False

    def scc(self, sort: str) -> None:
        self.cleanup(sort)
        while True:
            changed = False
            if sort in ("type", "both"):
                changed |= self._scc_type()
            if sort in ("dirt", "both"):
                changed |= self._scc_dirt()
            if not changed:
                return

    # -- bridges ------------------------------------------------------------

    def _bridge_type_once(self) -> bool:
        g = _type_graph(self.ctx)
        for node in g.nodes:  # bridge-in: unique lower bound, non-negative
            if node in self.fps.neg:
                continue
            edges = g.in_edges(node)
            if len(edges) != 1 or edges[0].src == node:
                continue
            e = edges[0]
            moved = [x.name for x in g.out_edges(node)]
            sub = Substitution(ty={node: TyParam(e.src)},
                               vco={e.name: VCoReflParam(e.src)})
            after = apply_context(sub, self.ctx)
            self.commit("bridge-in", "type",
                        f"merge {node} down into {e.src} via {e.name}",
                        sub, after,
                        {"edge": e.name, "src": e.src, "dst": node,
                         "moved": moved})
            self.cleanup("type")
            return True
        for node in g.nodes:  # bridge-out: unique upper bound, non-positive
            if node in self.fps.pos:
                continue
            edges = g.out_edges(node)
            if len(edges) != 1 or edges[0].dst == node:
                continue
            e = edges[0]
            moved = [x.name for x in g.in_edges(node)]
            sub = Substitution(ty={node: TyParam(e.dst)},
                               vco={e.name: VCoReflParam(e.dst)})
            after = apply_context(sub, self.ctx)
            self.commit("bridge-out", "type",
                        f"merge {node} up into {e.dst} via {e.name}",
                        sub, after,
                        {"edge": e.name, "src": node, "dst": e.dst,
                         "moved": moved})
            self.cleanup("type")
            return True
        return False

    def _bridge_dirt_once(self) -> bool:
        g = _dirt_graph(self.ctx)
        for node in g.nodes:  # bridge-in: needs an empty-labeled lower bound
            if node in self.fps.neg:
                continue
            edges = g.in_edges(node)
            if len(edges) != 1 or edges[0].src == node or edges[0].ops:
                continue
            e = edges[0]
            moved = [x.name for x in g.out_edges(node)]
            sub = Substitution(dirt={node: Dirt(frozenset(), e.src)},
                               dco={e.name: DCoReflParam(e.src)})
            after = apply_context(sub, self.ctx)
            self.commit("bridge-in", "dirt",
                        f"merge {node} down into {e.src} via {e.name}",
                        sub, after,
                        {"edge": e.name, "src": e.src, "dst": node,
                         "moved": moved})
            self.cleanup("dirt")
            return True
        for node in g.nodes:  # bridge-out: label folds into the image
            if node in self.fps.pos:
                continue
            edges = g.out_edges(node)
            if len(edges) != 1 or edges[0].dst in (node, SINK):
                continue
            e = edges[0]
            image = Dirt(e.ops, e.dst)
            moved = [(x.name, x.ops) for x in g.in_edges(node)]
            sub = Substitution(dirt={node: image},
                               dco={e.name: derived_refl_dirt(image)})
            after = apply_context(sub, self.ctx)
            self.commit("bridge-out", "dirt",
                        f"merge {node} up into {image} via {e.name}",
                        sub, after,
                        {"edge": e.name, "src": node, "dst": e.dst,
                         "ops": e.ops, "moved": moved})
            self.cleanup("dirt")
            return True
        return False

    def bridge(self, sort: str) -> None:
        self.cleanup(sort)
        while True:
            changed = False
            if sort in ("type", "both"):
                changed |= self._bridge_type_once()
            if sort in ("dirt", "both"):
                changed |= self._bridge_dirt_once()
            if not changed:
                return

    # -- dirt grounding ------------------------------------------------------

    def empty_dirt(self) -> None:
        g = _dirt_graph(self.ctx)
        grounded = {n for n in g.nodes if n not in self.fps.neg}
        while True:
            blocked = {n for n in grounded
                       if any(e.src not in grounded for e in g.in_edges(n))}
            if not blocked:
                break
            grounded -= blocked
        if not grounded:
            return
        dropped = [e.name for e in g.edges
                   if e.src in grounded or e.dst in grounded]
        dirt_map = {n: Dirt(frozenset(), None) for n in grounded}
        ground_only = Substitution(dirt=dict(dirt_map))
        sub = Substitution(
            dirt=dirt_map,
            dco={name: derived_empty(apply_dirt(ground_only, hi))
                 for name, _, hi in self.ctx.dirt_cos if name in dropped},
        )
        after = apply_context(sub, self.ctx)
        self.commit("empty", "dirt",
                    f"ground {'/'.join(sorted(grounded))} to the empty dirt",
                    sub, after, {"params": sorted(grounded), "dropped": dropped})

    def full_dirt(self) -> None:
        full = Dirt(frozenset(self.sig.names()), None)
        while True:
            g = _dirt_graph(self.ctx)
            node = next(
                (n for n in g.nodes
                 if n not in self.fps.pos and not g.out_edges(n)),
                None,
            )
            if node is None:
                return
            survivors = [e.name for e in g.in_edges(node)]
            sub = Substitution(dirt={node: full})
            after = apply_context(sub, self.ctx)
            self.commit("full", "dirt",
                        f"ground {node} to the full dirt {full}",
                        sub, after, {"param": node, "survivors": survivors})
            self.cleanup("dirt")


def run_reference_phases(
    sig: Signature,
    ctx: ParamContext,
    fps: FreeParamSet,
    instructions,
    supply: NameSupply | None = None,
) -> PhaseResult:
    """`run_phases` on the reference engine."""
    if supply is None:
        supply = NameSupply.seeded(ctx)
    runner = _Runner(sig, ctx, fps, supply)
    for phase, sort in instructions:
        if phase == "cleanup":
            runner.cleanup(sort)
        elif phase == "scc":
            runner.scc(sort)
        elif phase == "bridge":
            runner.bridge(sort)
        elif phase == "empty":
            runner.empty_dirt()
        elif phase == "full":
            runner.full_dirt()
        else:
            raise ValueError(f"unknown phase {phase!r}")
    return PhaseResult(ctx, runner.ctx, runner.total, fps, runner.fps, runner.steps)
