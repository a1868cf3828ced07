"""Graph-driven strengthening phases over canonical contexts.

Each phase inspects the constraint graphs of a canonical context and emits
strengthening substitutions that shrink it: parameters are merged or
grounded, and discharged constraints are mapped to coercions built from the
survivors. Which moves are allowed depends on the polarity set threaded
through the run; polarity is updated after every single step, because a
merge moves the merged parameter's polarity onto its survivor and can turn
a one-sided parameter bipolar, which disables later moves.

Phases:

* ``cleanup``    drops self-loop constraints and collapses parallel edges
                 (parallel dirt edges intersect their labels).
* ``scc``        contracts strongly connected components; for dirt only the
                 empty-labeled subgraph counts, labeled cycle edges survive
                 as self-loops and are cleaned afterwards.
* ``bridge``     inlines parameters with a unique incoming edge (the target,
                 when it is not negative) or a unique outgoing edge (the
                 source, when it is not positive). Dirt bridge-in needs an
                 empty label; dirt bridge-out absorbs the label into the
                 merged parameter.
* ``empty``      grounds to `{}` every non-negative dirt parameter whose
                 lower bounds all come from parameters grounded with it.
* ``full``       grounds to the whole signature any non-positive dirt
                 parameter with no upper bound at all; its lower bounds
                 survive as closed constraints. Off by default since it
                 rewrites types with the full operation set.

Every step states its own witness next to its moves: how to build the
ground coercion of each constraint it re-points or introduces, and the
family entry of each tracked parameter it eliminates, both from a ground
instantiation of the context before the step. The witness module replays
these with one rule that knows no step kind.

The engine keeps one `ConstraintGraph` per sort for the whole run and
updates it in place, so a step costs the size of its change, not the size
of the context. Bridge and grounding candidates sit in queues that are
re-checked only at the nodes a step touched; cleanup reads its loops and
parallel pairs off the graph's indexes; one cycle search, over a successor
map built for it, serves a whole `scc` phase unless cleanup adds an edge.
A step keeps only its record (`PhaseStep`): its slice of the run's one
flat log of moves, its polarity set, its witness and a line of text; no
step builds a substitution. The image a step maps onto and its
reflexivity are built once per run and shared (`_Engine.image`); the rest
of what a step allocates is its own coercions and maps, or dies with it.
The final context is read off the graphs once, and the total substitution
is resolved once from the log (`subst.resolve`). Steps, their order and
every result equal those of the plain engine that rewrites the whole
context after each step.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .check import both_extend, derived_empty, right_extend
from .graph import SINK, ConstraintGraph, Edge, build_dirt_graph, build_type_graph, tarjan_scc
from .polarity import FreeParamSet, subst_fps
from .reduce import ReductionResult, is_canonical, reduce_context
from .subst import DIRT, TYPE, Sort, Substitution, compose, resolve
from .syntax import NO_OPS, DCoEmptyUnder, Dirt, NameSupply, ParamContext, Signature, TyParam


class PhaseStep(NamedTuple):
    """One strengthening step and its witness. Its moves are the items
    `log[start:stop]` of the run's one move log; `subst` resolves them. An
    entry of `eta` or `family` is a coercion over the context before the
    step, or a (lower, upper) pair of dirt bounds that every ground
    instantiation of that context satisfies. `eta` holds the coercion of
    each constraint the step re-points or introduces; `family` holds, for
    each tracked parameter the step eliminates, one between its images
    after and before the step (after to before at a positive parameter,
    before to after at a negative one). A named tuple, as a nine-field
    `syntax.value_class` takes about 1.8 times as long to build (one slot
    store per field), and a frozen dataclass three times."""

    phase: str  # cleanup-loop | cleanup-parallel | scc | bridge-in | bridge-out | empty | full
    sort: str  # "type" | "dirt"
    info: str
    log: list  # the run's moves, as flat `map, name, image` items
    start: int
    stop: int
    fps: FreeParamSet  # polarity set before this step
    eta: dict
    family: dict

    @property
    def subst(self) -> Substitution:
        """This step's own strengthening: no image mentions a name the step
        maps, so resolving its moves changes none of them."""
        return resolve(self.log[self.start:self.stop])


@dataclass
class PhaseResult:
    original: ParamContext
    context: ParamContext
    subst: Substitution  # original => context
    fps0: FreeParamSet
    fps: FreeParamSet  # image of fps0 under subst
    steps: list[PhaseStep] = field(default_factory=list)


PRESETS = {
    "none": (),
    "scc": (("cleanup", "both"), ("scc", "both")),
    "dirt": (("cleanup", "dirt"), ("scc", "dirt"), ("bridge", "dirt"), ("empty", "dirt")),
    "type": (("cleanup", "type"), ("scc", "type"), ("bridge", "type")),
    "all": (
        ("cleanup", "both"),
        ("scc", "both"),
        ("bridge", "both"),
        ("empty", "dirt"),
    ),
}

def parse_phase_config(text: str, full_dirt: bool = False):
    """Parse a --phases argument into a list of (phase, sort) instructions.

    Accepts a preset name or `custom:` followed by comma-separated entries
    `phase` or `phase.sort` (sort defaults to `both`; `empty` and `full`
    are dirt-only). `full` is appended to dirt-touching presets when the
    full-dirt flag is set.
    """
    if text in PRESETS:
        steps = list(PRESETS[text])
        if full_dirt and text in ("dirt", "all"):
            steps.append(("full", "dirt"))
        return steps
    if not text.startswith("custom:"):
        raise ValueError(f"unknown phase config {text!r}")
    steps = []
    for chunk in text[len("custom:"):].split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, sort = chunk.partition(".")
        if name not in _PHASES:
            raise ValueError(f"unknown phase {name!r}")
        if name in ("empty", "full"):
            sort = sort or "dirt"
            if sort != "dirt":
                raise ValueError(f"phase {name} only applies to dirt")
        else:
            sort = sort or "both"
        if sort not in ("type", "dirt", "both"):
            raise ValueError(f"unknown sort {sort!r} in {chunk!r}")
        steps.append((name, sort))
    return steps


_SORTS = {"type": (TYPE,), "dirt": (DIRT,), "both": (TYPE, DIRT)}


class _Candidates:
    """The nodes of a graph that pass one of `tests`: those passing the
    first test come first, then those passing the second, each lowest
    context position first.

    An entry is checked again when it reaches the top, so entries may go
    stale. A node's tests can only turn true through a change to its edges,
    which the graph records as touched: `first` tests those nodes again and
    clears the record, so one graph serves one queue at a time."""

    def __init__(self, graph: ConstraintGraph, *tests):
        self.graph = graph
        # Per test: its index, the test and the nodes queued for it.
        self.ranks = [(rank, test, set()) for rank, test in enumerate(tests)]
        # `order` lists its nodes by position, so this list is sorted: a heap.
        self.heap = [(rank, pos, node) for rank, test, _ in self.ranks
                     for node, pos in graph.order.items() if test(node)]
        for rank, _, node in self.heap:
            self.ranks[rank][2].add(node)
        graph.touched.clear()

    def first(self) -> tuple[int, str] | None:
        """The first candidate, as (index of its test, node)."""
        g, heap, order = self.graph, self.heap, self.graph.order
        if g.touched:
            for node in g.touched:
                pos = order.get(node)
                if pos is not None:
                    for rank, test, queued in self.ranks:
                        if node not in queued and test(node):
                            heapq.heappush(heap, (rank, pos, node))
                            queued.add(node)
            g.touched.clear()
        while heap:
            rank, _, node = heap[0]
            _, test, queued = self.ranks[rank]
            if node in order and test(node):
                return rank, node
            heapq.heappop(heap)
            queued.discard(node)
        return None


class _Graphs(dict):
    """The graph of each sort, keyed by sort name, built from the context
    when a phase first asks for it."""

    def __init__(self, ctx: ParamContext):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, sort: str) -> ConstraintGraph:
        build = build_type_graph if sort == "type" else build_dirt_graph
        graph = self[sort] = build(self.ctx)
        return graph


class _Engine:
    """The state of one phase run: one graph per sort, the polarity set,
    the name supply and the steps so far."""

    def __init__(self, sig: Signature, ctx: ParamContext, fps: FreeParamSet, supply: NameSupply):
        if not is_canonical(ctx):
            raise ValueError("the phases need a canonical context")
        self.sig = sig
        self.fps = fps
        self.supply = supply
        self.original = ctx
        self.graphs = _Graphs(ctx)
        self.changed: set[str] = set()  # sorts some step has rewritten
        self.images: dict[tuple, tuple] = {}
        self.steps: list[PhaseStep] = []
        self.log: list = []  # the steps' moves, as `subst.resolve` reads them

    def image(self, sort: Sort, target: str, ops: frozenset[str] = frozenset()) -> tuple:
        """The parameter `target` as an image of its sort, extended by `ops`
        (only dirt edges carry any), and its reflexivity, built once per
        run and shared by the steps that map onto that image."""
        key = (sort.name, target, ops)
        pair = self.images.get(key)
        if pair is None:
            image = Dirt(ops, target) if ops else sort.bare(target)
            pair = self.images[key] = (image, sort.refl(image))
        return pair

    def tracked(self, param: str) -> bool:
        return param in self.fps.pos or param in self.fps.neg

    def commit(self, phase: str, sort: Sort, info: str, params: dict, cos: dict,
               eta: dict, family: dict) -> None:
        """Log a step's moves, coercions then parameter images, all of its
        sort, and record the step as its slice of the log. Then move the
        polarity of every parameter it maps onto the parameter its image
        names (none: the image is ground). The set is rebuilt, from the
        step's parameter images, only when a tracked parameter moves."""
        fps, log, start = self.fps, self.log, len(self.log)
        for n, x in cos.items():
            log += sort.cos, n, x
        tracked = False
        for n, x in params.items():
            log += sort.params, n, x
            tracked = tracked or n in fps.pos or n in fps.neg
        self.steps.append(PhaseStep(phase, sort.name, info, log, start, len(log), fps, eta, family))
        self.changed.add(sort.name)
        if tracked:
            self.fps = subst_fps(sort.subst(params, {}), fps)

    # -- cleanup ------------------------------------------------------------

    def cleanup(self, sorts) -> None:
        """Drop every self loop, then collapse every parallel bundle, one
        sort after the other. Neither move makes a new loop or bundle, so
        one pass leaves both sorts clean."""
        for sort in sorts:
            g = self.graphs[sort.name]
            if g.loops:
                self._drop_loops(sort, g)
            if g.multi:
                self._collapse_parallels(sort, g)

    def _drop_loops(self, sort: Sort, g: ConstraintGraph) -> None:
        for e in g.ordered(g.loops):
            g.remove(e)
            co = right_extend(e.ops, self.image(sort, e.src)[1])
            self.commit("cleanup-loop", sort, f"drop loop {e.name} on {e.src}",
                        {}, {e.name: co}, {}, {})

    def _collapse_parallels(self, sort: Sort, g: ConstraintGraph) -> None:
        bundles = sorted(([e for e in g.ordered(g.outs[src]) if e.dst == dst]
                          for src, dst in g.multi), key=lambda rows: rows[0].key)
        for rows in bundles:
            src, dst = rows[0].src, rows[0].dst
            meet = frozenset.intersection(*[e.ops for e in rows])
            kept = next((e.name for e in rows if e.ops == meet), None)
            fresh = None if kept is not None else self.supply.fresh("p")
            rep = kept if kept is not None else fresh
            dropped = [e for e in rows if e.name != kept]
            param = sort.co_param(rep)
            cos = {e.name: right_extend(e.ops - meet, param) for e in dropped}
            for e in dropped:
                g.remove(e)
            eta = {}
            if fresh is not None:  # a dirt meet no bundle edge carried
                g.add(Edge(fresh, src, dst, meet, rows[0].key))
                eta[fresh] = (Dirt(NO_OPS, src), Dirt(meet, None if dst == SINK else dst))
            if sort is TYPE:
                info = f"merge parallel {'/'.join(e.name for e in rows)} into {kept}"
            else:
                info = f"intersect parallel bundle on {src} into {rep}"
            self.commit("cleanup-parallel", sort, info, {}, cos, eta, {})

    # -- strongly connected components --------------------------------------

    def scc(self, sorts) -> None:
        self.cleanup(sorts)
        cycles: dict[Sort, tuple[int, deque]] = {}
        live = sorts  # a sort's graph only changes by its own steps
        while live:
            live = [sort for sort in live if self._contract_one(sort, cycles)]

    def _contract_one(self, sort: Sort, cycles: dict) -> bool:
        """Contract the first cycle (in Tarjan order) of the sort's graph;
        on dirt only unlabeled edges count.

        Contracting the first cycle Tarjan emits leaves the search before
        and after it unchanged (everything it reaches was emitted before it
        and is acyclic), so one search yields the cycles in the order that
        searching again after every contraction would. Only an edge added
        by cleanup, an unlabeled intersection of labeled dirt edges, can
        close a new cycle; then the search runs again."""
        g = self.graphs[sort.name]
        if len(g.edges) < 2:
            return False
        additions, pending = cycles.get(sort, (None, None))
        if additions != g.additions:
            succ: dict[str, list[str]] = {}  # unlabeled successors, in edge order
            for e in g.all_edges():
                if not e.ops and e.dst != SINK:
                    succ.setdefault(e.src, []).append(e.dst)
            pending = deque(c for c in tarjan_scc(list(g.order), succ) if len(c) > 1)
            cycles[sort] = (g.additions, pending)
        if not pending:
            return False
        comp = pending.popleft()
        rep = min(comp, key=g.order.__getitem__)
        members = set(comp)
        internal = sorted((e for m in comp for e in g.outs[m].values()
                           if e.dst in members and not e.ops), key=lambda e: e.key)
        merged = [m for m in comp if m != rep]
        image, refl = self.image(sort, rep)
        for e in internal:
            g.remove(e)
        for m in merged:
            g.merge(m, rep)
        self.commit("scc", sort, f"contract cycle {'/'.join(comp)} to {rep}",
                    {m: image for m in merged}, {e.name: refl for e in internal},
                    {}, {m: refl for m in merged if self.tracked(m)})
        if g.loops or g.multi:  # labeled dirt cycle edges became self-loops
            self.cleanup((sort,))
        return True

    # -- bridges ------------------------------------------------------------

    def bridge(self, sorts) -> None:
        self.cleanup(sorts)
        queues = {}
        for sort in sorts:
            g = self.graphs[sort.name]

            def bridge_in(node, g=g):  # unique unlabeled lower bound, non-negative
                edges = g.ins[node]
                if len(edges) != 1 or node in self.fps.neg:
                    return False
                (e,) = edges.values()
                return e.src != node and not e.ops

            def bridge_out(node, g=g):  # unique upper bound, non-positive
                edges = g.outs[node]
                if len(edges) != 1 or node in self.fps.pos:
                    return False
                (e,) = edges.values()
                return e.dst != node and e.dst != SINK

            queues[sort] = _Candidates(g, bridge_in, bridge_out)
        live = sorts  # a sort's graph only changes by its own steps
        while live:
            live = [sort for sort in live if self._bridge_one(sort, queues[sort])]

    def _bridge_one(self, sort: Sort, queue: _Candidates) -> bool:
        """One bridge step: bridge-in on the first node that allows it, else
        bridge-out on the first node that allows that."""
        found = queue.first()
        if found is None:
            return False
        rank, node = found
        g = queue.graph
        co, make = sort.co_param, sort.compose
        if rank == 0:  # an edge x out of node becomes x . e
            (e,) = g.ins[node].values()
            (image, refl), crossing = self.image(sort, e.src), co(e.name)
            eta = {x.name: make(co(x.name), crossing) for x in g.out_edges(node)}
            phase, info, target = "bridge-in", f"merge {node} down into {e.src} via {e.name}", e.src
        else:  # an edge x into node becomes (ops(x) + e) . x
            (e,) = g.outs[node].values()
            (image, refl), crossing = self.image(sort, e.dst, e.ops), co(e.name)  # label folds in
            eta = {x.name: make(both_extend(x.ops, crossing), co(x.name)) for x in g.in_edges(node)}
            phase, info, target = "bridge-out", f"merge {node} up into {image} via {e.name}", e.dst
        g.remove(e)
        g.merge(node, target, e.ops)  # edges into node gain the label it folds in
        self.commit(phase, sort, info, {node: image}, {e.name: refl}, eta,
                    {node: crossing} if self.tracked(node) else {})
        if g.loops or g.multi:
            self.cleanup((sort,))
        return True

    # -- dirt grounding ------------------------------------------------------

    def empty_dirt(self) -> None:
        """Ground every non-negative dirt parameter that no negative one
        reaches: all its lower bounds then come from grounded ones."""
        g = self.graphs["dirt"]
        todo = [n for n in g.order if n in self.fps.neg]
        reached = set(todo)
        while todo:
            for e in g.outs[todo.pop()].values():
                if e.dst != SINK and e.dst not in reached:
                    reached.add(e.dst)
                    todo.append(e.dst)
        grounded = [n for n in g.order if n not in reached]
        if not grounded:
            return
        ground = set(grounded)
        dropped = g.ordered({e.key: e for n in grounded
                             for e in (*g.ins[n].values(), *g.outs[n].values())})
        cos = {e.name: derived_empty(Dirt(e.ops, None if e.dst in ground or e.dst == SINK
                                          else e.dst))
               for e in dropped}
        for e in dropped:
            g.remove(e)
        for n in grounded:
            g.remove_node(n)
        params = sorted(grounded)
        self.commit("empty", DIRT, f"ground {'/'.join(params)} to the empty dirt",
                    {n: Dirt(NO_OPS, None) for n in grounded}, cos,
                    {}, {n: DCoEmptyUnder(n) for n in params if self.tracked(n)})

    def full_dirt(self) -> None:
        """Ground non-positive dirt parameters without upper bounds to the
        whole signature, lowest context position first."""
        g = self.graphs["dirt"]
        full = Dirt(frozenset(self.sig.names()), None)
        sinks = _Candidates(g, lambda n: n not in self.fps.pos and not g.outs[n])
        while True:
            found = sinks.first()
            if found is None:
                return
            node = found[1]
            eta = {e.name: (Dirt(NO_OPS, e.src), Dirt(e.ops | full.ops, None))
                   for e in g.in_edges(node)}
            g.merge(node, SINK, full.ops)  # lower bounds survive, closed
            family = {node: (Dirt(NO_OPS, node), full)} if self.tracked(node) else {}
            self.commit("full", DIRT, f"ground {node} to the full dirt {full}",
                        {node: full}, {}, eta, family)
            if g.loops or g.multi:
                self.cleanup((DIRT,))

    # -- results ---------------------------------------------------------------

    def context(self) -> ParamContext:
        """The current context, read off the graphs of the sorts that
        changed."""
        ctx = self.original
        if not self.changed:
            return ctx
        dirt_params, dirt_cos = ctx.dirt_params, ctx.dirt_cos
        ty_params, ty_cos = ctx.ty_params, ctx.ty_cos
        if "dirt" in self.changed:
            dg = self.graphs["dirt"]
            dirt_params = tuple(dg.order)
            dirt_cos = tuple((e.name, Dirt(NO_OPS, e.src),
                              Dirt(e.ops, None if e.dst == SINK else e.dst))
                             for e in dg.all_edges())
        if "type" in self.changed:
            tg, skel = self.graphs["type"], dict(ty_params)
            ty_params = tuple((n, skel[n]) for n in tg.order)
            ty_cos = tuple((e.name, TyParam(e.src), TyParam(e.dst)) for e in tg.all_edges())
        return ParamContext(ctx.skel_params, dirt_params, ty_params, dirt_cos, ty_cos)


_PHASES = {
    "cleanup": _Engine.cleanup,
    "scc": _Engine.scc,
    "bridge": _Engine.bridge,
    "empty": lambda engine, sorts: engine.empty_dirt(),
    "full": lambda engine, sorts: engine.full_dirt(),
}


def run_phases(
    sig: Signature,
    ctx: ParamContext,
    fps: FreeParamSet,
    instructions,
    supply: NameSupply | None = None,
) -> PhaseResult:
    """Run the given (phase, sort) instructions over a canonical context."""
    if supply is None:
        supply = NameSupply.seeded(ctx)
    engine = _Engine(sig, ctx, fps, supply)
    for phase, sort in instructions:
        if phase not in _PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        _PHASES[phase](engine, _SORTS[sort])
    return PhaseResult(ctx, engine.context(), resolve(engine.log), fps, engine.fps, engine.steps)


@dataclass
class SimplifyResult:
    original: ParamContext
    fps0: FreeParamSet  # polarity of the original context's parameters
    reduction: ReductionResult
    phases: PhaseResult
    subst: Substitution  # original => final, reduction composed with phases

    @property
    def context(self) -> ParamContext:
        return self.phases.context


def simplify(
    sig: Signature,
    ctx: ParamContext,
    fps: FreeParamSet,
    instructions,
    supply: NameSupply | None = None,
) -> SimplifyResult:
    """Reduce to canonical form, then run the strengthening phases.

    `fps` is the polarity set of the parameters of the original context (as
    read off the type being simplified); its image under the reduction is
    what the phases consult.
    """
    if supply is None:
        supply = NameSupply.seeded(ctx)
    red = reduce_context(sig, ctx, supply)
    fps1 = subst_fps(red.subst, fps)
    ph = run_phases(sig, red.context, fps1, instructions, supply)
    return SimplifyResult(ctx, fps, red, ph, compose(ph.subst, red.subst))
