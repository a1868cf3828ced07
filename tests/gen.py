"""Randomized generators shared across the property tests.

Contexts come out in canonical form (parameter-skeleton type params,
param-to-param type constraints, bare-parameter lower bounds on dirt
constraints) so they can feed the phase pipeline directly. Every context
is satisfiable: dirt lower bounds are bare parameters, so the all-empty
assignment works. The exception is `structural_context`, the bench's
reduction-bound shape: its closed lower bounds and arrow skeletons are
for reduction to canonicalize.
"""

from __future__ import annotations

import random
from dataclasses import replace

from coersimp.polarity import FreeParamSet
from coersimp.reduce import reduce_context
from coersimp.subst import apply_context
from coersimp.syntax import (
    CompType,
    Dirt,
    NameSupply,
    ParamContext,
    Signature,
    SkelArrow,
    SkelParam,
    Skeleton,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    ValueType,
    dirt,
)

from reference_phases import run_reference_phases
from support import signature

TEST_SIG = signature(
    Random=(TyUnit(), TyBase("bit")),
    Fail=(TyUnit(), TyUnit()),
)


def random_context(rng: random.Random, sig: Signature = TEST_SIG,
                   max_dirts: int = 4, max_tys: int = 4,
                   max_cos: int = 4) -> ParamContext:
    skels = tuple(f"s{i + 1}" for i in range(rng.randint(1, 2)))
    dirts = tuple(f"d{i + 1}" for i in range(rng.randint(0, max_dirts)))
    tys = tuple((f"a{i + 1}", SkelParam(rng.choice(skels)))
                for i in range(rng.randint(0, max_tys)))
    ops = sig.names()
    dcos = []
    if dirts:
        for i in range(rng.randint(0, max_cos)):
            lo = Dirt(frozenset(), rng.choice(dirts))
            label = frozenset(o for o in ops if rng.random() < 0.3)
            if rng.random() < 0.25:
                hi = Dirt(label, None)
            else:
                hi = Dirt(label, rng.choice(dirts))
            dcos.append((f"p{i + 1}", lo, hi))
    tycos = []
    if tys:
        for i in range(rng.randint(0, max_cos)):
            a, sk = rng.choice(tys)
            b = rng.choice([n for n, s in tys if s == sk])
            tycos.append((f"w{i + 1}", TyParam(a), TyParam(b)))
    return ParamContext(skels, dirts, tys, tuple(dcos), tuple(tycos))


def random_fps(rng: random.Random, ctx: ParamContext) -> FreeParamSet:
    names = list(ctx.dirt_params) + [n for n, _ in ctx.ty_params]
    pos = frozenset(n for n in names if rng.random() < 0.45)
    neg = frozenset(n for n in names if rng.random() < 0.45)
    return FreeParamSet(pos, neg)


def random_dirt(rng: random.Random, ctx: ParamContext,
                sig: Signature = TEST_SIG) -> Dirt:
    ops = frozenset(o for o in sig.names() if rng.random() < 0.4)
    if ctx.dirt_params and rng.random() < 0.6:
        return Dirt(ops, rng.choice(ctx.dirt_params))
    return Dirt(ops, None)


def random_vty(rng: random.Random, ctx: ParamContext, depth: int = 2,
               sig: Signature = TEST_SIG) -> ValueType:
    tys = [n for n, _ in ctx.ty_params]
    choices = ["unit", "base"]
    if tys:
        choices += ["param", "param"]
    if depth > 0:
        choices.append("arrow")
    kind = rng.choice(choices)
    if kind == "unit":
        return TyUnit()
    if kind == "base":
        return TyBase("bit")
    if kind == "param":
        return TyParam(rng.choice(tys))
    return TyArrow(
        random_vty(rng, ctx, depth - 1, sig),
        CompType(random_vty(rng, ctx, depth - 1, sig), random_dirt(rng, ctx, sig)),
    )


# ---------------------------------------------------------------------------
# The benchmark's canonical graph families

OPS = ("Fail", "Random")


def _chain(n, rng):
    return [(i, i + 1) for i in range(n - 1)], {}, ()


def _ring(n, rng):
    size = max(2, round(n ** 0.5))
    rings = [list(range(s, min(s + size, n))) for s in range(0, n, size)]
    if len(rings[-1]) < 2:
        rings[-2].extend(rings.pop())
    edges = []
    for j, ring in enumerate(rings):
        edges += [(node, ring[(i + 1) % len(ring)]) for i, node in enumerate(ring)]
        if j + 1 < len(rings):
            edges.append((ring[0], rings[j + 1][0]))
    return edges, {}, ()


def _ladder(n, rng):
    edges = []
    for top in range(0, n - 3, 3):
        edges += [(top, top + 1), (top, top + 2), (top + 1, top + 3), (top + 2, top + 3)]
    return edges, {}, ()


def _dense(n, rng):
    edges = [(i, i + 1) for i in range(n - 1)]
    labels = {}
    for u in range(0, n - 2, 2):
        labels[len(edges)] = frozenset(op for op in OPS if rng.random() < 0.5)
        edges.append((u, rng.randrange(u + 2, min(n, u + 10))))
    return edges, labels, tuple(rng.sample(range(1, n - 1), 2))


SHAPES = {"chain": _chain, "ring": _ring, "ladder": _ladder, "dense": _dense}


def shape_context(family, n, seed=0):
    """The bench's canonical graph families: node i is type parameter a<i>
    and dirt parameter d<i>, edge k is w<k> and p<k>. The first node is
    negative and the last positive, as in a cast from start to end; held
    nodes are bipolar."""
    edges, labels, held = SHAPES[family](n, random.Random(f"{family}:{n}:{seed}"))
    ctx = ParamContext(
        ("s1",),
        tuple(f"d{i}" for i in range(n)),
        tuple((f"a{i}", SkelParam("s1")) for i in range(n)),
        tuple((f"p{k}", dirt((), f"d{u}"), Dirt(labels.get(k, frozenset()), f"d{v}"))
              for k, (u, v) in enumerate(edges)),
        tuple((f"w{k}", TyParam(f"a{u}"), TyParam(f"a{v}"))
              for k, (u, v) in enumerate(edges)))
    pol = FreeParamSet(
        frozenset(f"{s}{i}" for i in (edges[-1][1], *held) for s in "ad"),
        frozenset(f"{s}{i}" for i in (0, *held) for s in "ad"))
    return ctx, pol


def reference_run(sig, sim, instructions):
    """The reference engine's run of the canonical context `sim` reduced to,
    with the name supply in the state reduction left it in."""
    supply = NameSupply.seeded(sim.original)
    reduce_context(sig, sim.original, supply)
    return run_reference_phases(sig, sim.reduction.context, sim.phases.fps0,
                                instructions, supply)


# ---------------------------------------------------------------------------
# The benchmark's reduction-bound shape

def arrow_skel(depth: int) -> Skeleton:
    """`s1` under `depth` levels of arrows, each side alike."""
    if depth == 0:
        return SkelParam("s1")
    return SkelArrow(arrow_skel(depth - 1), arrow_skel(depth - 1))


def structural_context(depth: int, size: int, seed: int = 0, extra: int = 0) -> ParamContext:
    """The bench's structural shape: a chain of type parameters at
    depth-`depth` arrow skeletons and a dirt chain fed by closed lower
    bounds, about `size` output parameters in all. Here the four feeds
    fall anywhere in the chain, each with its own operation, and `extra`
    labeled dirt edges, backwards too, join random chain links."""
    rng = random.Random(f"{depth}:{size}:{seed}")
    per = 2 ** (depth + 1) - 1
    count = max(2, (size // 2) // per)
    n = size - count * per
    feeds = [(rng.choice(OPS), rng.randrange(n)) for _ in range(4)]
    links = [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    return ParamContext(
        ("s1",),
        tuple(f"e{i}" for i in range(n)),
        tuple((f"f{i}", arrow_skel(depth)) for i in range(count)),
        tuple((f"g{i}", dirt((), f"e{i}"), dirt((), f"e{i + 1}")) for i in range(n - 1))
        + tuple((f"h{j}", Dirt(frozenset({op}), None), dirt((), f"e{i}"))
                for j, (op, i) in enumerate(feeds))
        + tuple((f"x{k}", dirt((), f"e{u}"), Dirt(frozenset(rng.sample(OPS, 1)), f"e{v}"))
                for k, (u, v) in enumerate(links)),
        tuple((f"c{i}", TyParam(f"f{i}"), TyParam(f"f{i + 1}")) for i in range(count - 1)),
    )


# ---------------------------------------------------------------------------
# The contexts between the steps of a phase run


def step_contexts(run):
    """Yield (step, before, after) for each step of a phase run, replaying
    the step substitutions in order from `run.original`. A bound pair of
    `eta` that names no row of `before` is a row the step introduces; it
    takes the place of the first row the step drops. The last context must
    be the one the engine read off its graphs."""
    ctx = run.original
    for step in run.steps:
        after = apply_context(step.subst, ctx)
        old = {row[0] for row in ctx.dirt_cos}
        new = [(n, *b) for n, b in step.eta.items() if isinstance(b, tuple) and n not in old]
        if new:
            kept, rows = iter(after.dirt_cos), []
            for name, _, _ in ctx.dirt_cos:
                if name in step.subst.dco:
                    rows += new
                    new = []
                else:
                    rows.append(next(kept))
            after = replace(after, dirt_cos=tuple(rows))
        yield step, ctx, after
        ctx = after
    assert ctx == run.context
