"""Constraint graphs, component computation, and DOT output.

The component test cross-checks the iterative Tarjan implementation against
networkx on random digraphs, then checks the output ordering property that
the phase code relies on (components come out successors-first).
"""

import random
import re

import networkx as nx

from coersimp.corpus import load_bundled
from coersimp.graph import SINK, build_dirt_graph, build_type_graph, tarjan_scc, to_dot
from coersimp.phases import PRESETS, simplify
from coersimp.polarity import EMPTY_FPS, FreeParamSet, fp_vty
from coersimp.syntax import ParamContext, SkelParam, TyParam, dirt

CTX = ParamContext(
    ("s1",),
    ("d1", "d2"),
    (("a1", SkelParam("s1")), ("a2", SkelParam("s1"))),
    (
        ("p1", dirt((), "d1"), dirt(("Random",), "d2")),
        ("p2", dirt((), "d2"), dirt(("Fail",))),
    ),
    (("w1", TyParam("a1"), TyParam("a2")),),
)


def test_type_graph_shape():
    g = build_type_graph(CTX)
    assert list(g.order) == ["a1", "a2"]
    assert [(e.name, e.src, e.dst, e.ops) for e in g.all_edges()] == [
        ("w1", "a1", "a2", frozenset())]
    assert [e.name for e in g.out_edges("a1")] == ["w1"]
    assert [e.name for e in g.in_edges("a2")] == ["w1"]
    assert g.additions == 0 and not g.loops and not g.multi


def test_dirt_graph_shape():
    g = build_dirt_graph(CTX)
    # the sink is not a node
    assert list(g.order) == ["d1", "d2"]
    assert [(e.name, e.src, e.dst, e.ops) for e in g.all_edges()] == [
        ("p1", "d1", "d2", frozenset({"Random"})),
        ("p2", "d2", SINK, frozenset({"Fail"})),
    ]
    assert [e.name for e in g.out_edges("d2")] == ["p2"]
    assert [e.name for e in g.in_edges(SINK)] == ["p2"]


def random_digraph(rng):
    n = rng.randrange(1, 12)
    nodes = [f"n{i}" for i in range(n)]
    succ = {v: [] for v in nodes}
    for _ in range(rng.randrange(0, 2 * n)):
        a, b = rng.choice(nodes), rng.choice(nodes)
        if b not in succ[a]:
            succ[a].append(b)
    return nodes, succ


def test_tarjan_matches_networkx():
    rng = random.Random(17)
    for _ in range(200):
        nodes, succ = random_digraph(rng)
        got = tarjan_scc(nodes, succ)
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        g.add_edges_from((a, b) for a, kids in succ.items() for b in kids)
        want = {frozenset(c) for c in nx.strongly_connected_components(g)}
        assert {frozenset(c) for c in got} == want
        assert sorted(n for c in got for n in c) == sorted(nodes)


def test_tarjan_emits_successors_first():
    rng = random.Random(18)
    for _ in range(200):
        nodes, succ = random_digraph(rng)
        comp_of = {}
        for i, comp in enumerate(tarjan_scc(nodes, succ)):
            for n in comp:
                comp_of[n] = i
        for a, kids in succ.items():
            for b in kids:
                assert comp_of[b] <= comp_of[a]


def test_tarjan_iterative_depth():
    n = 5000
    nodes = [f"n{i}" for i in range(n)]
    succ = {nodes[i]: [nodes[i + 1]] for i in range(n - 1)}
    succ[nodes[-1]] = [nodes[0]]  # one big cycle
    got = tarjan_scc(nodes, succ)
    assert len(got) == 1 and len(got[0]) == n


def test_to_dot_content_and_determinism():
    fps = FreeParamSet(frozenset({"a1", "d1"}), frozenset({"a1"}))
    text = to_dot(CTX, fps)
    assert text == to_dot(CTX, fps)
    assert '"ty_a1" -> "ty_a2" [label="w1"];' in text
    assert '"dt_d1" -> "dt_d2" [label="p1:{Random}"];' in text
    assert f'"dt_{SINK}" [label="closed", shape=box];' in text
    assert 'label="a1 [+-]"' in text
    assert 'label="d1 [+]"' in text
    assert 'label="a2"' in text


def test_to_dot_no_sink_without_closed_bounds():
    ctx = ParamContext((), ("d1", "d2"),
                       (), (("p", dirt((), "d1"), dirt((), "d2")),), ())
    assert "closed" not in to_dot(ctx)


def test_to_dot_escapes_quotes_and_backslashes():
    ctx = ParamContext(("s",), ('d"', "e\\"), (("a\\", SkelParam("s")),),
                       (('p"', dirt((), 'd"'), dirt(('Op"',), "e\\")),
                        ("q", dirt((), "e\\"), dirt(()))), ())
    text = to_dot(ctx, FreeParamSet(frozenset({'d"'})))
    assert '"ty_a\\\\" [label="a\\\\"];' in text
    assert '"dt_d\\"" [label="d\\" [+]"];' in text
    assert '"dt_d\\"" -> "dt_e\\\\" [label="p\\":{Op\\"}"];' in text
    # no double quote is left outside a well-formed quoted string
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    for line in text.splitlines():
        assert '"' not in quoted.sub("", line), line


def test_to_dot_keeps_lower_bound_operations():
    ctx = ParamContext((), ("d1", "d2"), (),
                       (("p", dirt(("Fail",)), dirt(("Random",), "d2")),
                        ("q", dirt(("Fail",), "d1"), dirt((), "d2"))), ())
    text = to_dot(ctx)
    assert '"lo_p" [label="{Fail}", shape=box];' in text
    assert '"lo_p" -> "dt_d2" [label="p:{Random}"];' in text
    assert '"dt_d1" -> "dt_d2" [label="q:{Fail}<={}"];' in text


def test_to_dot_renders_every_bundled_context():
    """The original, reduced and simplified contexts of every bundled item
    under each preset: no edge leaves a node for a missing tail, and each
    dirt constraint's edge starts at its lower bound and shows its
    operations."""
    edge = re.compile(r'^    "([^"]*)" -> "[^"]*" \[label="([^":]*):([^"]*)"\];$', re.M)
    rendered = 0
    for item in load_bundled():
        fps = fp_vty(item.poltype) if item.poltype is not None else EMPTY_FPS
        contexts = [item.context]
        for preset in PRESETS.values():
            sim = simplify(item.signature, item.context, fps, preset)
            contexts += [sim.reduction.context, sim.context]
        for ctx in contexts:
            text = to_dot(ctx, fps)
            rendered += 1
            assert "dt_None" not in text, item.name
            sources = {name: (src, label) for src, name, label in edge.findall(text)}
            for name, lo, hi in ctx.dirt_cos:
                src, label = sources[name]
                if lo.tail is None:
                    assert src == f"lo_{name}"
                    assert f'"{src}" [label="{{{",".join(lo.sorted_ops())}}}", shape=box];' in text
                else:
                    assert src == f"dt_{lo.tail}"
                    assert all(op in label for op in lo.ops), (item.name, name)
    assert rendered > 400
