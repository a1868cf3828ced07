"""Erasure of the casts that simplification made trivial: each rule on a
hand-built coercion of either sort, then the erased term of every bundled
item, bench shape and seeded context, which must typecheck at the
rewritten type, and the calls that erasing a bench chain makes."""

import inspect
import json
import random
import sys
from pathlib import Path

import pytest

from coersimp import cli, subst
from coersimp.check import both_extend, derived_refl_vty, type_of_value
from coersimp.corpus import MAX_NESTING, CorpusItem, ParseError, load_bundled, parse_corpus
from coersimp.subst import erase_value
from coersimp.syntax import (
    CCoercion,
    CastC,
    CastV,
    DCoCompose,
    DCoEmptyUnder,
    DCoParam,
    DCoReflEmpty,
    DCoReflParam,
    DCoUnionBoth,
    DCoUnionRight,
    Lam,
    Return,
    TyParam,
    TyUnit,
    VCoArrow,
    VCoCompose,
    VCoParam,
    VCoReflBase,
    VCoReflParam,
    VCoReflUnit,
    Var,
    dirt,
)

from gen import TEST_SIG, random_context

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import corpusgen  # noqa: E402  (the benchmark's generators, used read-only)

PRESETS = [(preset, full) for preset in cli.STANDARD_CONFIGS for full in (False, True)]
X = Var("x")
RET = Return(X)
W, P = VCoParam("w"), DCoParam("p")
REFL_A, REFL_D = VCoReflParam("a"), DCoReflParam("d")


def cast_v(co):
    return CastV(X, co)


def cast_c(co):
    """A computation cast by `co` as its dirt part."""
    return CastC(RET, CCoercion(VCoReflUnit(), co))


# ---------------------------------------------------------------------------
# The rules, one by one


@pytest.mark.parametrize("co", [REFL_A, VCoReflUnit(), VCoReflBase("bit"),
                                VCoArrow(REFL_A, CCoercion(VCoReflUnit(), REFL_D)),
                                VCoCompose(REFL_A, REFL_A),
                                VCoArrow(VCoCompose(REFL_A, REFL_A),
                                         CCoercion(REFL_A, DCoCompose(REFL_D, REFL_D)))])
def test_a_value_cast_by_a_reflexivity_is_dropped(co):
    assert erase_value(cast_v(co)) is X
    assert erase_value(Lam("x", TyUnit(), Return(cast_v(co)))) == Lam("x", TyUnit(), RET)


@pytest.mark.parametrize("co", [DCoReflEmpty(), REFL_D, DCoUnionBoth("Fail", REFL_D),
                                both_extend({"Fail", "Random"}, DCoReflEmpty()),
                                DCoCompose(REFL_D, REFL_D)])
def test_a_computation_cast_by_a_reflexivity_is_dropped(co):
    assert erase_value(cast_c(co)) is RET


@pytest.mark.parametrize("co", [W, VCoArrow(W, CCoercion(REFL_A, REFL_D)),
                                VCoArrow(REFL_A, CCoercion(REFL_A, P)),
                                VCoArrow(REFL_A, CCoercion(REFL_A, DCoEmptyUnder("d"))),
                                VCoArrow(REFL_A, CCoercion(W, REFL_D))])
def test_a_value_cast_by_a_parameter_or_an_arrow_over_one_stays(co):
    term = cast_v(co)
    assert erase_value(term) is term


@pytest.mark.parametrize("co", [P, DCoEmptyUnder("d"), DCoUnionRight("Fail", DCoReflEmpty()),
                                DCoUnionRight("Fail", REFL_D),
                                DCoUnionBoth("Random", DCoUnionRight("Fail", REFL_D)),
                                DCoUnionBoth("Random", DCoEmptyUnder("d")),
                                DCoUnionBoth("Random", P)])
def test_a_computation_cast_by_a_lift_an_empty_or_a_parameter_stays(co):
    term = cast_c(co)
    assert erase_value(term) is term


def test_a_computation_cast_with_one_non_reflexive_part_stays():
    term = CastC(RET, CCoercion(W, REFL_D))
    assert erase_value(term) is term


@pytest.mark.parametrize("refl", [REFL_A, VCoArrow(REFL_A, CCoercion(REFL_A, REFL_D))])
def test_a_reflexive_value_link_leaves_the_other(refl):
    assert erase_value(cast_v(VCoCompose(refl, W))) == cast_v(W)
    assert erase_value(cast_v(VCoCompose(W, refl))) == cast_v(W)
    assert erase_value(cast_v(VCoCompose(refl, VCoCompose(refl, W)))) == cast_v(W)


@pytest.mark.parametrize("refl", [REFL_D, DCoUnionBoth("Fail", DCoReflEmpty())])
def test_a_reflexive_dirt_link_leaves_the_other(refl):
    assert erase_value(cast_c(DCoCompose(refl, P))) == cast_c(P)
    assert erase_value(cast_c(DCoCompose(P, refl))) == cast_c(P)
    assert erase_value(cast_c(DCoCompose(DCoCompose(refl, P), refl))) == cast_c(P)


def test_erasure_keeps_the_tree_shape_of_a_composition():
    w1, w2, w3, w4 = (VCoParam(f"w{i}") for i in range(1, 5))
    tree = VCoCompose(VCoCompose(w1, VCoCompose(REFL_A, w2)),
                      VCoCompose(VCoCompose(w3, REFL_A), w4))
    assert erase_value(cast_v(tree)) == cast_v(
        VCoCompose(VCoCompose(w1, w2), VCoCompose(w3, w4)))
    p1, p2 = DCoParam("p1"), DCoParam("p2")
    dtree = DCoUnionRight("Fail", DCoCompose(DCoCompose(REFL_D, p1), DCoCompose(p2, REFL_D)))
    assert erase_value(cast_c(dtree)) == cast_c(DCoUnionRight("Fail", DCoCompose(p1, p2)))


def test_erasure_rebuilds_only_the_nodes_above_what_it_erases():
    kept = CastV(X, W)
    term = Lam("x", TyUnit(), Return(CastV(kept, VCoCompose(W, REFL_A))))
    got = erase_value(term)
    assert got == Lam("x", TyUnit(), Return(CastV(kept, W)))
    assert got.body.val.val is kept


# ---------------------------------------------------------------------------
# Erased terms of whole items


def node_count(node) -> int:
    """The syntax nodes in `node`, itself included; a dirt is one node."""
    kids = (getattr(node, name) for name in type(node).__match_args__)
    return 1 + sum(node_count(k) for k in kids if hasattr(k, "__match_args__"))


def assert_erases_soundly(item, preset, full_dirt):
    """The erased term of `item` typechecks at the rewritten type, erasing
    it again changes nothing, and where the rewrite left no trivial cast
    the eraser returned the rewritten term itself. Returns the erased
    term and the rewritten one."""
    sim, new_ty, rewritten, erased = cli._simplified(item, preset, full_dirt)
    label = (item.name, preset, full_dirt)
    assert type_of_value(item.signature, sim.context, (), erased) == new_ty, label
    assert erase_value(erased) is erased, label
    assert (erased is rewritten) == (erased == rewritten), label
    assert cli.cast_count(erased) <= cli.cast_count(rewritten), label
    return erased, rewritten


@pytest.mark.parametrize("preset,full_dirt", PRESETS)
def test_erased_corpus_terms_typecheck_at_the_rewritten_type(preset, full_dirt):
    for item in load_bundled():
        if item.term is not None:
            erased, rewritten = assert_erases_soundly(item, preset, full_dirt)
            if preset in ("none", "scc"):
                assert erased is rewritten, item.name


def test_the_corpus_keeps_only_casts_between_different_types():
    """Under `all` the corpus terms keep two casts: `apply_if`'s lift of its
    result into `d3`, and `op_annotated`'s lift into `{Fail,Random}`."""
    left = {}
    for item in load_bundled():
        if item.term is not None:
            erased, _ = assert_erases_soundly(item, "all", False)
            if cli.cast_count(erased):
                left[item.name] = str(erased)
    assert sorted(left) == ["apply_if", "op_annotated"]
    assert "(return y |> <a5>!0_d3)" in left["apply_if"]
    assert "(return y |> <bit>!({Fail}u+({Random}u+<{}>)))" in left["op_annotated"]


@pytest.fixture(scope="module")
def bench_items():
    return {item.name: item for item in parse_corpus(corpusgen.chains_text(1))}


def test_bench_walks_erase_to_the_uncast_function(bench_items):
    """The cast along a chain, a ring or a ladder, hundreds of links, is
    erased under `all`: the function comes back uncast. Dense keeps one
    cast, along the constraints that its bipolar parameters keep."""
    for name in ("chain_n400", "ring_n400", "ladder_n400", "dense_n200"):
        item = bench_items[name]
        for full_dirt in (False, True):
            erased, rewritten = assert_erases_soundly(item, "all", full_dirt)
            assert node_count(rewritten) > 400, name
            if name.startswith("dense"):
                assert cli.cast_count(erased) == 1, (name, str(erased))
            else:
                assert cli.cast_count(erased) == 0 and node_count(erased) == 8, (
                    name, str(erased))


def erase_calls(monkeypatch, term) -> int:
    """The calls of `subst._erase` that erasing `term` makes."""
    calls, erase = 0, subst._erase

    def counted(refl, x):
        nonlocal calls
        calls += 1
        return erase(refl, x)
    with monkeypatch.context() as patch:
        patch.setattr(subst, "_erase", counted)
        erase_value(term)
    return calls


@pytest.mark.parametrize("preset", ["none", "all"])
def test_erasure_costs_linear_in_the_term(bench_items, monkeypatch, preset):
    """Erasing the cast along a chain, a balanced composition of arrow
    links as the bench writes it, calls `_erase` at most once per node of
    the term, at 100 links and at 400: each part's reflexivity is carried
    up to its composition, not decided again there."""
    per_node = []
    for name in ("chain_n100", "chain_n400"):
        _, _, rewritten, _ = cli._simplified(bench_items[name], preset, False)
        per_node.append(erase_calls(monkeypatch, rewritten) / node_count(rewritten))
    assert per_node[1] <= 1 and per_node[1] <= 1.02 * per_node[0], per_node


def test_structural_terms_are_returned_as_they_are():
    for item in parse_corpus(corpusgen.structural_text(1)):
        if item.term is not None:
            for preset in ("none", "scc"):
                erased, rewritten = assert_erases_soundly(item, preset, False)
                assert erased is rewritten, (item.name, preset)


def walk(rng, links, start, refl, compose, length):
    """A balanced composition of up to `length` links, each the coercion
    `co` of a triple `(lo, hi, co)` of `links` whose `lo` is the end of the
    link before, with a reflexivity `refl(at)` put in at random. Returns
    (coercion, end)."""
    steps, at = [], start
    for _ in range(length):
        if rng.random() < 0.4:
            steps.append(refl(at))
        outs = [(hi, co) for lo, hi, co in links if lo == at]
        if not outs:
            break
        at, co = rng.choice(outs)
        steps.append(co)
    steps = steps or [refl(at)]

    def tree(parts):
        if len(parts) == 1:
            return parts[0]
        mid = len(parts) // 2
        return compose(tree(parts[mid:]), tree(parts[:mid]))
    return tree(steps), at


def walk_item(rng, ctx, name):
    """A term over a seeded `gen.random_context`: a function that casts
    its argument along a random walk of type constraints and its result's
    dirt along a random walk of dirt constraints, both with reflexivities
    put in between. Its type is what it checks to."""
    tys = [n for n, _ in ctx.ty_params]
    a = rng.choice(tys) if tys else None
    vty = TyParam(a) if a else TyUnit()
    vlinks = [(lo, hi, VCoParam(n)) for n, lo, hi in ctx.ty_cos]
    vco, end = walk(rng, vlinks, vty, derived_refl_vty, VCoCompose, 6)
    body = Return(CastV(Var("x"), vco))
    if ctx.dirt_params:
        d = dirt((), rng.choice(ctx.dirt_params))
        # A constraint `p : d <= L+e` links `L'+d` to `L'+L+e` under L'.
        dlinks = [(lo.with_ops(ops), hi.with_ops(ops), both_extend(ops, DCoParam(n)))
                  for n, lo, hi in ctx.dirt_cos for ops in (frozenset(), frozenset({"Fail"}))]
        dco, _ = walk(rng, dlinks, d, lambda at: both_extend(at.ops, (
            DCoReflEmpty() if at.tail is None else DCoReflParam(at.tail))), DCoCompose, 6)
        refl_end = derived_refl_vty(end)
        body = CastC(CastC(body, CCoercion(refl_end, DCoEmptyUnder(d.tail))),
                     CCoercion(refl_end, dco))
    term = Lam("x", vty, body)
    return CorpusItem(name, TEST_SIG, ctx, type_of_value(TEST_SIG, ctx, (), term), term)


def test_erased_terms_over_seeded_contexts_typecheck_at_the_rewritten_type():
    rng = random.Random(1808)
    erased_some = 0
    for i in range(40):
        ctx = random_context(rng, max_dirts=6, max_tys=6, max_cos=10)
        item = walk_item(rng, ctx, f"walk{i}")
        for preset, full_dirt in PRESETS:
            erased, rewritten = assert_erases_soundly(item, preset, full_dirt)
            erased_some += erased is not rewritten
    assert erased_some > 40


# ---------------------------------------------------------------------------
# Depth


def deep_item(poltype: str, term: str) -> str:
    return f"(item deep (signature) (context) (poltype {poltype}) (term {term}))"


def nested(layers: int, inner: str, wrap: str) -> str:
    for _ in range(layers):
        inner = wrap.format(inner)
    return inner


UNIT_FN = "(arrow (unit) (comp (unit) (dirt ())))"
# shape -> (layers -> (poltype, term), the most layers the reader takes): a
# stack of value casts, of computation casts, or of compositions, each a
# reflexivity at unit, a function whose type and annotation are arrows
# nested on the argument side, or functions returning functions, whose type
# nests arrows on the result side
DEEP = {
    "castv": (lambda k: ("(unit)", nested(k, "(unitval)", "(castv {} (corefl (unit)))")),
              MAX_NESTING - 4),
    "castc": (lambda k: (UNIT_FN, "(lam x (unit) " + nested(
        k, "(return (var x))", "(castc {} (cco (corefl (unit)) (drefl (dirt ()))))") + ")"),
              MAX_NESTING - 7),
    "coseq": (lambda k: ("(unit)", "(castv (unitval) " + nested(
        k, "(corefl (unit))", "(coseq {} (corefl (unit)))") + ")"), MAX_NESTING - 5),
    "arrow": (lambda k: (nested(k, "(unit)", "(arrow {} (comp (unit) (dirt ())))"),
                         "(lam x " + nested(k - 1, "(unit)", "(arrow {} (comp (unit) (dirt ())))")
                         + " (return (unitval)))"), MAX_NESTING - 5),
    "result": (lambda k: (nested(k, "(unit)", "(arrow (unit) (comp {} (dirt ())))"),
                          nested(k, "(unitval)", "(lam x (unit) (return {}))")),
               MAX_NESTING // 2 - 2),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_simplify_erases_terms_nested_as_deep_as_the_reader_allows(shape, tmp_path, capsys):
    """The deepest item the reader takes simplifies within a recursion limit
    of two frames per nesting level, above the test's own frames."""
    item, layers = DEEP[shape]
    with pytest.raises(ParseError):
        parse_corpus(deep_item(*item(layers + 1)))
    path = tmp_path / "deep.sexp"
    path.write_text(deep_item(*item(layers)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 2 * MAX_NESTING + 16)
    try:
        assert cli.main(["simplify", str(path), "--emit", "json"]) == 0
    finally:
        sys.setrecursionlimit(limit)
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["casts"] == 0, entry["term"]
