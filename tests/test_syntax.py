import dataclasses

import pytest

from coersimp.corpus import load_bundled
from coersimp.phases import PRESETS, parse_phase_config, run_phases
from coersimp.polarity import fp_vty, subst_fps
from coersimp.reduce import reduce_context
from coersimp.syntax import (
    CompType,
    DCoReflEmpty,
    Dirt,
    NameSupply,
    ParamContext,
    Signature,
    SkelArrow,
    SkelParam,
    SkelUnit,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    dirt,
)

from gen import SHAPES, TEST_SIG, shape_context
from support import alpha_equivalent, signature


def test_dirt_helper_normalizes():
    d = dirt(("Random", "Fail"), "d1")
    assert d.ops == frozenset({"Random", "Fail"})
    assert d.tail == "d1"
    assert dirt().ops == frozenset()
    assert dirt().tail is None


def test_printing():
    assert str(Dirt(frozenset(), None)) == "{}"
    assert str(Dirt(frozenset({"Random"}), "d1")) == "{Random}+d1"
    t = TyArrow(TyUnit(), CompType(TyBase("bit"), Dirt(frozenset(), "d1")))
    assert str(t) == "(unit -> bit!d1)"
    assert str(SkelArrow(SkelUnit(), SkelParam("s1"))) == "(unit -> s1)"


def test_types_are_hashable_values():
    a = TyArrow(TyParam("a"), CompType(TyUnit(), dirt()))
    b = TyArrow(TyParam("a"), CompType(TyUnit(), dirt()))
    assert a == b
    assert hash(a) == hash(b)
    assert a != TyArrow(TyParam("b"), CompType(TyUnit(), dirt()))


def test_signature_lookup():
    sig = signature(Random=(TyUnit(), TyBase("bit")))
    assert "Random" in sig
    assert "Fail" not in sig
    assert sig.get("Random").result == TyBase("bit")
    assert sig.names() == ["Random"]


def test_name_supply_avoids_seeded_names():
    ctx = ParamContext(("s1",), ("d2",), (("a1", SkelParam("s1")),), (), ())
    supply = NameSupply.seeded(ctx)
    assert supply.fresh("s") == "s2"
    assert supply.fresh("d") != "d2"
    seen = {supply.fresh("a") for _ in range(10)}
    assert len(seen) == 10
    assert "a1" not in seen


def test_alpha_equivalence_renames_consistently():
    a = TyArrow(TyParam("a"), CompType(TyParam("a"), Dirt(frozenset(), "d")))
    same = TyArrow(TyParam("x"), CompType(TyParam("x"), Dirt(frozenset(), "e")))
    diff = TyArrow(TyParam("x"), CompType(TyParam("y"), Dirt(frozenset(), "e")))
    assert alpha_equivalent(a, same)
    assert not alpha_equivalent(a, diff)


def test_alpha_equivalence_is_injective():
    # two distinct parameters cannot collapse onto one
    a = TyArrow(TyParam("x"), CompType(TyParam("y"), dirt()))
    b = TyArrow(TyParam("z"), CompType(TyParam("z"), dirt()))
    assert not alpha_equivalent(a, b)


def test_alpha_equivalence_respects_ops():
    a = Dirt(frozenset({"Random"}), "d")
    assert alpha_equivalent(
        TyArrow(TyUnit(), CompType(TyUnit(), a)),
        TyArrow(TyUnit(), CompType(TyUnit(), Dirt(frozenset({"Random"}), "e"))),
    )
    assert not alpha_equivalent(
        TyArrow(TyUnit(), CompType(TyUnit(), a)),
        TyArrow(TyUnit(), CompType(TyUnit(), Dirt(frozenset({"Fail"}), "e"))),
    )


def test_context_describe_and_names():
    ctx = ParamContext(
        ("s1",), ("d1",), (("a1", SkelParam("s1")),),
        (("p1", dirt((), "d1"), dirt(("Random",), None)),),
        (("w1", TyParam("a1"), TyParam("a1")),),
    )
    assert ctx.all_names() == {"s1", "d1", "a1", "p1", "w1"}
    assert "a1:s1" in ctx.describe()


# ---------------------------------------------------------------------------
# Slotted nodes and the lazy context index


def syntax_values(root):
    """Every instance of a `coersimp.syntax` class reachable from `root`
    through containers and dataclass fields."""
    seen, todo, found = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (str, int, type(None))):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            todo.extend(obj.items())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif dataclasses.is_dataclass(obj):
            if type(obj).__module__ == "coersimp.syntax":
                found.append(obj)
            todo.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return found


def test_syntax_values_have_no_instance_dict():
    """What the reader, reduction and the phases build is slotted; only a
    `ParamContext` keeps a dict, for its lazy lookup index."""
    roots = []
    for item in load_bundled():
        roots.append(item)
        red = reduce_context(item.signature, item.context)
        roots.append(red)
        fps = subst_fps(red.subst, fp_vty(item.poltype)) if item.poltype else None
        if fps is not None:
            for instructions in (PRESETS["all"], parse_phase_config("all", full_dirt=True)):
                roots.append(run_phases(item.signature, red.context, fps, instructions))
    for family in sorted(SHAPES):
        ctx, pol = shape_context(family, 20)
        roots.append(run_phases(TEST_SIG, ctx, pol, PRESETS["all"]))
    values = syntax_values(roots)
    kinds = {type(v).__name__ for v in values}
    assert {"SkelParam", "TyArrow", "Dirt", "VCoCompose", "VCoArrow", "DCoParam",
            "DCoUnionBoth", "Lam", "CastV", "OpCall", "Signature", "OpSig"} <= kinds
    with_dict = {type(v).__name__ for v in values
                 if not isinstance(v, ParamContext) and hasattr(v, "__dict__")}
    assert not with_dict


def test_context_index_is_not_part_of_the_value():
    def make():
        return ParamContext(
            ("s",), ("d",), (("a", SkelParam("s")), ("b", SkelUnit())),
            (("p", dirt((), "d"), dirt(("Random",), "d")),),
            (("w", TyParam("a"), TyParam("a")),))

    queried, fresh = make(), make()
    assert queried.ty_param_skeleton("b") == SkelUnit()
    assert queried.dirt_co_classifier("p") == (dirt((), "d"), dirt(("Random",), "d"))
    assert queried.ty_co_classifier("w") == (TyParam("a"), TyParam("a"))
    assert queried.ty_co_classifier("p") is None
    assert "d" in queried.dirt_param_set and "s" in queried.skel_param_set
    assert queried == fresh
    assert hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh)
    assert {queried: 1}[fresh] == 1


def test_context_lookup_takes_the_first_of_repeated_names():
    ctx = ParamContext(
        (), ("d",), (("a", SkelUnit()), ("a", SkelParam("s"))),
        (("p", dirt(), dirt()), ("p", dirt((), "d"), dirt((), "d"))),
        (("w", TyUnit(), TyUnit()), ("w", TyParam("a"), TyParam("a"))))
    assert ctx.ty_param_skeleton("a") == SkelUnit()
    assert ctx.dirt_co_classifier("p") == (dirt(), dirt())
    assert ctx.ty_co_classifier("w") == (TyUnit(), TyUnit())


def test_signature_membership_reads_a_name_set():
    sig = signature(Random=(TyUnit(), TyBase("bit")), Fail=(TyUnit(), TyUnit()))
    assert "Fail" in sig and "Random" in sig
    assert "Choose" not in sig and "Fail " not in sig
    assert sig.name_set == frozenset({"Fail", "Random"})
    # The declared operations and their order are unchanged; the set is
    # derived from them, and neither it nor the ground-check and inclusion
    # memos take part in equality, hashing or the repr.
    assert sig.names() == ["Random", "Fail"]
    sig.ground_checks[DCoReflEmpty()] = (dirt(), dirt())
    sig.ground_inclusions[(frozenset(), frozenset())] = DCoReflEmpty()
    assert sig == Signature(sig.ops) and hash(sig) == hash(Signature(sig.ops))
    assert repr(sig) == repr(Signature(sig.ops))
    assert "name_set" not in repr(sig) and "ground_checks" not in repr(sig)
    assert "ground_inclusions" not in repr(sig)
    assert not hasattr(sig, "__dict__")
