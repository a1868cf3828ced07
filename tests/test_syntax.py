import ast
import copy
import dataclasses
import pickle
import random
import sys
from pathlib import Path

import pytest

from coersimp import polarity, semantics, syntax

from coersimp.corpus import load_bundled
from coersimp.phases import PRESETS, parse_phase_config, run_phases
from coersimp.polarity import FreeParamSet, fp_vty, subst_fps
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
    _value_reduce,
    dirt,
)

from gen import SHAPES, TEST_SIG, random_context, random_fps, random_vty, shape_context
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
    # One node of each class that declares its format, and its text.
    s = syntax
    ret = s.Return(s.Var("y"))
    cco = s.CCoercion(s.VCoParam("w"), s.DCoUnionBoth("Op", s.DCoParam("p")))
    cases = [
        (s.SkelParam("s1"), "s1"), (s.SkelUnit(), "unit"), (s.SkelBase("int"), "int"),
        (s.SkelArrow(s.SkelUnit(), s.SkelParam("s1")), "(unit -> s1)"),
        (s.TyParam("a"), "a"), (s.TyUnit(), "unit"), (s.TyBase("bit"), "bit"),
        (s.CompType(s.TyParam("a"), dirt(("Op", "Fail"), "d")), "a!{Fail,Op}+d"),
        (t, "(unit -> bit!d1)"),
        (s.VCoParam("w"), "w"), (s.VCoReflParam("a"), "<a>"), (s.VCoReflUnit(), "<unit>"),
        (s.VCoReflBase("bit"), "<bit>"), (cco, "w!({Op}up)"),
        (s.VCoArrow(s.VCoReflUnit(), cco), "(<unit> -> w!({Op}up))"),
        (s.VCoCompose(s.VCoParam("w"), s.VCoReflParam("a")), "(w . <a>)"),
        (s.DCoParam("p"), "p"), (s.DCoReflParam("d"), "<d>"), (s.DCoReflEmpty(), "<{}>"),
        (s.DCoEmptyUnder("d"), "0_d"), (s.DCoUnionBoth("Op", s.DCoParam("p")), "({Op}up)"),
        (s.DCoUnionRight("Op", s.DCoReflEmpty()), "({Op}u+<{}>)"),
        (s.DCoCompose(s.DCoParam("p"), s.DCoEmptyUnder("d")), "(p . 0_d)"),
        (s.Var("x"), "x"), (s.UnitVal(), "()"),
        (s.Lam("x", s.TyUnit(), s.Return(s.Var("x"))), "(fun x:unit. return x)"),
        (s.CastV(s.Var("x"), s.VCoParam("w")), "(x |> w)"), (s.Return(s.UnitVal()), "return ()"),
        (s.OpCall("Op", s.UnitVal(), "y", s.TyBase("bit"), ret), "Op((); y:bit. return y)"),
        (s.Do("y", s.Return(s.UnitVal()), ret), "do y <- return () in return y"),
        (s.App(s.Var("f"), s.UnitVal()), "f ()"),
        (s.LetVal("y", s.UnitVal(), ret), "let y = () in return y"),
        (s.CastC(ret, cco), "(return y |> w!({Op}up))"),
    ]
    for node, text in cases:
        assert str(node) == text, type(node)
    classes = {c for c in vars(syntax).values() if isinstance(c, type) and hasattr(c, "rebuild")}
    assert {type(node) for node, _ in cases} == classes - {Dirt, syntax.OpSig}


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
    """A fresh name is the prefix and the least counter above the prefix's
    last that names nothing seeded or drawn; each prefix counts alone."""
    ctx = ParamContext(("s1",), ("d2",), (("a1", SkelParam("s1")),), (), ())
    supply = NameSupply.seeded(ctx)
    assert supply.fresh("s") == "s2"
    assert [supply.fresh("d") for _ in range(3)] == ["d1", "d3", "d4"]
    assert [supply.fresh("a"), supply.fresh("d"), supply.fresh("a")] == ["a2", "d5", "a3"]
    assert [supply.fresh("w"), supply.fresh("p"), supply.fresh("w")] == ["w1", "p1", "w2"]
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


def syntax_values(root, modules=("coersimp.syntax",)):
    """Every instance of a class of `modules` reachable from `root` through
    containers, the fields of value classes (`__match_args__`) and the
    fields of dataclass records."""
    seen, todo, found = {}, [root], []  # `seen` keeps what it saw alive, so no id is reused
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (str, int, type(None))):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            todo.extend(obj.items())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif dataclasses.is_dataclass(obj) or hasattr(type(obj), "__match_args__"):
            if type(obj).__module__ in modules:
                found.append(obj)
            names = ([f.name for f in dataclasses.fields(obj)] if dataclasses.is_dataclass(obj)
                     else type(obj).__match_args__)
            todo.extend(getattr(obj, n) for n in names)
    return found


@pytest.fixture(scope="module")
def pipeline_roots():
    """What the reader, reduction and the phases build on the bundled
    corpus and on the `tests/gen.py` shapes and random contexts."""
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
    rng = random.Random(7)
    for _ in range(20):
        ctx = random_context(rng)
        roots.append((ctx, random_fps(rng, ctx), random_vty(rng, ctx, depth=3)))
    return roots


def test_syntax_values_have_no_instance_dict(pipeline_roots):
    """What the reader, reduction and the phases build is slotted; only a
    `ParamContext` keeps a dict, for its lazy lookup index."""
    values = syntax_values(pipeline_roots)
    kinds = {type(v).__name__ for v in values}
    assert {"SkelParam", "TyArrow", "Dirt", "VCoCompose", "VCoArrow", "DCoParam",
            "DCoUnionBoth", "Lam", "CastV", "OpCall", "Signature", "OpSig"} <= kinds
    with_dict = {type(v).__name__ for v in values
                 if not isinstance(v, ParamContext) and hasattr(v, "__dict__")}
    assert not with_dict


# ---------------------------------------------------------------------------
# Value classes against their dataclass twins


VALUE_MODULES = (syntax, polarity, semantics)
VALUE_CLASSES = [cls for module in VALUE_MODULES for cls in vars(module).values()
                 if isinstance(cls, type) and cls.__module__ == module.__name__
                 and vars(cls).get("__reduce__") is _value_reduce]
ABSTRACT_BASES = (syntax.Skeleton, syntax.ValueType, syntax.VCoercion, syntax.DCoercion,
                  syntax.ValueTerm, syntax.CompTerm)


CLASS_SOURCES = {(module.__name__, node.name): node for module in VALUE_MODULES
                 for node in ast.parse(Path(module.__file__).read_text()).body
                 if isinstance(node, ast.ClassDef)}


def dataclass_twin(cls):
    """`dataclass(frozen=True, slots=True)` over the annotated fields and
    defaults that `cls`'s source declares: what `cls` was as a dataclass."""
    spec = []
    for f in CLASS_SOURCES[cls.__module__, cls.__name__].body:
        if isinstance(f, ast.AnnAssign):
            field = (f.target.id, ast.unparse(f.annotation))
            if f.value is not None:
                field += (eval(ast.unparse(f.value), vars(sys.modules[cls.__module__])),)
            spec.append(field)
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, slots=True)


TWINS = {cls: dataclass_twin(cls) for cls in VALUE_CLASSES}


def remade(x, make=lambda cls: cls):
    """`x` with every value-class node in it built afresh as an instance of
    `make(its class)`: an equal copy that shares no node with `x` by
    default, its dataclass twin under `make=TWINS.get`."""
    if type(x) in TWINS:
        return make(type(x))(*[remade(getattr(x, n), make) for n in type(x).__match_args__])
    if isinstance(x, tuple):  # a field's frozensets hold names only
        return tuple(remade(v, make) for v in x)
    return x


def to_twin(x):
    return remade(x, TWINS.get)


@pytest.fixture(scope="module")
def value_sample(pipeline_roots):
    """Up to 12 distinct values of each value class, from the pipeline, from
    the model's computation trees and from skeletons no bundled context
    declares, and an equal copy of each."""
    bit = TyBase("bit")
    extra = [*semantics.enum_comp(TEST_SIG, CompType(bit, dirt())),
             semantics.eval_comp(TEST_SIG, {}, syntax.OpCall(
                 "Random", syntax.UnitVal(), "x", bit, syntax.Return(syntax.Var("x")))),
             SkelArrow(SkelUnit(), syntax.SkelBase("bit"))]
    by_class = {}
    for v in syntax_values([pipeline_roots, extra], tuple(m.__name__ for m in VALUE_MODULES)):
        if type(v) in TWINS:
            by_class.setdefault(type(v), {}).setdefault(repr(v), v)
    assert set(by_class) == set(TWINS), set(TWINS) - set(by_class)
    sample = [v for reprs in by_class.values() for v in sorted(reprs.values(), key=repr)[:12]]
    return sample + [remade(v) for v in sample]


def test_value_classes_are_the_node_classes_and_three_records():
    """Each node class is built by `value_class`, so none pays for a
    dataclass at import; the only dataclasses in `syntax` are the three
    records."""
    in_syntax = [cls for cls in VALUE_CLASSES if cls.__module__ == "coersimp.syntax"]
    assert len(in_syntax) == 35
    assert {cls.__name__ for cls in VALUE_CLASSES if cls not in in_syntax} == {
        "FreeParamSet", "TreeReturn", "TreeOp"}
    records = {name for name, cls in vars(syntax).items()
               if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")}
    assert records == {"Signature", "ParamContext", "NameSupply"}
    concrete = {cls for base in ABSTRACT_BASES for cls in base.__subclasses__()}
    assert len(concrete) == 31 and concrete <= set(VALUE_CLASSES)
    for cls in VALUE_CLASSES:
        assert not hasattr(cls, "__dataclass_fields__"), cls
        assert cls.__slots__ == cls.__match_args__, cls


def test_value_classes_agree_with_their_dataclass_twins(value_sample):
    for cls, twin in TWINS.items():
        assert cls.__match_args__ == twin.__match_args__, cls
    twins = [to_twin(v) for v in value_sample]
    for v, t in zip(value_sample, twins):
        assert repr(v) == repr(t)
        assert hash(v) == hash(t), repr(v)
        assert not hasattr(v, "__dict__"), repr(v)
    for i, a in enumerate(value_sample):
        for j, b in enumerate(value_sample):
            assert (a == b) == (twins[i] == twins[j]), (a, b)
            assert (a != b) == (twins[i] != twins[j]), (a, b)
    assert any(a == b and a is not b for a in value_sample for b in value_sample)


def test_nodes_of_different_classes_with_the_same_fields_differ():
    assert TyParam("a") != SkelParam("a")
    assert syntax.VCoReflParam("a") != syntax.DCoReflParam("a")
    assert syntax.TyUnit() != SkelUnit() and TyUnit() == TyUnit()
    assert TyParam("a").__eq__("a") is NotImplemented
    assert len({TyParam("a"), SkelParam("a"), TyParam("a")}) == 2


def test_value_fields_cannot_be_assigned_or_deleted(value_sample):
    for v in value_sample:
        twin = to_twin(v)
        for name in type(v).__match_args__:
            for change in (lambda x: setattr(x, name, None), lambda x: delattr(x, name)):
                with pytest.raises(dataclasses.FrozenInstanceError) as got:
                    change(v)
                with pytest.raises(dataclasses.FrozenInstanceError) as want:
                    change(twin)
                assert str(got.value) == str(want.value)
        # Any other name is refused too (a slotted dataclass twin fails
        # here with a TypeError from its stale `super()` cell).
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.other = None
        assert v == remade(v)


def test_values_survive_deepcopy_and_pickle(value_sample):
    for v in value_sample:
        copied = copy.deepcopy(v)
        assert copied == v and type(copied) is type(v)
        if type(v).__module__ != "coersimp.semantics":  # a tree may hold model functions
            assert pickle.loads(pickle.dumps(v)) == v


def test_rebuild_maps_the_children_and_passes_the_atoms_through(value_sample):
    """`rebuild(f, arg)` calls `f(arg, child)` on each field that is not an
    atom, in field order, and never on an atom. It gives back the node
    itself when `f` gives back every child; otherwise a node of the same
    class over `f`'s results, its atoms the same objects."""
    for v in value_sample:
        names = type(v).__match_args__
        kids = [i for i, n in enumerate(names) if not isinstance(getattr(v, n), syntax._ATOMS)]
        seen = []

        def same(arg, child):
            assert arg is seen and not isinstance(child, syntax._ATOMS), (v, child)
            seen.append(child)
            return child

        assert v.rebuild(same, seen) is v
        assert [id(c) for c in seen] == [id(getattr(v, names[i])) for i in kids], v
        for changed in ([kids] if kids else []) + [[i] for i in kids]:  # all, then each alone
            images = {i: object() for i in changed}
            got = v.rebuild(lambda arg, child: images.get(arg.pop(0), child), list(kids))
            assert type(got) is type(v) and got is not v, v
            for i, n in enumerate(names):
                assert getattr(got, n) is images.get(i, getattr(v, n)), (v, n)


def test_value_constructors_take_the_dataclass_arguments():
    assert Dirt(frozenset({"Fail"})) == Dirt(frozenset({"Fail"}), None)
    assert Dirt(ops=frozenset(), tail="d") == dirt((), "d")
    assert FreeParamSet(pos=frozenset({"a"})) == FreeParamSet(frozenset({"a"}), frozenset())
    assert FreeParamSet() == FreeParamSet(frozenset(), frozenset())
    assert syntax.OpSig(result=TyUnit(), arg=TyBase("bit")).arg == TyBase("bit")
    for cls, args, kwargs in ((Dirt, (), {}), (Dirt, (frozenset(), None, "x"), {}),
                              (SkelUnit, ("x",), {}), (TyArrow, (TyUnit(),), {}),
                              (FreeParamSet, (), {"both": frozenset()}),
                              (Dirt, (frozenset(),), {"ops": frozenset()})):
        with pytest.raises(TypeError) as got:
            cls(*args, **kwargs)
        with pytest.raises(TypeError) as want:
            TWINS[cls](*args, **kwargs)
        assert str(got.value) == str(want.value)


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
