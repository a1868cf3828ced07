import pytest

from coersimp.check import (
    CheckError,
    EndpointMismatch,
    IllFormed,
    NoWitness,
    SkeletonMismatch,
    TypeMismatch,
    UnknownName,
    check_cco,
    check_dco,
    check_vco,
    dco_endpoint,
    derived_empty,
    derived_refl_dirt,
    derived_refl_vty,
    dirt_inclusion_coercion,
    interned_inclusion,
    type_of_comp,
    type_of_value,
    value_inclusion_coercion,
    vco_endpoint,
    wf_context,
    wf_dirt,
    wf_signature,
    wf_skeleton,
    wf_vtype,
)
from coersimp.corpus import load_bundled
from coersimp.syntax import (
    App,
    CastC,
    CastV,
    CCoercion,
    CompType,
    DCoCompose,
    DCoEmptyUnder,
    DCoParam,
    DCoReflParam,
    DCoUnionBoth,
    Dirt,
    Do,
    EMPTY_CONTEXT,
    Lam,
    OpCall,
    ParamContext,
    Return,
    Signature,
    SkelArrow,
    SkelBase,
    SkelParam,
    SkelUnit,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    UnitVal,
    Var,
    VCoArrow,
    VCoCompose,
    VCoParam,
    VCoReflParam,
    dirt,
    intern,
)

from support import signature

SIG = signature(Random=(TyUnit(), TyBase("bit")), Fail=(TyUnit(), TyUnit()))

CTX = ParamContext(
    skel_params=("s1",),
    dirt_params=("d1", "d2"),
    ty_params=(("a1", SkelParam("s1")), ("a2", SkelParam("s1"))),
    dirt_cos=(("p1", dirt((), "d1"), dirt(("Random",), "d2")),),
    ty_cos=(("w1", TyParam("a1"), TyParam("a2")),),
)


def test_wf_skeleton():
    wf_skeleton(CTX, SkelParam("s1"))
    wf_skeleton(CTX, SkelArrow(SkelUnit(), SkelBase("bit")))
    with pytest.raises(UnknownName):
        wf_skeleton(CTX, SkelParam("s9"))


def test_wf_dirt():
    wf_dirt(SIG, CTX, dirt(("Random", "Fail"), "d1"))
    with pytest.raises(UnknownName):
        wf_dirt(SIG, CTX, dirt((), "d9"))
    with pytest.raises(UnknownName):
        wf_dirt(SIG, CTX, dirt(("Launch",), None))


def test_wf_vtype_returns_skeleton():
    assert wf_vtype(SIG, CTX, TyParam("a1")) == SkelParam("s1")
    t = TyArrow(TyUnit(), CompType(TyParam("a2"), dirt((), "d1")))
    assert wf_vtype(SIG, CTX, t) == SkelArrow(SkelUnit(), SkelParam("s1"))
    with pytest.raises(UnknownName):
        wf_vtype(SIG, CTX, TyParam("zz"))


def test_wf_signature_rejects_effectful_result():
    bad = signature(Spawn=(TyUnit(), TyArrow(TyUnit(), CompType(TyUnit(), dirt()))))
    with pytest.raises(IllFormed):
        wf_signature(bad)


def test_wf_context_rejects_mismatched_constraint_skeletons():
    bad = ParamContext(
        skel_params=("s1", "s2"),
        dirt_params=(),
        ty_params=(("a1", SkelParam("s1")), ("a2", SkelParam("s2"))),
        dirt_cos=(),
        ty_cos=(("w1", TyParam("a1"), TyParam("a2")),),
    )
    with pytest.raises(SkeletonMismatch):
        wf_context(SIG, bad)


def test_wf_context_accepts_worked_items():
    for item in load_bundled():
        wf_signature(item.signature)
        wf_context(item.signature, item.context)


# ---------------------------------------------------------------------------
# coercion checking


def test_check_dco_param_and_extensions():
    lo, hi = check_dco(SIG, CTX, DCoParam("p1"))
    assert lo == dirt((), "d1")
    assert hi == dirt(("Random",), "d2")


def test_check_dco_derived_forms():
    d = dirt(("Fail",), "d2")
    assert check_dco(SIG, CTX, derived_refl_dirt(d)) == (d, d)
    assert check_dco(SIG, CTX, derived_empty(d)) == (dirt(), d)


def test_dirt_inclusion_coercion_endpoints():
    lo = dirt(("Random",), None)
    hi = dirt(("Random", "Fail"), "d1")
    assert check_dco(SIG, CTX, dirt_inclusion_coercion(lo, hi)) == (lo, hi)
    with pytest.raises(NoWitness):
        dirt_inclusion_coercion(dirt(("Fail",), None), dirt(("Random",), None))
    with pytest.raises(NoWitness):
        dirt_inclusion_coercion(dirt((), "d1"), dirt((), "d2"))


def test_check_vco_param_refl_arrow():
    assert check_vco(SIG, CTX, VCoParam("w1")) == (TyParam("a1"), TyParam("a2"))
    t = TyArrow(TyUnit(), CompType(TyUnit(), dirt()))
    assert check_vco(SIG, CTX, derived_refl_vty(t)) == (t, t)
    # argument coercion flips: arg a1<=a2 gives (a2 -> C) <= (a1 -> C')
    co = VCoArrow(VCoParam("w1"), CCoercion(derived_refl_vty(TyUnit()), DCoParam("p1")))
    lo, hi = check_vco(SIG, CTX, co)
    assert lo == TyArrow(TyParam("a2"), CompType(TyUnit(), dirt((), "d1")))
    assert hi == TyArrow(TyParam("a1"), CompType(TyUnit(), dirt(("Random",), "d2")))


def test_check_vco_compose_endpoint_mismatch():
    good = VCoCompose(derived_refl_vty(TyParam("a2")), VCoParam("w1"))
    assert check_vco(SIG, CTX, good) == (TyParam("a1"), TyParam("a2"))
    bad = VCoCompose(VCoParam("w1"), VCoParam("w1"))
    with pytest.raises(EndpointMismatch):
        check_vco(SIG, CTX, bad)


@pytest.mark.parametrize("endpoint, g", [
    pytest.param(vco_endpoint, VCoParam("w1"), id="vco-param"),
    pytest.param(vco_endpoint, VCoReflParam("a1"), id="vco-refl-param"),
    pytest.param(dco_endpoint, DCoParam("p1"), id="dco-param"),
    pytest.param(dco_endpoint, DCoEmptyUnder("d1"), id="dco-empty-under"),
    pytest.param(dco_endpoint, DCoReflParam("d1"), id="dco-refl-param"),
])
def test_endpoints_refuse_a_coercion_that_is_not_ground(endpoint, g):
    """The endpoint readers take a ground coercion only: a parameter or a
    coercion over one has no endpoint to read."""
    for upper in (False, True):
        with pytest.raises(IllFormed):
            endpoint(g, upper)


def test_check_compose_chains_deeper_than_the_recursion_limit():
    """A witness family nests one composition per phase step; checking
    one must not recurse once per link. Chains of 5000 links, nested on
    either side, keep the endpoints of their single parameter link."""
    links = 5000
    a1, a2 = TyParam("a1"), TyParam("a2")
    d1, d2 = dirt((), "d1"), dirt(("Random",), "d2")
    # Reflexivities after the parameter (nested in `before`) ...
    vco, dco = VCoParam("w1"), DCoParam("p1")
    for _ in range(links):
        vco = VCoCompose(derived_refl_vty(a2), vco)
        dco = DCoCompose(derived_refl_dirt(d2), dco)
    assert check_vco(SIG, CTX, vco) == (a1, a2)
    assert check_dco(SIG, CTX, dco) == (d1, d2)
    # ... and before it (nested in `after`).
    vco, dco = VCoParam("w1"), DCoParam("p1")
    for _ in range(links):
        vco = VCoCompose(vco, derived_refl_vty(a1))
        dco = DCoCompose(dco, derived_refl_dirt(d1))
    assert check_vco(SIG, CTX, vco) == (a1, a2)
    assert check_dco(SIG, CTX, dco) == (d1, d2)
    with pytest.raises(EndpointMismatch):  # a2 then a1 do not meet
        check_vco(SIG, CTX, VCoCompose(vco, derived_refl_vty(a2)))
    with pytest.raises(EndpointMismatch):
        check_dco(SIG, CTX, DCoCompose(derived_refl_dirt(d1), dco))


def test_ground_memo_checks_deep_compositions_link_by_link():
    """Against the empty context, equal but distinct compositions deeper
    than the recursion limit, bare or under an arrow or an operation, check
    through the signature's ground-check memo: the memo never hashes or
    compares a composition."""
    links = 5000
    lo, hi = TyArrow(TyUnit(), CompType(TyUnit(), dirt())), TyArrow(
        TyUnit(), CompType(TyUnit(), dirt(("Random",))))

    def family():
        vco, dco = value_inclusion_coercion(lo, hi), dirt_inclusion_coercion(dirt(), dirt())
        for _ in range(links):
            vco = VCoCompose(derived_refl_vty(hi), vco)
            dco = DCoCompose(derived_refl_dirt(dirt()), dco)
        return vco, dco

    for _ in range(2):
        vco, dco = family()
        assert check_vco(SIG, EMPTY_CONTEXT, vco) == (lo, hi)
        assert check_dco(SIG, EMPTY_CONTEXT, dco) == (dirt(), dirt())
        arrow = VCoArrow(vco, CCoercion(vco, DCoUnionBoth("Random", dco)))
        assert check_vco(SIG, EMPTY_CONTEXT, arrow) == (
            TyArrow(hi, CompType(lo, dirt(("Random",)))),
            TyArrow(lo, CompType(hi, dirt(("Random",)))))


def test_value_inclusion_coercion():
    lo = TyArrow(TyUnit(), CompType(TyUnit(), dirt()))
    hi = TyArrow(TyUnit(), CompType(TyUnit(), dirt(("Random",), None)))
    assert check_vco(SIG, CTX, value_inclusion_coercion(lo, hi)) == (lo, hi)
    with pytest.raises(NoWitness):
        value_inclusion_coercion(TyUnit(), TyBase("bit"))


def inclusion(sig, lo, hi):
    """`interned_inclusion` between `lo` and `hi`, interned first."""
    return interned_inclusion(sig, intern(sig.interned, lo), intern(sig.interned, hi))


def test_ground_inclusion_is_built_once_per_signature():
    """Equal endpoints, as distinct but equal objects, get the one coercion
    the signature built for them, equal to the builder's; an equal
    signature parsed anew builds its own."""
    sig = Signature(SIG.ops)
    lo, hi = dirt(("Random",)), dirt(("Random", "Fail"))
    got = inclusion(sig, lo, hi)
    assert got == dirt_inclusion_coercion(lo, hi)
    assert inclusion(sig, dirt(("Random",)), dirt(("Fail", "Random"))) is got
    vlo = TyArrow(TyUnit(), CompType(TyUnit(), dirt()))
    vhi = TyArrow(TyUnit(), CompType(TyUnit(), dirt(("Random",))))
    vgot = inclusion(sig, vlo, vhi)
    assert vgot == value_inclusion_coercion(vlo, vhi)
    assert inclusion(sig, TyArrow(TyUnit(), CompType(TyUnit(), dirt())),
                     TyArrow(TyUnit(), CompType(TyUnit(), dirt(("Random",))))) is vgot
    assert len(sig.ground_inclusions) == 2
    other = Signature(SIG.ops)
    assert other == sig and not other.ground_inclusions
    assert inclusion(other, lo, hi) == got


def test_ground_inclusion_remembers_a_missing_witness():
    """A pair of closed endpoints without a witness is decided once per
    signature and remembered as None, which each request returns."""
    sig = Signature(SIG.ops)
    inclusion(sig, dirt(()), dirt(("Random",)))
    before = dict(sig.ground_inclusions)
    pairs = [(dirt(("Fail",)), dirt(("Random",))), (TyUnit(), TyBase("bit"))]
    for lo, hi in pairs:
        with pytest.raises(NoWitness):
            (dirt_inclusion_coercion if isinstance(lo, Dirt) else value_inclusion_coercion)(lo, hi)
    for _ in range(2):
        assert all(inclusion(sig, lo, hi) is None for lo, hi in pairs)
    table = sig.interned
    missing = {(id(intern(table, lo)), id(intern(table, hi))): None for lo, hi in pairs}
    assert sig.ground_inclusions == {**before, **missing}


def test_check_cco():
    co = CCoercion(VCoParam("w1"), DCoParam("p1"))
    lo, hi = check_cco(SIG, CTX, co)
    assert lo == CompType(TyParam("a1"), dirt((), "d1"))
    assert hi == CompType(TyParam("a2"), dirt(("Random",), "d2"))


# ---------------------------------------------------------------------------
# typing


def test_type_of_value_lambda_and_var():
    body = Return(Var("x"))
    lam = Lam("x", TyParam("a1"), body)
    assert type_of_value(SIG, CTX, (), lam) == TyArrow(
        TyParam("a1"), CompType(TyParam("a1"), dirt()))
    with pytest.raises(UnknownName):
        type_of_value(SIG, CTX, (), Var("ghost"))


def test_type_of_value_cast():
    v = CastV(Var("x"), VCoParam("w1"))
    assert type_of_value(SIG, CTX, (("x", TyParam("a1")),), v) == TyParam("a2")
    with pytest.raises(TypeMismatch):
        type_of_value(SIG, CTX, (("x", TyParam("a2")),), v)


def test_return_is_pure():
    c = Return(UnitVal())
    assert type_of_comp(SIG, CTX, (), c) == CompType(TyUnit(), dirt())


def test_opcall_requires_op_in_dirt():
    cont = CastC(Return(Var("y")),
                 CCoercion(derived_refl_vty(TyBase("bit")),
                           derived_empty(dirt(("Random",), None))))
    c = OpCall("Random", UnitVal(), "y", TyBase("bit"), cont)
    assert type_of_comp(SIG, CTX, (), c) == CompType(
        TyBase("bit"), dirt(("Random",), None))
    # continuation dirt lacking the called operation is rejected
    bare = OpCall("Random", UnitVal(), "y", TyBase("bit"), Return(Var("y")))
    with pytest.raises(CheckError):
        type_of_comp(SIG, CTX, (), bare)


def test_do_requires_equal_dirts():
    pure = Return(UnitVal())
    noisy = CastC(Return(UnitVal()),
                  CCoercion(derived_refl_vty(TyUnit()),
                            derived_empty(dirt(("Fail",), None))))
    with pytest.raises(TypeMismatch):
        type_of_comp(SIG, CTX, (), Do("x", noisy, pure))
    ok = Do("x", noisy, CastC(Return(UnitVal()),
                              CCoercion(derived_refl_vty(TyUnit()),
                                        derived_empty(dirt(("Fail",), None)))))
    assert type_of_comp(SIG, CTX, (), ok) == CompType(TyUnit(), dirt(("Fail",), None))


def test_app_requires_exact_argument_type():
    f = Lam("x", TyUnit(), Return(Var("x")))
    assert type_of_comp(SIG, CTX, (), App(f, UnitVal())) == CompType(TyUnit(), dirt())
    g = Lam("x", TyParam("a1"), Return(Var("x")))
    with pytest.raises(TypeMismatch):
        type_of_comp(SIG, CTX, (), App(g, UnitVal()))


def test_castc_requires_exact_source():
    co = CCoercion(derived_refl_vty(TyUnit()), derived_empty(dirt((), "d1")))
    c = CastC(Return(UnitVal()), co)
    assert type_of_comp(SIG, CTX, (), c) == CompType(TyUnit(), dirt((), "d1"))
    again = CastC(c, co)
    with pytest.raises(TypeMismatch):
        type_of_comp(SIG, CTX, (), again)


def test_corpus_terms_typecheck_at_declared_types():
    for item in load_bundled():
        if item.term is None:
            continue
        got = type_of_value(item.signature, item.context, (), item.term)
        assert got == item.poltype, item.name
