"""Coercion interpretation link by link, as it was before casts were read
off their endpoints, kept as a test-only differential oracle.

A composition is interpreted one link at a time, and every arrow link
re-tabulates the function over its own target domain, which it reads off
the link's spine. It assumes a checked coercion and does not check it.
`tests/test_semantics.py` checks that `coersimp.semantics` casts every
value that `verify` casts to the same value, and that two coercions with
equal endpoints denote the same function here (coherence).
"""

from __future__ import annotations

from coersimp.check import vco_endpoint
from coersimp.semantics import DomainTooLarge, EffFn, ModelBug, TreeReturn, enum_vty, graft
from coersimp.syntax import (
    CCoercion,
    Signature,
    VCoArrow,
    VCoCompose,
    VCoReflBase,
    VCoReflUnit,
    VCoercion,
)


def cast_comp(sig: Signature, co: CCoercion, tree, budget: int):
    # Widening the allowed operation set does not change the tree.
    return graft(tree, lambda v: TreeReturn(cast(sig, co.vco, v, budget)))


def cast(sig: Signature, co: VCoercion, x, budget: int):
    todo = [co]  # composition links, the next one to apply last
    while todo:
        node = todo.pop()
        if isinstance(node, VCoCompose):
            todo += (node.after, node.before)
        elif isinstance(node, VCoArrow):
            x = _cast_fn(sig, node, x, budget)
        elif not isinstance(node, (VCoReflUnit, VCoReflBase)):
            raise ModelBug(f"cannot interpret coercion {node}")
    return x


def _cast_fn(sig: Signature, co: VCoArrow, f, budget: int):
    if not isinstance(f, EffFn):
        raise ModelBug(f"arrow coercion on non-function {f!r}")

    def chain(a):
        return cast_comp(sig, co.res, f.apply(cast(sig, co.arg, a, budget)), budget)

    try:
        # The target's domain is the argument coercion's source.
        doms = enum_vty(sig, vco_endpoint(co.arg, upper=False), budget)
    except DomainTooLarge:
        return EffFn(None, f.skel, chain)
    return EffFn(tuple((a, chain(a)) for a in doms), f.skel)
