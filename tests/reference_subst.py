"""Validity checking as it was before the prepared `ValidityCheck`, kept as
a test-only differential oracle.

Each call walks the source context row by row: it builds the parameter
that stands for an unmapped name, substitutes every classifier, and checks
every image from scratch, coercions included. `tests/test_subst.py` checks
that `coersimp.subst.check_validity` and a `ValidityCheck` used for many
substitutions raise the same error class with the same message, or both
pass.
"""

from __future__ import annotations

from coersimp.check import (
    CheckError,
    EndpointMismatch,
    SkeletonMismatch,
    check_dco,
    check_vco,
    wf_dirt,
    wf_skeleton,
    wf_vtype,
)
from coersimp.subst import UnmappedParam, apply_dirt, apply_skel, apply_vty
from coersimp.syntax import DCoParam, Dirt, SkelParam, TyParam, VCoParam


def check_validity(sig, src, sub, dst) -> None:
    """Check `sub : src -> dst`, left to right through `src`."""

    for name in src.skel_params:
        s = sub.skel.get(name)
        try:
            wf_skeleton(dst, SkelParam(name) if s is None else s)
        except CheckError as e:
            _fail(name, s is None, e)

    for name in src.dirt_params:
        d = sub.dirt.get(name)
        try:
            wf_dirt(sig, dst, Dirt(frozenset(), name) if d is None else d)
        except CheckError as e:
            _fail(name, d is None, e)

    for name, skel in src.ty_params:
        t = sub.ty.get(name)
        want = apply_skel(sub, skel)
        try:
            got = wf_vtype(sig, dst, TyParam(name) if t is None else t)
        except CheckError as e:
            _fail(name, t is None, e)
        else:
            if got != want:
                raise SkeletonMismatch(
                    f"image of {name} has skeleton {got}, classifier demands {want}"
                )

    for name, lo, hi in src.dirt_cos:
        g = sub.dco.get(name)
        want = (apply_dirt(sub, lo), apply_dirt(sub, hi))
        try:
            got = check_dco(sig, dst, DCoParam(name) if g is None else g)
        except CheckError as e:
            _fail(name, g is None, e)
        else:
            if got != want:
                raise EndpointMismatch(
                    f"image of {name} has endpoints {got[0]} <= {got[1]}, "
                    f"classifier demands {want[0]} <= {want[1]}"
                )

    for name, lo, hi in src.ty_cos:
        g = sub.vco.get(name)
        want = (apply_vty(sub, lo), apply_vty(sub, hi))
        try:
            got = check_vco(sig, dst, VCoParam(name) if g is None else g)
        except CheckError as e:
            _fail(name, g is None, e)
        else:
            if got != want:
                raise EndpointMismatch(
                    f"image of {name} has endpoints {got[0]} <= {got[1]}, "
                    f"classifier demands {want[0]} <= {want[1]}"
                )


def _fail(name: str, unmapped: bool, cause: CheckError):
    if unmapped:
        raise UnmappedParam(
            f"parameter {name} is unmapped and absent from the target context"
        ) from cause
    raise cause
