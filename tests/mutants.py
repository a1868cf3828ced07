"""Named mutants of the package, each a small change that a check should
catch.

A mutant names a file under `src/coersimp`, an anchor text that occurs
exactly once in `src/` (`tests/test_mutants.py` holds the list to that),
the text that replaces the anchor, and a one-line reason: what the
original code guarantees and the mutant breaks. Apply a mutant to a copy
of the repository, never to the working tree, and leave
`tests/test_mutants.py` out of its test run: no anchor of a mutated file
is there any more. A mutant marked as a known survivor passed every
tier-1 test when it was last run.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    anchor: str
    replacement: str
    reason: str
    survives: bool = False


MUTANTS = (
    # -- phases and polarity
    Mutant(
        "bridge-out-order-swapped", "phases.py",
        "eta = {x.name: make(both_extend(x.ops, crossing), co(x.name)) for x in g.in_edges(node)}",
        "eta = {x.name: make(co(x.name), both_extend(x.ops, crossing)) for x in g.in_edges(node)}",
        "bridge-out runs each moved edge first and the crossing after it"),
    Mutant(
        "full-survivor-misses-an-operation", "phases.py",
        "g.merge(node, SINK, full.ops)",
        "g.merge(node, SINK, full.ops - {max(full.ops)})",
        "a lower bound of a parameter grounded to the full dirt keeps every operation above it"),
    Mutant(
        "final-type-rows-reversed", "phases.py",
        "ty_cos = tuple((e.name, TyParam(e.src), TyParam(e.dst)) for e in tg.all_edges())",
        "ty_cos = tuple((e.name, TyParam(e.dst), TyParam(e.src)) for e in tg.all_edges())",
        "the engine reads each type edge back as the constraint src <= dst"),
    Mutant(
        "polarity-drops-the-dirt-tail", "polarity.py",
        "            return fp_dirt(sub.dirt[name])",
        "            return EMPTY_FPS",
        "a dirt parameter's polarity moves onto the tail of its image"),
    Mutant(
        "compose-families-not-flipped", "polarity.py",
        "        out[name] = compose(g, f) if name in flipped else compose(f, g)",
        "        out[name] = compose(f, g)",
        "at a strictly negative name both entries point the other way, so `after` runs first"),
    Mutant(
        "image-cache-ignores-the-label", "phases.py",
        "        key = (sort.name, target, ops)",
        "        key = (sort.name, target)",
        "a shared image is shared only by steps that map onto the same parameter and label"),
    Mutant(
        "merge-drops-the-folded-label", "graph.py",
        "            e.dst, e.ops = target, e.ops | ops",
        "            e.dst = target",
        "an edge into a merged node gains the label the node folds into its target"),
    Mutant(
        "tarjan-keeps-finished-indexes", "graph.py",
        "                        index[member] = done",
        "                        pass",
        "an edge into a finished component lowers no lowlink"),
    # -- reduction and resolution
    Mutant(
        "phi-tc-guard-deleted", "reduce.py",
        '            raise Unsatisfiable(f"type constraint {name}: {lo} <= {hi}")',
        "            kept.append((name, lo, hi))",
        "a type constraint across skeletons is unsatisfiable, not kept"),
    Mutant(
        "resolver-skips-a-dirt-link", "subst.py",
        "            return DCoCompose(self.dco(g.after), self.dco(g.before))",
        "            return DCoCompose(self.dco(g.after), g.before)",
        "resolution rewrites both links of a dirt composition"),
    Mutant(
        "resolver-skips-a-value-link", "subst.py",
        "            return VCoCompose(self.vco(g.after), self.vco(g.before))",
        "            return VCoCompose(self.vco(g.after), g.before)",
        "resolution rewrites both links of a value composition"),
    Mutant(
        "resolver-skips-a-skeleton-image", "subst.py",
        "            sub.skel[n] = apply_skel(sub, s)",
        "            sub.skel[n] = s",
        "a skeleton image is rewritten by the later steps"),
    Mutant(
        "compose-at-drops-the-fallback", "subst.py",
        "        elif n in s2.ty:\n            out.ty[n] = s2.ty[n]\n",
        "",
        "a tracked type name the run did not map keeps the witness's own image"),
    # -- validity checks
    Mutant(
        "validity-accepts-anything-after-the-first", "subst.py",
        "        if maps == self.accepted:",
        "        if self.accepted is not None:",
        "only a substitution equal to the last one that passed skips its rows"),
    Mutant(
        "validity-keeps-the-accepted-maps-by-reference", "subst.py",
        "        self.accepted = tuple(dict(m) for m in maps)",
        "        self.accepted = maps",
        "a passing substitution changed in place afterwards is checked again"),
    Mutant(
        "validity-upper-endpoint-not-compared", "subst.py",
        "                if got != want:\n                    _mismatch(name, got, want)",
        "                if got[0] != want[0]:\n                    _mismatch(name, got, want)",
        "a constraint's coercion must meet both bounds' images"),
    Mutant(
        "validity-memo-serves-another-coercion", "subst.py",
        "                known = ends.get(id(g))\n",
        "                known = ends.get(id(g)) or next(iter(ends.values()), None)\n",
        "a remembered coercion's endpoints serve only that object"),
    Mutant(
        "validity-reads-a-bare-tail-as-a-constant", "subst.py",
        "    return d, d.tail if not d.ops else None, None",
        "    return d, None, d if not d.ops else None",
        "a dirt that is a bare tail is read as its tail's image"),
    Mutant(
        "validity-arrow-classifiers-share-one-image", "subst.py",
        "                want = wants.get(id(skel))",
        "                want = next(iter(wants.values()), None)",
        "each compound classifier of a type parameter has its own image"),
    # -- witness and reduction replay
    Mutant(
        "match-dirt-accepts-a-tail", "witness.py",
        "def _match_dirt(pattern: Dirt, ground: Dirt, eta: Substitution, interned: dict) -> None:\n"
        "    if ground.tail is not None:",
        "def _match_dirt(pattern: Dirt, ground: Dirt, eta: Substitution, interned: dict) -> None:\n"
        "    if False:",
        "an instantiation image matched against a dirt pattern is ground"),
    Mutant(
        "match-dirt-closed-mismatch-accepted", "witness.py",
        "        if pattern.ops != ground.ops:\n"
        '            raise WitnessBug(f"dirt mismatch: {pattern} vs {ground}")',
        "        if pattern.ops != ground.ops:\n            pass",
        "a closed dirt pattern matches only its own operations"),
    Mutant(
        "replay-accepts-a-kept-name-with-a-tail", "witness.py",
        "            elif ground.tail is not None:",
        "            elif False:",
        "the image of a dirt name reduction kept is ground"),
    Mutant(
        "replay-reads-a-bound-with-operations-by-its-tail", "witness.py",
        "    if isinstance(bound, Dirt) and not bound.ops:",
        "    if isinstance(bound, Dirt):",
        "only a bare tail's image is looked up; a bound with operations is substituted"),
    Mutant(
        "zero-step-validity-check-deleted", "witness.py",
        "        plan.valid.check(wit.eta)",
        "        pass",
        "a witness's instantiation grounds the strengthened context, also at zero steps"),
    # -- sampler
    Mutant(
        "sampler-refuses-an-unsatisfiable-context", "sample.py",
        "            self.least, self.unsat = None, str(exc)",
        "            raise",
        "a context without instantiations fails each draw, not the sampler"),
    Mutant(
        "sampler-writes-into-the-forced-content", "sample.py",
        "            sets[lo.tail] -= missing",
        "            sets[lo.tail] = least[lo.tail] = sets[lo.tail] - missing",
        "a draw reads the prepared tables and never changes them"),
    Mutant(
        "settle-drops-a-same-index-requeue", "sample.py",
        "            later.update(j for j in watchers.get(changed, ()) if j <= i)",
        "            later.update(j for j in watchers.get(changed, ()) if j < i)",
        "a repair that unsettles its own constraint examines it again next sweep"),
    # -- verify
    Mutant(
        "verify-makes-a-sampler-per-sample", "cli.py",
        "            _verify_once(sampler, check, rng)",
        "            _verify_once(Sampler(item.signature, item.context, item.poltype,"
        " item.term), check, rng)",
        "a run prepares one sampler and draws every sample from it"),
    Mutant(
        "verify-always-rechecks", "cli.py",
        "        if key not in outcomes:",
        "        if True:",
        "a draw equal to an earlier one takes that one's outcome"),
    Mutant(
        "verify-memo-shared-across-runs", "cli.py",
        "    outcomes: dict[tuple[int, ...], tuple | None] = {}",
        '    outcomes = cmd_verify.__dict__.setdefault("outcomes", {})',
        "outcomes are remembered for one run only"),
    Mutant(
        "verify-remembers-a-failure-as-a-pass", "cli.py",
        "                outcomes[key] = (type(exc), exc.args)",
        "                outcomes[key] = None",
        "a failed draw fails every sample that draws it"),
    Mutant(
        "fingerprint-drops-the-dirt-map", "cli.py",
        "for part in (eta0.skel, eta0.dirt, eta0.ty, eta0.dco, eta0.vco)",
        "for part in (eta0.skel, eta0.ty, eta0.dco, eta0.vco)",
        "two draws share a fingerprint only if they are equal"),
    Mutant(
        "fingerprint-drops-the-vco-map", "cli.py",
        "for part in (eta0.skel, eta0.dirt, eta0.ty, eta0.dco, eta0.vco)",
        "for part in (eta0.skel, eta0.dirt, eta0.ty, eta0.dco)",
        "equal fingerprints mean equal draws; over the sampler's draws a coercion follows"
        " from its images",
        survives=True),
    Mutant(
        "simplify-typechecks-only-the-erased-term", "cli.py",
        '        _typecheck(item, sim, rewritten, new_ty, "rewritten")\n'
        "        if new_term is not rewritten:\n"
        '            _typecheck(item, sim, new_term, new_ty, "erased")',
        '        _typecheck(item, sim, new_term, new_ty, "erased")',
        "the rewritten term is checked before erasure, as the check of the substitution layer"),
    # -- semantics
    Mutant(
        "arrow-cast-result-not-cast-up", "semantics.py",
        "        return _cast_tree(sig, src.cod.ty, dst.cod.ty, x.apply(arg), budget)",
        "        return x.apply(arg)",
        "an arrow cast casts the function's result up to the target"),
    Mutant(
        "arrow-cast-tabulates-the-source-domain", "semantics.py",
        "        doms = enum_vty(sig, dst.dom, budget)",
        "        doms = enum_vty(sig, src.dom, budget)",
        "a cast function is tabulated over the target's domain"),
    Mutant(
        "arrow-cast-argument-not-cast-down", "semantics.py",
        "        arg = _cast(sig, dst.dom, src.dom, a, budget)",
        "        arg = a",
        "tier-1 compares only where the uncast argument gives the same tables",
        survives=True),
    # -- erasure and the sampler's walk
    Mutant(
        "erase-lift-right-as-reflexive", "subst.py",
        "                refl and isinstance(g, DCoUnionBoth))",
        "                refl)",
        "a lift adds an operation to the upper side, so it is never reflexive"),
    Mutant(
        "erase-drops-a-value-coercion-parameter", "subst.py",
        "    if isinstance(g, VCoParam):\n        return g, False",
        "    if isinstance(g, VCoParam):\n        return g, True",
        "a coercion parameter is an assumption, never a reflexivity"),
    Mutant(
        "erase-keeps-refl-before-a-link", "subst.py",
        "    if a_refl:\n        return b, b_refl",
        "    if False:\n        return b, b_refl",
        "refl . c = c"),
    Mutant(
        "erase-keeps-refl-after-a-link", "subst.py",
        "    if b_refl:\n        return a, False",
        "    if False:\n        return a, False",
        "c . refl = c"),
    Mutant(
        "erase-keeps-a-reflexive-cast", "subst.py",
        "        if refl:\n            return kids[0]",
        "        if False:\n            return kids[0]",
        "a cast by a reflexive coercion is dropped from the term"),
    Mutant(
        "walk-term-skips-a-lam-annotation", "sample.py",
        "        _walk_domains(t.ty, acc, True)  # the whole annotation gets enumerated",
        "        pass",
        "evaluation enumerates a lambda's whole annotation, so its parameters stay enumerable"),
)
