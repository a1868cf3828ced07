"""Named mutants of the package, each a small change that a check should
catch.

A mutant names a file under `src/coersimp`, an anchor text that occurs
exactly once in `src/` (`tests/test_mutants.py` holds the list to that),
the text that replaces the anchor, and a one-line reason: what the
original code guarantees and the mutant breaks. Apply a mutant to a copy
of the repository, never to the working tree, and leave
`tests/test_mutants.py` out of its test run: no anchor of a mutated file
is there any more. A mutant marked as a known survivor passed every
tier-1 test when it was last run; each other one names the test that
killed it first (`tests/mutate.py` runs that one before the rest).
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    anchor: str
    replacement: str
    reason: str
    survives: bool = False
    killed_by: str | None = None  # pytest id of the test that kills it first


MUTANTS = (
    # -- phases and polarity
    Mutant(
        "bridge-out-order-swapped", "phases.py",
        "eta = {x.name: make(both_extend(x.ops, crossing), co(x.name)) for x in g.in_edges(node)}",
        "eta = {x.name: make(co(x.name), both_extend(x.ops, crossing)) for x in g.in_edges(node)}",
        "bridge-out runs each moved edge first and the crossing after it",
        killed_by="tests/test_acceptance.py::test_criterion_5_phase_properties"),
    Mutant(
        "full-survivor-misses-an-operation", "phases.py",
        "g.merge(node, SINK, full.ops)",
        "g.merge(node, SINK, full.ops - {max(full.ops)})",
        "a lower bound of a parameter grounded to the full dirt keeps every operation above it",
        killed_by="tests/test_phases.py::test_full_grounds_sink_param_keeping_lower_bounds"),
    Mutant(
        "final-type-rows-reversed", "phases.py",
        "ty_cos = tuple((e.name, TyParam(e.src), TyParam(e.dst)) for e in tg.all_edges())",
        "ty_cos = tuple((e.name, TyParam(e.dst), TyParam(e.src)) for e in tg.all_edges())",
        "the engine reads each type edge back as the constraint src <= dst",
        killed_by="tests/test_acceptance.py::test_criterion_1_apply_if_worked_example"),
    Mutant(
        "polarity-drops-the-dirt-tail", "polarity.py",
        "            return fp_dirt(sub.dirt[name])",
        "            return EMPTY_FPS",
        "a dirt parameter's polarity moves onto the tail of its image",
        killed_by="tests/test_acceptance.py::test_criterion_2_apply_randomly_worked_example"),
    Mutant(
        "compose-families-not-flipped", "polarity.py",
        "        out[name] = compose(g, f) if name in flipped else compose(f, g)",
        "        out[name] = compose(f, g)",
        "at a strictly negative name both entries point the other way, so `after` runs first",
        killed_by="tests/test_acceptance.py::test_criterion_5_phase_properties"),
    Mutant(
        "image-cache-ignores-the-label", "phases.py",
        "        key = (sort.name, target, ops)",
        "        key = (sort.name, target)",
        "a shared image is shared only by steps that map onto the same parameter and label",
        killed_by="tests/test_acceptance.py::test_criterion_5_phase_properties"),
    Mutant(
        "merge-drops-the-folded-label", "graph.py",
        "            e.dst, e.ops = target, e.ops | ops",
        "            e.dst = target",
        "an edge into a merged node gains the label the node folds into its target",
        killed_by="tests/test_acceptance.py::test_criterion_5_phase_properties"),
    Mutant(
        "tarjan-keeps-finished-indexes", "graph.py",
        "                        index[member] = done",
        "                        pass",
        "an edge into a finished component lowers no lowlink",
        killed_by="tests/test_acceptance.py::test_criterion_1_apply_if_worked_example"),
    # -- reduction and resolution
    Mutant(
        "phi-tc-guard-deleted", "reduce.py",
        '            raise Unsatisfiable(f"type constraint {name}: {lo} <= {hi}")',
        "            kept.append((name, lo, hi))",
        "a type constraint across skeletons is unsatisfiable, not kept",
        killed_by="tests/test_reduce.py::test_type_constraint_across_skeletons_is_unsatisfiable_without_wf_context"),
    Mutant(
        "resolver-skips-a-dirt-link", "subst.py",
        "            return DCoCompose(self.dco(g.after), self.dco(g.before))",
        "            return DCoCompose(self.dco(g.after), g.before)",
        "resolution rewrites both links of a dirt composition",
        killed_by="tests/test_subst.py::test_resolve_equals_composing_the_steps_one_by_one"),
    Mutant(
        "resolver-skips-a-value-link", "subst.py",
        "            return VCoCompose(self.vco(g.after), self.vco(g.before))",
        "            return VCoCompose(self.vco(g.after), g.before)",
        "resolution rewrites both links of a value composition",
        killed_by="tests/test_subst.py::test_resolve_equals_composing_the_steps_one_by_one"),
    Mutant(
        "resolver-skips-a-skeleton-image", "subst.py",
        "            sub.skel[n] = apply_skel(sub, s)",
        "            sub.skel[n] = s",
        "a skeleton image is rewritten by the later steps",
        killed_by="tests/test_subst.py::test_resolve_equals_composing_the_steps_one_by_one"),
    Mutant(
        "compose-at-drops-the-fallback", "subst.py",
        "        elif n in s2.ty:\n            out.ty[n] = s2.ty[n]\n",
        "",
        "a tracked type name the run did not map keeps the witness's own image",
        killed_by="tests/test_acceptance.py::test_criterion_5_phase_properties"),
    # -- validity checks
    Mutant(
        "validity-accepts-anything-after-the-first", "subst.py",
        "        if maps == self.accepted:",
        "        if self.accepted is not None:",
        "only a substitution equal to the last one that passed skips its rows",
        killed_by="tests/test_subst.py::test_prepared_check_agrees_with_the_reference_on_corpus_items"),
    Mutant(
        "validity-keeps-the-accepted-maps-by-reference", "subst.py",
        "        self.accepted = tuple(dict(m) for m in maps)",
        "        self.accepted = maps",
        "a passing substitution changed in place afterwards is checked again",
        killed_by="tests/test_subst.py::test_prepared_check_agrees_with_the_reference_on_corpus_items"),
    Mutant(
        "validity-upper-endpoint-not-compared", "subst.py",
        "                if got != want:\n                    _mismatch(name, got, want)",
        "                if got[0] != want[0]:\n                    _mismatch(name, got, want)",
        "a constraint's coercion must meet both bounds' images",
        killed_by="tests/test_subst.py::test_prepared_check_agrees_with_the_reference_on_corpus_items"),
    Mutant(
        "validity-memo-serves-another-coercion", "subst.py",
        "                known = ends.get(id(g))\n",
        "                known = ends.get(id(g)) or next(iter(ends.values()), None)\n",
        "a remembered coercion's endpoints serve only that object",
        killed_by="tests/test_acceptance.py::test_criterion_4_substitution_properties"),
    Mutant(
        "validity-reads-a-bare-tail-as-a-constant", "subst.py",
        "    return d, d.tail if not d.ops else None, None",
        "    return d, None, d if not d.ops else None",
        "a dirt that is a bare tail is read as its tail's image",
        killed_by="tests/test_acceptance.py::test_criterion_4_substitution_properties"),
    Mutant(
        "validity-arrow-classifiers-share-one-image", "subst.py",
        "                want = wants.get(id(skel))",
        "                want = next(iter(wants.values()), None)",
        "each compound classifier of a type parameter has its own image",
        killed_by="tests/test_subst.py::test_prepared_check_agrees_with_the_reference_on_bench_shapes"),
    # -- witness and reduction replay
    Mutant(
        "match-dirt-accepts-a-tail", "witness.py",
        "def _match_dirt(pattern: Dirt, ground: Dirt, eta: Substitution, interned: dict) -> None:\n"
        "    if ground.tail is not None:",
        "def _match_dirt(pattern: Dirt, ground: Dirt, eta: Substitution, interned: dict) -> None:\n"
        "    if False:",
        "an instantiation image matched against a dirt pattern is ground",
        killed_by="tests/test_witness.py::test_match_dirt_guards"),
    Mutant(
        "match-dirt-closed-mismatch-accepted", "witness.py",
        "        if pattern.ops != ground.ops:\n"
        '            raise WitnessBug(f"dirt mismatch: {pattern} vs {ground}")',
        "        if pattern.ops != ground.ops:\n            pass",
        "a closed dirt pattern matches only its own operations",
        killed_by="tests/test_witness.py::test_match_dirt_guards"),
    Mutant(
        "replay-accepts-a-kept-name-with-a-tail", "witness.py",
        "            elif ground.tail is not None:",
        "            elif False:",
        "the image of a dirt name reduction kept is ground",
        killed_by="tests/test_witness.py::test_replay_reduction_rejects_an_instantiation_that_does_not_factor"),
    Mutant(
        "replay-reads-a-bound-with-operations-by-its-tail", "subst.py",
        "    return d, d.tail if not d.ops else None, None",
        "    return d, d.tail, None",
        "only a bare tail's image is looked up; a bound with operations is substituted",
        killed_by="tests/test_acceptance.py::test_criterion_6_semantic_preservation_matrix"),
    Mutant(
        "zero-step-validity-check-deleted", "witness.py",
        "        plan.valid.check(wit.eta)",
        "        pass",
        "a witness's instantiation grounds the strengthened context, also at zero steps",
        killed_by="tests/test_semantics.py::test_verify_sample_checks_validity_twice_on_a_canonical_item"),
    # -- sampler
    Mutant(
        "sampler-refuses-an-unsatisfiable-context", "sample.py",
        "            self.least, self.unsat = None, str(exc)",
        "            raise",
        "a context without instantiations fails each draw, not the sampler",
        killed_by="tests/test_sample.py::test_prepared_sampler_fails_in_the_draw_with_the_reference_message"),
    Mutant(
        "sampler-writes-into-the-forced-content", "sample.py",
        "            sets[lo.tail] -= missing",
        "            sets[lo.tail] = least[lo.tail] = sets[lo.tail] - missing",
        "a draw reads the prepared tables and never changes them",
        killed_by="tests/test_sample.py::test_prepared_sampler_draws_as_one_shot_draws_on_corpus_items"),
    Mutant(
        "settle-drops-a-same-index-requeue", "sample.py",
        "            later.update(j for j in watchers.get(changed, ()) if j <= i)",
        "            later.update(j for j in watchers.get(changed, ()) if j < i)",
        "a repair that unsettles its own constraint examines it again next sweep",
        killed_by="tests/test_sample.py::test_settle_examines_again_a_constraint_its_own_repair_left_unsettled"),
    # -- verify
    Mutant(
        "verify-makes-a-sampler-per-sample", "cli.py",
        "            _verify_once(sampler, check, rng)",
        "            _verify_once(Sampler(item.signature, item.context, item.poltype,"
        " item.term), check, rng)",
        "a run prepares one sampler and draws every sample from it",
        killed_by="tests/test_semantics.py::test_verify_prepares_each_check_and_the_replay_once_per_run[none]"),
    Mutant(
        "verify-always-rechecks", "cli.py",
        "        if key not in outcomes:",
        "        if True:",
        "a draw equal to an earlier one takes that one's outcome",
        killed_by="tests/test_corpus_cli.py::test_cli_verify_lists_every_sample_of_a_remembered_failure"),
    Mutant(
        "verify-memo-shared-across-runs", "cli.py",
        "    outcomes: dict[tuple[int, ...], tuple | None] = {}",
        '    outcomes = cmd_verify.__dict__.setdefault("outcomes", {})',
        "outcomes are remembered for one run only",
        killed_by="tests/test_corpus_cli.py::test_cli_verify_small_item"),
    Mutant(
        "verify-remembers-a-failure-as-a-pass", "cli.py",
        "                outcomes[key] = (type(exc), exc.args)",
        "                outcomes[key] = None",
        "a failed draw fails every sample that draws it",
        killed_by="tests/test_corpus_cli.py::test_cli_verify_lists_a_failed_witness_check"),
    Mutant(
        "fingerprint-drops-the-dirt-map", "cli.py",
        "for part in (eta0.skel, eta0.dirt, eta0.ty, eta0.dco, eta0.vco)",
        "for part in (eta0.skel, eta0.ty, eta0.dco, eta0.vco)",
        "two draws share a fingerprint only if they are equal",
        killed_by="tests/test_semantics.py::test_fingerprints_are_equal_exactly_when_draws_are"),
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
        "the rewritten term is checked before erasure, as the check of the substitution layer",
        killed_by="tests/test_corpus_cli.py::test_cli_simplify_checks_the_rewrite_before_erasing_it"),
    # -- semantics
    Mutant(
        "arrow-cast-result-not-cast-up", "semantics.py",
        "        return _cast_tree(sig, src.cod.ty, dst.cod.ty, x.apply(arg), budget)",
        "        return x.apply(arg)",
        "an arrow cast casts the function's result up to the target",
        killed_by="tests/test_acceptance.py::test_criterion_6_semantic_preservation_matrix"),
    Mutant(
        "arrow-cast-tabulates-the-source-domain", "semantics.py",
        "        doms = enum_vty(sig, dst.dom, budget)",
        "        doms = enum_vty(sig, src.dom, budget)",
        "a cast function is tabulated over the target's domain",
        killed_by="tests/test_acceptance.py::test_criterion_6_semantic_preservation_matrix"),
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
        "a lift adds an operation to the upper side, so it is never reflexive",
        killed_by="tests/test_acceptance.py::test_criterion_3_corpus_metrics_against_goldens"),
    Mutant(
        "erase-drops-a-value-coercion-parameter", "subst.py",
        "    if isinstance(g, VCoParam):\n        return g, False",
        "    if isinstance(g, VCoParam):\n        return g, True",
        "a coercion parameter is an assumption, never a reflexivity",
        killed_by="tests/test_acceptance.py::test_criterion_3_corpus_metrics_against_goldens"),
    Mutant(
        "erase-keeps-refl-before-a-link", "subst.py",
        "    if a_refl:\n        return b, b_refl",
        "    if False:\n        return b, b_refl",
        "refl . c = c",
        killed_by="tests/test_erase.py::test_a_value_cast_by_a_reflexivity_is_dropped[co4]"),
    Mutant(
        "erase-keeps-refl-after-a-link", "subst.py",
        "    if b_refl:\n        return a, False",
        "    if False:\n        return a, False",
        "c . refl = c",
        killed_by="tests/test_erase.py::test_a_reflexive_value_link_leaves_the_other[refl0]"),
    Mutant(
        "erase-keeps-a-reflexive-cast", "subst.py",
        "        if refl:\n            return kids[0]",
        "        if False:\n            return kids[0]",
        "a cast by a reflexive coercion is dropped from the term",
        killed_by="tests/test_corpus_cli.py::test_cli_simplify_json_counts_the_coercions_left"),
    Mutant(
        "walk-term-skips-a-lam-annotation", "sample.py",
        "        _walk_domains(t.ty, acc, True)  # the whole annotation gets enumerated",
        "        pass",
        "evaluation enumerates a lambda's whole annotation, so its parameters stay enumerable",
        killed_by="tests/test_sample.py::test_buried_params_from_term_annotation"),
)
