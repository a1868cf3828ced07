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
killed it first (`tests/mutate.py` runs that one before the rest, and
counts the mutant as agreeing only when that test kills it).
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
    # -- derived coercions, phases and polarity
    Mutant(
        "extend-dirt-extends-only-the-upper-side", "check.py",
        "    return both_extend(d.ops, DCoReflEmpty() if d.tail is None else at(d.tail))",
        "    return right_extend(d.ops, DCoReflEmpty() if d.tail is None else at(d.tail))",
        "the extension over a dirt adds its operations to both endpoints",
        killed_by="tests/test_polarity.py::test_reflexivity_is_the_extension_of_each_parameters_reflexivity"),
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
    # -- application and composition
    Mutant(
        "apply-arrow-keeps-a-changed-codomain", "syntax.py",
        '            same=" and ".join(f"{n} is self.{n}" for n in kids),',
        '            same=" and ".join(f"{n} is self.{n}" for n in kids if n != "cod"),',
        "an arrow type is kept only when neither its domain nor its codomain changed",
        killed_by="tests/test_subst.py::test_appliers_share_what_they_do_not_change_on_random_syntax"),
    Mutant(
        "apply-cco-keeps-a-changed-dirt", "syntax.py",
        '            same=" and ".join(f"{n} is self.{n}" for n in kids),',
        '            same=" and ".join(f"{n} is self.{n}" for n in kids if n != "dco"),',
        "a computation coercion is kept only when neither of its parts changed",
        killed_by="tests/test_subst.py::test_appliers_share_what_they_do_not_change_on_random_syntax"),
    Mutant(
        "apply-lam-keeps-a-changed-body", "syntax.py",
        '            same=" and ".join(f"{n} is self.{n}" for n in kids),',
        '            same=" and ".join(f"{n} is self.{n}" for n in kids if n != "body"),',
        "a function is kept only when neither its annotation nor its body changed",
        killed_by="tests/test_subst.py::test_appliers_share_what_they_do_not_change_on_corpus_items"),
    Mutant(
        "rebuild-keeps-a-node-when-any-child-is-kept", "syntax.py",
        '            same=" and ".join(f"{n} is self.{n}" for n in kids),',
        '            same=" or ".join(f"{n} is self.{n}" for n in kids),',
        "a node is kept only when every child is its own image",
        killed_by="tests/test_syntax.py::test_rebuild_maps_the_children_and_passes_the_atoms_through"),
    Mutant(
        "apply-drops-the-dirt-reflexivity-row", "subst.py",
        "    DCoReflParam: lambda sub, g: derived_refl_dirt(sub.dirt[g.name]) if g.name in sub.dirt else g,\n",
        "",
        "the reflexivity of a mapped dirt parameter becomes the derived reflexivity of its image",
        killed_by="tests/test_subst.py::test_appliers_share_what_they_do_not_change_on_random_syntax"),
    Mutant(
        "compose-skips-a-later-substitution", "subst.py",
        "    if not any(s2.maps()):",
        "    if any(s2.maps()):",
        "only a later substitution that maps nothing leaves the earlier one's images as they are",
        killed_by="tests/test_subst.py::test_compose_after_an_empty_substitution_walks_nothing"),
    # -- reduction and resolution
    Mutant(
        "phi-tc-guard-deleted", "reduce.py",
        '            raise Unsatisfiable(f"type constraint {name}: {lo} <= {hi}")',
        "            kept.append((name, lo, hi))",
        "a type constraint across skeletons is unsatisfiable, not kept",
        killed_by="tests/test_reduce.py::test_type_constraint_across_skeletons_is_unsatisfiable_without_wf_context"),
    Mutant(
        "resolver-skips-a-dirt-link", "subst.py",
        "        return g.rebuild(_Resolver.walk, self)",
        "        return (DCoCompose(self.walk(g.after), g.before) if cls is DCoCompose\n"
        "                else g.rebuild(_Resolver.walk, self))",
        "resolution rewrites both links of a dirt composition",
        killed_by="tests/test_subst.py::test_resolve_equals_composing_the_steps_one_by_one"),
    Mutant(
        "resolver-skips-a-value-link", "subst.py",
        "        return g.rebuild(_Resolver.walk, self)",
        "        return (VCoCompose(self.walk(g.after), g.before) if cls is VCoCompose\n"
        "                else g.rebuild(_Resolver.walk, self))",
        "resolution rewrites both links of a value composition",
        killed_by="tests/test_subst.py::test_resolve_equals_composing_the_steps_one_by_one"),
    Mutant(
        "resolver-skips-a-skeleton-image", "subst.py",
        "            skels[n] = apply(sub, x)",
        "            skels[n] = x",
        "a skeleton image is rewritten by the later steps",
        killed_by="tests/test_subst.py::test_resolve_equals_composing_the_steps_one_by_one"),
    Mutant(
        "resolver-rebuilds-an-unchanged-union", "subst.py",
        "        return g.rebuild(_Resolver.walk, self)",
        "        return (type(g)(g.op, self.walk(g.body)) if cls in (DCoUnionBoth, DCoUnionRight)\n"
        "                else g.rebuild(_Resolver.walk, self))",
        "a resolved image shares every node under which no later move maps a name",
        killed_by="tests/test_subst.py::test_resolve_keeps_a_logged_image_whose_parts_no_later_move_maps"),
    Mutant(
        "stage-one-image-drops-the-arrow-dirt", "reduce.py",
        "CompType(step.cod.ty if cod is None else cod, step.cod.dirt))",
        "CompType(step.cod.ty if cod is None else cod, Dirt(NO_OPS, None)))",
        "the stage-1 image of a nested arrow keeps each arrow's fresh dirt",
        killed_by="tests/test_reduce.py::test_reduce_matches_reference_on_structural_shapes"),
    Mutant(
        "absorption-left-out-of-the-log", "reduce.py",
        '        log += "dirt", d2, image\n',
        "",
        "every absorption move is in the log that the total substitution is resolved from",
        killed_by="tests/test_reduce.py::test_reduce_matches_reference_on_structural_shapes"),
    Mutant(
        "phase-log-drops-the-coercions", "phases.py",
        "            log += sort.cos, n, x",
        "            pass",
        "the phase log holds each step's coercions as well as its parameter images",
        killed_by="tests/test_phases.py::test_resolution_derives_only_the_dirt_coercions_an_image_mentions"),
    Mutant(
        "phase-step-slice-ends-a-move-early", "phases.py",
        "info, log, start, len(log), fps, eta, family)",
        "info, log, start, len(log) - 3, fps, eta, family)",
        "a step's slice of the run's log ends after its last move",
        killed_by="tests/test_phases.py::test_phase_run_logs_each_move_once"),
    Mutant(
        "witness-replay-skips-a-steps-first-move", "witness.py",
        "    for i in range(step.start, step.stop, 3):",
        "    for i in range(step.start + 3, step.stop, 3):",
        "the replay drops the ground image of every name the step maps",
        killed_by="tests/test_witness.py::test_witness_matches_reference_on_corpus"),
    Mutant(
        "compose-at-drops-the-fallback", "subst.py",
        "            elif n in later:\n                part[n] = later[n]\n",
        "",
        "a tracked name the run did not map keeps the witness's own image",
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
    Mutant(
        "ground-reads-the-upper-image-for-the-lower", "subst.py",
        "co = cos[name] = interned_inclusion(sig, glo, ghi)",
        "co = cos[name] = interned_inclusion(sig, ghi, ghi)",
        "each constraint's coercion runs from its lower bound's image to its upper one's",
        killed_by="tests/test_subst.py::test_ground_fills_the_coercions_dirt_rows_first_in_context_order"),
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
    Mutant(
        "join-keeps-the-bound-at-the-domain", "sample.py",
        "_join_vty(a.dom, b.dom, table, not up)",
        "_join_vty(a.dom, b.dom, table, up)",
        "an arrow is contravariant in its domain, so its domains take the other bound",
        killed_by="tests/test_sample.py::test_join_and_meet_of_arrows_flip_at_the_domain[join]"),
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
        "for part in (eta0.skel, eta0.dirt, eta0.ty)",
        "for part in (eta0.skel, eta0.ty)",
        "two draws share a fingerprint only if they are equal",
        killed_by="tests/test_semantics.py::test_fingerprints_are_equal_exactly_when_draws_are"),
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
        "an arrow cast hands its function each argument cast down to the function's domain",
        killed_by="tests/test_semantics.py::test_arrow_cast_casts_each_argument_down"),
    # -- erasure and the sampler's walk
    Mutant(
        "erase-lift-right-as-reflexive", "subst.py",
        "_REFLEXIVE_IF_ALL = {VCoArrow, CCoercion, DCoUnionBoth}",
        "from .syntax import DCoUnionRight\n"
        "_REFLEXIVE_IF_ALL = {VCoArrow, CCoercion, DCoUnionBoth, DCoUnionRight}",
        "a lift adds an operation to the upper side, so it is never reflexive",
        killed_by="tests/test_acceptance.py::test_criterion_3_corpus_metrics_against_goldens"),
    Mutant(
        "erase-drops-a-value-coercion-parameter", "subst.py",
        "_REFLEXIVE = {VCoReflParam,",
        "_REFLEXIVE = {VCoParam, VCoReflParam,",
        "a coercion parameter is an assumption, never a reflexivity",
        killed_by="tests/test_acceptance.py::test_criterion_3_corpus_metrics_against_goldens"),
    Mutant(
        "erase-keeps-refl-before-a-link", "subst.py",
        "        if a_refl:\n            return before",
        "        if False:\n            return before",
        "refl . c = c",
        killed_by="tests/test_erase.py::test_a_reflexive_value_link_leaves_the_other[refl0]"),
    Mutant(
        "erase-keeps-refl-after-a-link", "subst.py",
        "        if b_refl:\n            return after",
        "        if False:\n            return after",
        "c . refl = c",
        killed_by="tests/test_erase.py::test_a_reflexive_value_link_leaves_the_other[refl0]"),
    Mutant(
        "erase-keeps-a-reflexive-cast", "subst.py",
        "    if cls in _CASTS and parts[1]:",
        "    if False:",
        "a cast by a reflexive coercion is dropped from the term",
        killed_by="tests/test_corpus_cli.py::test_cli_simplify_json_counts_the_coercions_left"),
    Mutant(
        "walk-term-skips-a-lam-annotation", "sample.py",
        "        _walk_domains(t.ty, acc, True)  # the whole annotation gets enumerated",
        "        pass",
        "evaluation enumerates a lambda's whole annotation, so its parameters stay enumerable",
        killed_by="tests/test_sample.py::test_buried_params_from_term_annotation"),
    # -- the checker's input guards
    Mutant(
        "union-right-extends-the-lower-end", "check.py",
        "lo.with_ops({g.op}) if type(g) is DCoUnionBoth else lo",
        "lo.with_ops({g.op})",
        "a lift adds its operation to the upper end only",
        killed_by="tests/test_check.py::test_check_dco_derived_forms"),
    Mutant(
        "check-drops-the-duplicate-op-guard", "check.py",
        '            raise IllFormed(f"duplicate operation {name}")',
        "            pass",
        "a signature declares each operation once",
        killed_by="tests/test_corpus_cli.py::test_judgment_error_carries_the_checkers_message[duplicate-op]"),
    Mutant(
        "check-drops-the-open-op-argument-guard", "check.py",
        "        if not is_closed_vty(entry.arg):",
        "        if False:",
        "an operation's argument type mentions no parameter",
        killed_by="tests/test_corpus_cli.py::test_judgment_error_carries_the_checkers_message[open-op-argument]"),
    Mutant(
        "check-drops-the-opcall-unknown-op-guard", "check.py",
        "        if entry is None:",
        "        if False:",
        "an operation call names an operation of the signature",
        killed_by="tests/test_corpus_cli.py::test_judgment_error_carries_the_checkers_message[opcall-unknown-op]"),
    Mutant(
        "check-drops-the-opcall-argument-type-guard", "check.py",
        "        if a != entry.arg:",
        "        if False:",
        "an operation call's argument has the operation's argument type",
        killed_by="tests/test_corpus_cli.py::test_judgment_error_carries_the_checkers_message[opcall-argument-type]"),
    Mutant(
        "check-drops-the-opcall-bind-type-guard", "check.py",
        "        if c.bind_ty != entry.result:",
        "        if False:",
        "an operation call binds the operation's result type",
        killed_by="tests/test_corpus_cli.py::test_judgment_error_carries_the_checkers_message[opcall-bind-type]"),
    Mutant(
        "check-drops-the-app-non-function-guard", "check.py",
        "        if not isinstance(f, TyArrow):",
        "        if False:",
        "only a function is applied",
        killed_by="tests/test_corpus_cli.py::test_judgment_error_carries_the_checkers_message[app-non-function]"),
    Mutant(
        "check-drops-the-drefl-unknown-dirt-guard", "check.py",
        "        if g.name not in ctx.dirt_param_set:",
        "        if False:",
        "a dirt parameter's reflexivity names a declared dirt parameter",
        killed_by="tests/test_corpus_cli.py::test_judgment_error_carries_the_checkers_message[drefl-unknown-dirt]"),
    Mutant(
        "check-drops-the-dempty-unknown-dirt-guard", "check.py",
        "        if g.tail not in ctx.dirt_param_set:",
        "        if False:",
        "an empty-below coercion names a declared dirt parameter",
        killed_by="tests/test_corpus_cli.py::test_judgment_error_carries_the_checkers_message[dempty-unknown-dirt]"),
    Mutant(
        "check-drops-the-corefl-unknown-type-guard", "check.py",
        "        if ctx.ty_param_skeleton(g.name) is None:",
        "        if False:",
        "a type parameter's reflexivity names a declared type parameter",
        killed_by="tests/test_corpus_cli.py::test_judgment_error_carries_the_checkers_message[corefl-unknown-type]"),
    Mutant(
        "check-drops-the-dempty-unknown-op-guard", "check.py",
        "        if g.op not in sig:",
        "        if False:",
        "a union coercion adds an operation of the signature",
        killed_by="tests/test_corpus_cli.py::test_judgment_error_carries_the_checkers_message[dempty-unknown-op]"),
    # -- guards that the API reaches, and the model's preconditions
    Mutant(
        "phases-reads-an-empty-custom-chunk", "phases.py",
        "        if not chunk:",
        "        if False:",
        "an empty chunk of a custom phase list names no phase",
        killed_by="tests/test_phases.py::test_parse_custom"),
    Mutant(
        "phases-drops-the-canonical-context-guard", "phases.py",
        "        if not is_canonical(ctx):",
        "        if False:",
        "the phases run on a canonical context only",
        killed_by="tests/test_phases.py::test_parse_custom"),
    Mutant(
        "phases-drops-the-unknown-phase-guard", "phases.py",
        "        if phase not in _PHASES:",
        "        if False:",
        "an unknown phase name is a `ValueError`, not a `KeyError`",
        killed_by="tests/test_phases.py::test_parse_custom"),
    Mutant(
        "verify-drops-the-no-term-guard", "cli.py",
        '        raise ValueError(f"item {item.name} has no term")',
        "        pass",
        "only an item with a term is verified",
        killed_by="tests/test_corpus_cli.py::test_cli_verify_small_item"),
    Mutant(
        "vco-endpoint-drops-the-ground-guard", "check.py",
        '    raise IllFormed(f"not a ground value coercion: {g!r}")',
        "    pass",
        "a value coercion over a parameter has no endpoint to read",
        killed_by="tests/test_check.py::test_endpoints_refuse_a_coercion_that_is_not_ground"),
    Mutant(
        "dco-endpoint-drops-the-ground-guard", "check.py",
        "        if not isinstance(g, (DCoUnionBoth, DCoUnionRight)):",
        "        if False:",
        "a dirt coercion over a parameter has no endpoint to read",
        killed_by="tests/test_check.py::test_endpoints_refuse_a_coercion_that_is_not_ground"),
    Mutant(
        "sample-grounds-a-skeleton-parameter", "sample.py",
        '    raise SampleError(f"cannot ground skeleton {s}")',
        "    pass",
        "a skeleton parameter has no ground type",
        killed_by="tests/test_sample.py::test_a_skeleton_parameter_has_no_ground_type"),
    Mutant(
        "default-skel-of-a-parameter", "semantics.py",
        '    raise ModelBug(f"not a ground skeleton: {s}")',
        "    pass",
        "the model has no inhabitant of a skeleton parameter",
        killed_by="tests/test_semantics.py::test_the_model_refuses_a_parameter[default_skel]"),
    Mutant(
        "enum-of-a-parameter", "semantics.py",
        '    raise DomainTooLarge(f"cannot enumerate {t}")',
        "    pass",
        "the model has no carrier for a type parameter",
        killed_by="tests/test_semantics.py::test_the_model_refuses_a_parameter[enum_vty]"),
    Mutant(
        "equal-skel-at-a-parameter", "semantics.py",
        '    raise ModelBug(f"not a closed type: {t}")',
        "    pass",
        "the model compares values at a closed type only",
        killed_by="tests/test_semantics.py::test_the_model_refuses_a_parameter[equal_skel_at]"),
    # -- value classes
    Mutant(
        "value-eq-ignores-the-class", "syntax.py",
        "    if other.__class__ is self.__class__:",
        '    if getattr(other, "__match_args__", None) == self.__match_args__:',
        "a node equals only a node of its own class, so `TyUnit()` is not `SkelUnit()`",
        killed_by="tests/test_syntax.py::test_value_classes_agree_with_their_dataclass_twins"),
    Mutant(
        "value-hash-drops-the-last-field", "syntax.py",
        "    return hash(({own}))",
        "    return hash(({own})[:-1])",
        "a node hashes as the tuple of all its fields, as a dataclass does",
        killed_by="tests/test_syntax.py::test_value_classes_agree_with_their_dataclass_twins"),
    Mutant(
        "value-setattr-assigns", "syntax.py",
        "    raise FrozenInstanceError(f\"cannot {'assign to' if value else 'delete'} field {name!r}\")",
        "    object.__setattr__(self, name, *value) if value else object.__delattr__(self, name)",
        "a node is frozen: assigning or deleting a field raises",
        killed_by="tests/test_syntax.py::test_value_fields_cannot_be_assigned_or_deleted"),
    Mutant(
        "value-eq-by-identity-only", "syntax.py",
        'same=" and ".join(f"(self.{n} is other.{n} or self.{n} == other.{n})" for n in names)',
        'same=" and ".join(f"(self.{n} is other.{n})" for n in names)',
        "equal fields of two nodes make them equal, whether or not they are one object",
        killed_by="tests/test_syntax.py::test_value_classes_agree_with_their_dataclass_twins"),
    Mutant(
        "atom-annotation-dropped", "syntax.py",
        'ATOM_FIELDS = ("str", "str | None", "frozenset[str]")',
        'ATOM_FIELDS = ("str", "frozenset[str]")',
        "a field annotated as an atom is passed through, never handed to `rebuild`'s function",
        killed_by="tests/test_syntax.py::test_rebuild_maps_the_children_and_passes_the_atoms_through"),
    Mutant(
        "arrow-type-prints-with-an-f-string", "syntax.py",
        '        source += _STR.format(shows=body["__str__"], own=own)',
        '        source += "def __str__(self):\\n    return f%r\\n" % (body["__str__"]'
        '.replace("{", "{{").replace("}", "}}") % tuple(f"{{self.{n}}}" for n in names),)',
        "printing takes two frames a nesting level, so the deepest item prints",
        killed_by="tests/test_erase.py::test_simplify_erases_terms_nested_as_deep_as_the_reader_allows[result]"),
    Mutant(
        "generated-str-drops-the-last-field", "syntax.py",
        "    return {shows!r} % ({own})",
        '    return {shows!r} % (({own})[:-1] + ("",))',
        "a node prints every one of its fields",
        killed_by="tests/test_syntax.py::test_printing"),
    # -- corpus reader
    Mutant(
        "corpus-item-error-skips-the-bracket-check", "corpus.py",
        "    for _ in elements:  # a parenthesis error later in the text wins",
        "    for _ in ():  # a parenthesis error later in the text wins",
        "a parenthesis error anywhere in the text wins over an earlier item's error",
        killed_by="tests/test_corpus_cli.py::test_a_later_parenthesis_error_wins_over_an_earlier_item_error"),
    Mutant(
        "corpus-dirt-builds-a-fresh-empty-set", "corpus.py",
        "frozenset(ops) if ops else NO_OPS",
        "frozenset(ops)",
        "every parsed dirt without operations holds the one empty operation set",
        killed_by="tests/test_corpus_cli.py::test_a_parse_holds_one_object_per_atom_and_one_empty_operation_set"),
    Mutant(
        "corpus-keeps-the-last-item-lists", "corpus.py",
        "            del node  # the lists of an item are not kept while the next is read",
        "            pass",
        "the lists of an item are dropped before the next item is read",
        killed_by="tests/test_corpus_cli.py::test_the_parse_drops_the_lists_of_each_item_before_reading_the_next"),
    Mutant(
        "reader-splits-at-any-whitespace", "corpus.py",
        '.replace("(", " ( ").replace(")", " ) ").split(" "))',
        '.replace("(", " ( ").replace(")", " ) ").split())',
        "form feed, vertical tab and the Unicode spaces are atom characters",
        killed_by="tests/test_corpus_cli.py::test_reader_matches_reference_on_inserted_blanks"),
    Mutant(
        "reader-keeps-comment-text", "corpus.py",
        '        block = _COMMENT.sub("", block)',
        "        pass",
        "a `;` comment runs to the end of its line and yields no token",
        killed_by="tests/test_corpus_cli.py::test_block_tokenizer_matches_the_token_pattern"),
    Mutant(
        "form-accepts-too-few-arguments", "corpus.py",
        "    if len(node) != size:",
        "    if len(node) > size:",
        "a form with fewer arguments than its head takes is a diagnostic, not an IndexError",
        killed_by="tests/test_corpus_cli.py::test_reader_matches_reference_on_edge_cases"),
    Mutant(
        "coseq-reads-first-first", "corpus.py",
        '"coseq": (VCoCompose, (2, "VCoercion"), (1, "VCoercion"))',
        '"coseq": (lambda first, second: VCoCompose(second, first), "VCoercion", "VCoercion")',
        "`coseq` reads its SECOND argument first, so SECOND's diagnostic wins",
        killed_by="tests/test_corpus_cli.py::test_reader_matches_reference_on_edge_cases"),
    Mutant(
        "cco-head-not-checked", "corpus.py",
        '"CCoercion": (None, {"cco": CCoercion}),',
        '"CCoercion": ("computation coercion", {"cco": CCoercion}),',
        "a computation coercion is read only as `(cco ...)`, checked where it is an argument",
        killed_by="tests/test_corpus_cli.py::test_reader_matches_reference_on_edge_cases"),
    Mutant(
        "reader-keeps-undecodable-bytes", "corpus.py",
        '        text.encode("utf-8")\n',
        "        pass\n",
        "a corpus is read as strict UTF-8, from a file as from stdin",
        killed_by="tests/test_corpus_cli.py::test_an_undecodable_byte_gets_one_diagnostic_from_a_file_and_from_stdin"),
)
