"""Explicit-coercion effect calculus with a constraint-graph simplifier.

The package implements a small call-by-value language whose computation
types carry effect rows, together with:

- term, type, and coercion syntax with well-formedness and typing checks
  (`syntax`, `check`);
- substitution of constraint solutions (`subst`) and the reduction of a
  parameter context to canonical form (`reduce`);
- a phase-based simplifier over the constraint graphs of a typing context
  (`graph`, `polarity`, `phases`), emitting metrics and graphviz output;
- completeness witnesses showing that every ground instantiation of the
  original context factors through the simplified one (`witness`), with
  random ground instantiations to exercise them (`sample`);
- a finite denotational model used as an independent oracle that
  simplification preserves meaning (`semantics`);
- an s-expression corpus format and command line front end (`corpus`,
  `cli`).
"""

__version__ = "0.1.0"
