"""The paper's contribution: polynomial invariant generation.

Pipeline (Sections 3 and 4 of the paper):

1. :mod:`repro.invariants.template` — templates for invariants and
   post-conditions with unknown coefficients (*s-variables*),
2. :mod:`repro.invariants.generation` — constraint pairs encoding initiation,
   consecution and post-condition consecution,
3. :mod:`repro.invariants.putinar` (or :mod:`repro.invariants.handelman`) —
   translation of constraint pairs into a system of quadratic equalities and
   inequalities over the unknowns,
4. :mod:`repro.invariants.synthesis` — the four top-level algorithms
   ``StrongInvSynth``, ``WeakInvSynth``, ``RecStrongInvSynth`` and
   ``RecWeakInvSynth`` wired to the Step-4 solvers of :mod:`repro.solvers`.

Independent re-validation of a synthesized invariant lives in
:mod:`repro.certify`: the exact certificate check and the sampling tier
(:func:`repro.certify.check_invariant`).
"""

from repro.invariants.constraints import ConstraintPair
from repro.invariants.generation import generate_constraint_pairs
from repro.invariants.handelman import handelman_translate
from repro.invariants.putinar import putinar_translate
from repro.invariants.quadratic_system import ConstraintKind, QuadraticConstraint, QuadraticSystem
from repro.invariants.result import Invariant, SynthesisResult
from repro.invariants.synthesis import (
    SynthesisOptions,
    SynthesisTask,
    build_task,
    rec_strong_inv_synth,
    rec_weak_inv_synth,
    strong_inv_synth,
    weak_inv_synth,
)
from repro.invariants.template import PostTemplateEntry, TemplateEntry, TemplateSet

__all__ = [
    "ConstraintKind",
    "ConstraintPair",
    "Invariant",
    "PostTemplateEntry",
    "QuadraticConstraint",
    "QuadraticSystem",
    "SynthesisOptions",
    "SynthesisResult",
    "SynthesisTask",
    "TemplateEntry",
    "TemplateSet",
    "build_task",
    "generate_constraint_pairs",
    "handelman_translate",
    "putinar_translate",
    "rec_strong_inv_synth",
    "rec_weak_inv_synth",
    "strong_inv_synth",
    "weak_inv_synth",
]
