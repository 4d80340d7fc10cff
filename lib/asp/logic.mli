(** Stable-model search over a ground program.

    The ground program is translated to SAT: Clark completion for
    derived atoms (choice-rule bodies support their elements without
    forcing them), integrity constraints as clauses, and cardinality
    bounds as pseudo-Boolean constraints. Because completion admits
    self-supporting loops, every candidate model is checked for
    unfounded sets; unfounded sets are cut with loop clauses and the
    search resumes — sound and complete stable-model semantics without
    upfront loop enumeration. Translation finds the non-trivial SCCs of
    the positive dependency graph, and the check computes the least
    model of the reduct over the rules of those loops only; a program
    without them is tight and needs no check.

    [#minimize] objectives are optimized lexicographically (higher
    priority first) by branch-and-bound descent with activation
    literals.

    The SAT search runs on the glucose-class {!Sat} core. *)

type model = {
  atoms : Ast.atom list;  (** true atoms of the optimal stable model *)
  costs : (int * int) list;  (** (priority, cost), descending priority *)
  sat_stats : (string * int) list;
  stable_checks : int;  (** candidate models subjected to the check *)
  loop_clauses : int;  (** loop clauses added by failed checks *)
}

type outcome = Sat of model | Unsat of Sat.proof_step list option
(** [Unsat p]: no stable model. When the search was run with
    [~certify:true], [p] carries the DRUP-style refutation recorded by
    the SAT core (loop and completion clauses appear as trusted
    inputs); it can be validated independently with [Fuzz.Drup.check].
    [None] when certification was off. *)

val hook_skip_unfounded : bool ref
(** Fault injection for the fuzz harness: when [true], the unfounded-set
    check is skipped, so non-stable SAT models are accepted; only
    programs with positive loops can show it. Always reset after use. *)

val solve :
  ?certify:bool -> ?obs:Obs.ctx -> ?budget:Sat.budget ->
  ?portfolio:int -> Ground.t -> outcome
(** [?obs] records a translate span (with the positive-loop size:
    [loop_atoms], [loop_rules], [loop_sccs]), per-SAT-call
    [sat.solve] spans with stats deltas, per-optimization [opt.probe] spans (priority,
    bound, outcome), stable-check counters, and the SAT core's
    per-restart histograms. [?budget] installs a preemption budget on
    the underlying solver ({!Sat.budget}); exhaustion raises
    {!Sat.Timeout}. [?portfolio] accepts only [1] and raises
    [Invalid_argument] for any other value. It stays only because
    perfbench's concretize workload ([wl_concretize.ml]) still passes
    [~portfolio:1]; ROADMAP's benchmark step drops that argument, and
    this label goes with it. *)

(** {2 Incremental sessions}

    A session translates a ground program to SAT once and then serves
    many solve requests against it, each under its own assumptions
    over ground atoms. Learned clauses, loop clauses, variable
    activities, and saved phases persist across requests — they are
    consequences of the (request-independent) program, so retaining
    them is sound; the optimization descent only ever adds
    constraints gated by activation literals assumed for a single
    request. Retained learnt clauses are subject to the SAT core's
    LBD-driven reduction between requests, which deletes only
    redundant (derived) clauses and so preserves soundness and
    completeness. *)

type session

val session_create :
  ?certify:bool -> ?obs:Obs.ctx -> Ground.t -> session
(** [?obs] traces the one-time translation and then every
    {!session_solve} as a [session.solve] span carrying that
    request's solver-stat deltas. *)

val session_solve : session -> assume:(Ast.atom * bool) list -> outcome
(** Solve for the optimal stable model consistent with the assumed
    atom truth values. Atoms absent from the ground program are
    constant false: assuming one [false] is vacuous, assuming one
    [true] yields [Unsat None] immediately. [sat_stats] in the
    returned model are this request's deltas ({!Sat.stats_delta});
    [stable_checks] and [loop_clauses] are session-cumulative. *)

val session_ground : session -> Ground.t

val session_sat_stats : session -> (string * int) list
(** Session-cumulative solver counters. *)

val holds : model -> Ast.atom -> bool

val enumerate : ?limit:int -> Ground.t -> model list
(** Enumerate stable models (up to [limit], default 64) by adding
    blocking clauses over full assignments. [#minimize] statements
    are ignored — enumeration explores the unoptimized model space
    (used by tests and the CLI's solver front end). *)
