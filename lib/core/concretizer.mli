(** The concretizer: Spack's dependency resolver with automatic
    splicing (§5).

    Pipeline (§3.3): compile packages + requests + reusable specs to
    ASP facts ({!Encode}), join them with the logic program
    ({!Program}), ground and solve for the optimal stable model
    ({!Asp}), and interpret the model back into concrete specs
    ({!Decode}).

    Knobs map one-to-one onto the paper's experimental axes (§6.1.4):
    the reusable-spec [encoding] (old vs hash_attr), whether automatic
    [splicing] is considered, and the set of reusable specs (the
    buildcache contents). *)

type options = {
  encoding : Encode.encoding;
  splicing : bool;
  reuse : Spec.Concrete.t list;
  mirrors : Binary.Mirror.group option;
      (** mirror layer to pull additional reusable specs from: only the
          {e currently reachable} mirrors contribute (degraded solves
          run over whatever metadata is reachable) *)
  host_os : string;
  host_target : string;
  certify : bool;
      (** record a DRUP-style proof in the SAT core so UNSAT answers
          carry an independently checkable refutation *)
  prune : bool;
      (** restrict package facts and the reusable pool to the
          dependency closure of the requested roots
          ({!Encode.closure}) before grounding — sound, and the
          difference between grounding a 5000-spec buildcache and the
          few dozen specs a request can actually reach *)
  verify : bool;
      (** independently re-validate every returned spec against the
          repo and its request with {!Verify.check_solution} (no solver
          involved); the violation count lands in
          [stats.verify_violations]. Off by default — it is an explicit
          option (not keyed off tracing being enabled) so overhead
          comparisons of the tracing layer are not polluted by
          verification cost. *)
  ground_jobs : int;
      (** partition the grounder's phase-2 instantiation across this
          many OCaml 5 domains ({!Asp.Ground.ground}'s [jobs]); the
          ground program is byte-identical for any value. Applies to
          one-shot solves and {!Session.create}; default 1. *)
  portfolio : int;
      (** race the initial stable solve of every request across this
          many SAT-solver clones diversified by initial phases, rephase
          interval and seed, exchanging low-LBD learnt clauses; default 1 (single solver). Results — models, costs,
          tie-breaks, proofs' verdicts — are byte-identical to a
          single-solver run under {!Asp.Logic}'s election rule; only
          wall time changes. *)
  obs : Obs.ctx;
      (** tracing context ({!Obs.disabled} by default): when enabled,
          every request emits a [concretize] span with child
          [encode]/[assemble]/[ground]/[solve]/[decode] (and [verify])
          phase spans, and the flat counters below are mirrored into
          the [Obs] metric registry *)
}

val default_options : options
(** hash_attr encoding, splicing off, no reuse, no mirrors,
    linux/x86_64 host, certification off, pruning on, verification
    off, tracing disabled. *)

type stats = {
  ground_atoms : int;
  ground_rules : int;
  fact_count : int;
  pool_total : int;  (** reusable specs before pruning *)
  pool_used : int;  (** reusable specs actually encoded *)
  sat_stats : (string * int) list;
  stable_checks : int;
  costs : (int * int) list;
  verify_violations : int option;
      (** [None] when [options.verify] was off; [Some n] = total
          violations {!Verify.check_solution} found across all
          returned specs (0 = clean) *)
  encode_seconds : float;
  ground_seconds : float;
  solve_seconds : float;
  total_seconds : float;
}

type outcome = {
  solution : Decode.solution;
  stats : stats;
}

type failure = {
  f_message : string;
  f_proof : Asp.Sat.proof_step list option;
      (** the refutation certificate, present iff the failure was an
          UNSAT answer and [options.certify] was set *)
  f_timeout : bool;
      (** the solve was preempted by an exhausted
          {!Asp.Sat.budget} (deadline or conflict cap) rather
          than answered; the underlying solver/session remains
          reusable *)
}

val concretize_v :
  repo:Pkg.Repo.t ->
  ?options:options ->
  ?budget:Asp.Sat.budget ->
  ?closure:(string, unit) Hashtbl.t ->
  ?attrs:(string * Obs.value) list ->
  Encode.request list ->
  (outcome, failure) result
(** Like {!concretize} but with a structured failure that carries the
    DRUP proof for certified UNSAT answers. [?attrs] are stamped on the
    root ["concretize"] span (the serve layer passes the request id
    here). [?budget] bounds the solve
    (conflict cap and/or external stop probe); exhaustion yields a
    failure with [f_timeout = true]. [?closure] supplies a precomputed
    dependency closure for pruning (see {!Encode.encode}), letting a
    resident server skip the closure walk on repeat roots. *)

val concretize :
  repo:Pkg.Repo.t ->
  ?options:options ->
  Encode.request list ->
  (outcome, string) result
(** Concretize one or more abstract requests jointly. [Error] carries
    "UNSAT" or a decode failure description. *)

val concretize_spec :
  repo:Pkg.Repo.t -> ?options:options -> string -> (outcome, string) result
(** Convenience: single request from spec syntax. *)

val pp_stats : Format.formatter -> stats -> unit

(** Incremental solve sessions: encode and ground the universe once,
    then serve many single-root requests against it by solving under
    assumptions ({!Asp.Logic.session_solve}). Learned clauses, variable
    activities, and saved phases carry over between requests, so a
    session amortizes both the ground cost and the solver's warm-up.
    Sessions return the same optimal costs as fresh solves; on cost
    ties the specific model may differ (both are optimal). *)
module Session : sig
  type t

  val create :
    repo:Pkg.Repo.t ->
    ?options:options ->
    ?closure:(string, unit) Hashtbl.t ->
    roots:string list ->
    unit ->
    (t, string) result
  (** Ground the universe for requests rooted at any of [roots]
      (deduplicated; must be known non-virtual packages). With
      [options.prune], the universe is the closure of all [roots]
      jointly; [?closure] supplies it precomputed (see
      {!Encode.encode}). *)

  val solve : t -> Encode.request -> (outcome, failure) result
  (** Serve one single-root request. [stats] report the session's
      (amortized) ground numbers, zero encode/ground seconds, and
      per-request deltas for the solver counters. *)

  val setup_seconds : t -> float
  (** One-time encode + ground + translate cost paid by [create]. *)

  val sat_stats : t -> (string * int) list
  (** Session-cumulative solver counters. *)

end

(** Warm delta-grounded universes: the request-independent session
    program grounded once through {!Asp.Ground.layered_create}, with
    the buildcache applied as named per-entry fact groups
    ({!Encode.pool_groups}). A buildcache swap becomes a
    {!Asp.Ground.layered_update} delta proportional to the churn
    instead of a full reground, and the grounding itself can be
    persisted to disk ({!Groundcache}) so a cold start at 20k pool
    entries loads instead of regrounding. *)
module Warm : sig
  type t

  val create :
    repo:Pkg.Repo.t ->
    ?options:options ->
    ?ground_cache:string ->
    roots:string list ->
    unit ->
    (t, string) result
  (** Ground the (never-pruned) base universe for session requests
      rooted at any of [roots], then apply [options.reuse] as the
      initial pool delta. With [?ground_cache DIR], first try to load
      the grounding keyed by (program + base facts digest, pool
      digest) — a hit skips grounding entirely — and persist whatever
      had to be computed for the next cold start. *)

  val set_pool : t -> Spec.Concrete.t list -> bool
  (** Swap the buildcache; [true] iff the pool digest changed. Applies
      the entry-group delta in place (removed entries retract through
      delete/re-derive, added ones extend semi-naively) and persists
      the new grounding when a cache dir is configured. Any
      {!session} built earlier must be discarded — it shares the
      mutated atom store. *)

  val session : t -> Session.t
  (** A solve session over the current grounding (snapshot +
      translate; no regrounding). Valid until the next {!set_pool}. *)

  val pool_digest : Spec.Concrete.t list -> string
  (** Content digest of a buildcache (sorted DAG hashes) — the pool
      half of the ground-cache key, and the key of the solve server's
      eviction generation. *)

  val generation : t -> int
  (** Bumped by every applied pool delta. *)

  val entry_count : t -> int

  val digest : t -> string
  (** Pool digest of the currently applied buildcache. *)

  val words : t -> int
  (** Resident heap words of the warm grounding. *)

  val from_cache : t -> bool
  (** Whether {!create} loaded the grounding from disk. *)

  val setup_seconds : t -> float
end

val concretize_batch :
  repo:Pkg.Repo.t ->
  ?options:options ->
  ?jobs:int ->
  ?session:bool ->
  Encode.request list ->
  (outcome, failure) result list
(** Concretize independent requests in parallel over [jobs] OCaml
    domains (default 1), one result per request in request order.
    Requests are partitioned statically (request [i] on domain
    [i mod jobs]), so results are order-stable for any [jobs]; the
    default mode solves each request fresh (with pruning per
    [options]) and is byte-deterministic regardless of [jobs].
    [session] instead builds one {!Session} per domain over all batch
    roots and reuses it for that domain's requests — faster for many
    requests over one big universe, deterministic in costs but not
    necessarily in cost-tied model choice. The mirror layer is
    consulted once, before any domain spawns. *)
