(** The concretizer: Spack's dependency resolver with automatic
    splicing (§5).

    Pipeline (§3.3): compile packages + requests + reusable specs to
    ASP facts ({!Encode}), join them with the logic program
    ({!Program}), ground and solve for the optimal stable model
    ({!Asp}), and interpret the model back into concrete specs
    ({!Decode}). As in Spack, each request is grounded once and solved
    once, on the calling domain; only {!concretize_batch} spreads
    independent requests over domains.

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

(** Warm universes: the session program for a fixed set of roots,
    encoded and grounded once per buildcache by the same code
    {!Session.create} uses, and kept so that sessions can be rebuilt
    without regrounding. A buildcache swap ({!set_pool}) regrounds the
    whole program from scratch. *)
module Warm : sig
  type t

  val create :
    repo:Pkg.Repo.t ->
    ?options:options ->
    roots:string list ->
    unit ->
    (t, string) result
  (** Encode and ground the session universe for requests rooted at
      any of [roots] over [options.reuse] (plus whatever the mirrors
      in [options.mirrors] index now; they are consulted once, here).
      With [options.prune], the universe is the closure of all [roots]
      jointly. *)

  val set_pool : t -> Spec.Concrete.t list -> bool
  (** Swap the buildcache; [true] iff its {!Encode.pool_digest}
      changed, in which case the session program is encoded and
      grounded again over the new pool. Sessions built earlier keep
      answering over the pool they were built from. *)

  val session : t -> Session.t
  (** A solve session over the current grounding: a translate of the
      held ground program, no regrounding. The ground program is left
      unchanged, so any number of sessions can be built from it. *)
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
