(** Compilation of the concretizer's inputs to ASP facts and rules
    (§5.1–§5.3).

    Three fact groups: package definitions (versions, variants,
    conditional dependencies via the condition/requirement/imposition
    machinery of §5.1.1, provides, conflicts), the user's abstract
    requests, and reusable concrete specs — in either the {e old}
    direct [imposed_constraint] encoding (§5.1.2) or the {e new}
    [hash_attr] encoding that splicing needs (§5.3, Fig. 3a).

    [can_splice] directives compile to one ASP rule each (Fig. 4a),
    generated here because their version-range tests must be
    precompiled against the known version universe (ASP cannot order
    version strings).

    Every encode covers the whole input: a one-shot request
    ({!encode}) or a session universe ({!encode_session}). A changed
    buildcache means a fresh encode; there is no per-entry delta. *)

type encoding = Old | Hash_attr

type request = {
  req : Spec.Abstract.t;
  forbid : string list;
      (** package names the solution must not contain (§6.4 requires
          solutions that do not depend on mpich) *)
}

val request_of_string : ?forbid:string list -> string -> request

type reuse_pool = {
  by_hash : (string, Spec.Concrete.t) Hashtbl.t;
      (** node hash -> the concrete sub-DAG rooted there *)
}

val pool_of_specs : Spec.Concrete.t list -> reuse_pool
(** Index every node of every spec (each is individually reusable). *)

val pool_size : reuse_pool -> int

val pool_digest : Spec.Concrete.t list -> string
(** Content digest of a buildcache: a {!Chash} hash over the sorted,
    deduplicated DAG hashes of its specs, so the same spec set has the
    same digest whatever the order or repeats. The solve server keys its closure-cache generation on
    it, and {!Concretizer.Warm.set_pool} uses it to skip a reground
    when the pool did not change. *)

type t = {
  facts : Asp.Ast.statement list;
  rules : Asp.Ast.statement list;  (** generated can_splice rules *)
  pool : reuse_pool;
      (** the pool the facts describe — pruned when [prune] was set *)
  pool_total : int;  (** pool size before pruning *)
}

val closure :
  repo:Pkg.Repo.t ->
  splicing:bool ->
  pool:reuse_pool ->
  string list ->
  (string, unit) Hashtbl.t
(** Dependency closure of a set of root package names: an
    over-approximation of every package that can appear as a node in a
    solution rooted there. Follows all dependency directives
    (conditions ignored, like the grounder's possible-atom phase),
    virtuals to all providers, [can_splice] directives of closure
    packages to their targets, and reusable sub-DAGs rooted at closure
    packages to all their nodes. Facts about packages outside the
    closure cannot influence any model, so pruning them is sound. *)

val encode :
  repo:Pkg.Repo.t ->
  encoding:encoding ->
  splicing:bool ->
  reuse:Spec.Concrete.t list ->
  ?prune:bool ->
  ?closure:(string, unit) Hashtbl.t ->
  ?obs:Obs.ctx ->
  host_os:string ->
  host_target:string ->
  request list ->
  t
(** [prune] (default [false]) restricts package facts and the reusable
    pool to the {!closure} of the requested roots: a buildcache of
    thousands of specs grounds like one holding only the specs a
    request could actually use. [?closure] supplies that closure
    precomputed (the solve server caches it keyed by root + pool
    digest); it is trusted as-is and only consulted when [prune] is
    set, counting an [encode.closure_cache_hits] metric. [?obs]
    records the closure computation as an [encode.closure] span and
    the pool sizes as [encode.pool_total]/[encode.pool_kept]
    gauges. *)

(** {2 Incremental sessions} *)

type session_env = {
  se_roots : string list;  (** [possible_root] domain *)
  se_names : string list;  (** [req_dep]/[forbid_pkg] domain *)
  se_versions : (string * Vers.Version.t list) list;
      (** [forbid_version] domain per package *)
  se_variants : ((string * string) * string list) list;
      (** [forbid_variant] domain per (package, variant) *)
}

val encode_session :
  repo:Pkg.Repo.t ->
  encoding:encoding ->
  splicing:bool ->
  reuse:Spec.Concrete.t list ->
  ?prune:bool ->
  ?closure:(string, unit) Hashtbl.t ->
  ?obs:Obs.ctx ->
  host_os:string ->
  host_target:string ->
  roots:string list ->
  unit ->
  t * session_env
(** Encode the request-independent universe for an incremental solve
    session covering any single-root request whose root is in [roots]:
    instead of user-request facts it emits [possible_root]/[known_name]
    domains for the free choice atoms of {!Program.session_layer}.
    [prune] (default [true]) restricts the universe to the closure of
    [roots]. *)

val assumptions_for :
  session_env -> request -> ((Asp.Ast.atom * bool) list, string) result
(** The complete truth assignment over the session's choice atoms that
    makes the session program equivalent to a fresh encode of this
    single request: the request's root on, all other roots off, every
    version/variant value outside the requested ranges forbidden,
    everything else explicitly off (leaving a choice atom unassumed
    would let the solver activate it spuriously). Requests that are
    trivially unsatisfiable (a variant value the package can never
    take) are expressed as an assumption on a deliberately nonexistent
    atom, which {!Asp.Logic.session_solve} reports as UNSAT. [Error]
    only for misuse: a root the session was not created for. *)
