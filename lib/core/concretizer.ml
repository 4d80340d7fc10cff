type options = {
  encoding : Encode.encoding;
  splicing : bool;
  reuse : Spec.Concrete.t list;
  mirrors : Binary.Mirror.group option;
  host_os : string;
  host_target : string;
  certify : bool;
  prune : bool;
  verify : bool;
  obs : Obs.ctx;
}

let default_options =
  { encoding = Encode.Hash_attr;
    splicing = false;
    reuse = [];
    mirrors = None;
    host_os = "linux";
    host_target = "x86_64";
    certify = false;
    prune = true;
    verify = false;
    obs = Obs.disabled }

(* The reusable pool a degraded solve actually sees: the explicit specs
   plus whatever the reachable mirrors index right now (deduplicated by
   DAG hash, explicit specs winning). An unreachable mirror simply
   contributes nothing — the solve proceeds over partial metadata. *)
let effective_reuse options =
  match options.mirrors with
  | None -> options.reuse
  | Some g ->
    let seen = Hashtbl.create 64 in
    List.iter
      (fun s -> Hashtbl.replace seen (Spec.Concrete.dag_hash s) ())
      options.reuse;
    options.reuse
    @ List.filter
        (fun s -> not (Hashtbl.mem seen (Spec.Concrete.dag_hash s)))
        (Binary.Mirror.reachable_specs g)

type stats = {
  ground_atoms : int;
  ground_rules : int;
  fact_count : int;
  pool_total : int;
  pool_used : int;
  sat_stats : (string * int) list;
  stable_checks : int;
  costs : (int * int) list;
  verify_violations : int option;  (* None = verification not run *)
  encode_seconds : float;
  ground_seconds : float;
  solve_seconds : float;
  total_seconds : float;
}

type outcome = {
  solution : Decode.solution;
  stats : stats;
}

let now () = Obs.Clock.now_s ()

(* Requests must name known packages (or virtuals): an unknown name
   would otherwise surface as a baffling UNSAT. *)
let check_known ~repo requests =
  let known n = Pkg.Repo.mem repo n || Pkg.Repo.is_virtual repo n in
  List.find_map
    (fun (r : Encode.request) ->
      let root = r.Encode.req.Spec.Abstract.root.Spec.Abstract.name in
      if Pkg.Repo.is_virtual repo root then
        Some
          (Printf.sprintf
             "virtual packages cannot be requested as roots: %s (request a provider: %s)"
             root
             (String.concat ", "
                (List.map
                   (fun (p : Pkg.Package.t) -> p.Pkg.Package.name)
                   (Pkg.Repo.providers repo root))))
      else
        let names =
          root
          :: List.map
               (fun (d : Spec.Abstract.dep) -> d.Spec.Abstract.node.Spec.Abstract.name)
               r.Encode.req.Spec.Abstract.deps
        in
        List.find_map
          (fun n ->
            if known n then None else Some (Printf.sprintf "unknown package: %s" n))
          names)
    requests

(* A failed concretization, with the refutation certificate when the
   failure was an UNSAT answer computed under [certify = true]. *)
type failure = {
  f_message : string;
  f_proof : Asp.Sat.proof_step list option;
  f_timeout : bool;
}

let fail msg = Error { f_message = msg; f_proof = None; f_timeout = false }

let fail_timeout () =
  Error
    { f_message = "timeout: solve budget exhausted";
      f_proof = None;
      f_timeout = true }

(* Independent re-validation of the solution ([options.verify]): each
   returned spec is checked against the repo and its request without
   the solver. Returns the total violation count. *)
let run_verify ~repo ~options ~requests (solution : Decode.solution) =
  let obs = options.obs in
  Obs.with_span obs ~cat:"concretize" "verify" @@ fun span ->
  let pairs =
    try List.combine requests solution.Decode.specs
    with Invalid_argument _ ->
      List.map (fun s -> (List.hd requests, s)) solution.Decode.specs
  in
  let total =
    List.fold_left
      (fun acc ((r : Encode.request), spec) ->
        let violations =
          Verify.check_solution ~repo ~request:r.Encode.req
            ~host_os:options.host_os ~host_target:options.host_target spec
        in
        acc + List.length violations)
      0 pairs
  in
  Obs.set_attr span "specs" (Obs.I (List.length solution.Decode.specs));
  Obs.set_attr span "violations" (Obs.I total);
  Obs.incr obs ~by:total "concretize.verify_violations";
  total

(* Publish a finished request's flat stats into the Obs metric
   registry, so traces carry the same numbers as [pp_stats]. *)
let publish_stats obs (s : stats) =
  if Obs.enabled obs then begin
    Obs.publish obs ~prefix:"sat" s.sat_stats;
    Obs.gauge obs "concretize.ground_atoms" s.ground_atoms;
    Obs.gauge obs "concretize.ground_rules" s.ground_rules;
    Obs.gauge obs "concretize.fact_count" s.fact_count;
    Obs.gauge obs "concretize.pool_total" s.pool_total;
    Obs.gauge obs "concretize.pool_used" s.pool_used;
    Obs.observe obs "concretize.solve_seconds" s.solve_seconds
  end

let concretize_v ~repo ?(options = default_options) ?budget ?closure
    ?(attrs = []) requests =
  match check_known ~repo requests with
  | Some e -> fail e
  | None ->
  let obs = options.obs in
  Obs.with_span obs ~cat:"concretize" "concretize"
    ~attrs:
      (( "roots",
         Obs.S
           (String.concat ","
              (List.map
                 (fun (r : Encode.request) ->
                   r.Encode.req.Spec.Abstract.root.Spec.Abstract.name)
                 requests)) )
      :: attrs)
  @@ fun _span ->
  let t0 = now () in
  let encoded =
    Obs.with_span obs ~cat:"concretize" "encode" (fun _ ->
        Encode.encode ~repo ~encoding:options.encoding ~splicing:options.splicing
          ~reuse:(effective_reuse options) ~prune:options.prune ?closure ~obs
          ~host_os:options.host_os ~host_target:options.host_target requests)
  in
  let statements =
    Obs.with_span obs ~cat:"concretize" "assemble" (fun _ ->
        let program_text =
          Program.assemble ~encoding:options.encoding ~splicing:options.splicing ()
        in
        Asp.parse program_text @ encoded.Encode.rules @ encoded.Encode.facts)
  in
  let t1 = now () in
  let ground =
    Obs.with_span obs ~cat:"concretize" "ground" (fun _ ->
        Asp.Ground.ground ~obs statements)
  in
  let t2 = now () in
  let result =
    match
      Obs.with_span obs ~cat:"concretize" "solve" (fun _ ->
          Asp.Logic.solve ~certify:options.certify ~obs ?budget ground)
    with
    | r -> Some r
    | exception Asp.Sat.Timeout -> None
  in
  let t3 = now () in
  match result with
  | None -> fail_timeout ()
  | Some (Asp.Logic.Unsat proof) ->
    Error
      { f_message = "UNSAT: no valid concretization exists";
        f_proof = proof;
        f_timeout = false }
  | Some (Asp.Logic.Sat model) -> (
    let decoded =
      Obs.with_span obs ~cat:"concretize" "decode" (fun _ ->
          Decode.decode ~pool:encoded.Encode.pool ~requests model)
    in
    match decoded with
    | Error e -> fail ("decode: " ^ e)
    | Ok solution ->
      let verify_violations =
        if options.verify then Some (run_verify ~repo ~options ~requests solution)
        else None
      in
      let stats =
        { ground_atoms = Asp.Ground.atom_count ground;
          ground_rules = List.length (Asp.Ground.rules ground);
          fact_count = List.length encoded.Encode.facts;
          pool_total = encoded.Encode.pool_total;
          pool_used = Encode.pool_size encoded.Encode.pool;
          sat_stats = model.Asp.Logic.sat_stats;
          stable_checks = model.Asp.Logic.stable_checks;
          costs = model.Asp.Logic.costs;
          verify_violations;
          encode_seconds = t1 -. t0;
          ground_seconds = t2 -. t1;
          solve_seconds = t3 -. t2;
          total_seconds = now () -. t0 }
      in
      publish_stats obs stats;
      Ok { solution; stats })

let concretize ~repo ?options requests =
  match concretize_v ~repo ?options requests with
  | Ok o -> Ok o
  | Error f -> Error f.f_message

let concretize_spec ~repo ?options text =
  match Encode.request_of_string text with
  | req -> concretize ~repo ?options [ req ]
  | exception Spec.Parser.Parse_error e -> Error ("parse error: " ^ e)

let pp_stats fmt s =
  let sat k = match List.assoc_opt k s.sat_stats with Some v -> v | None -> 0 in
  Format.fprintf fmt
    "atoms=%d rules=%d facts=%d pool=%d/%d clauses=%d conflicts=%d props=%d \
     restarts=%d learnts=%d stable_checks=%d encode=%.3fs ground=%.3fs \
     solve=%.3fs total=%.3fs"
    s.ground_atoms s.ground_rules s.fact_count s.pool_used s.pool_total
    (sat "clauses") (sat "conflicts") (sat "propagations") (sat "restarts")
    (sat "learnts") s.stable_checks s.encode_seconds s.ground_seconds
    s.solve_seconds s.total_seconds;
  (* Glucose-core DB-management counters; zero (and omitted) on solves
     too small to trigger a reduction or minimization. *)
  if sat "reduces" > 0 then
    Format.fprintf fmt " reduces=%d removed=%d" (sat "reduces") (sat "removed");
  if sat "minimized" > 0 then Format.fprintf fmt " min_lits=%d" (sat "minimized");
  (* Rephasing runs at restart boundaries only; omitted when none fired. *)
  if sat "rephases" > 0 then Format.fprintf fmt " rephases=%d" (sat "rephases");
  match s.verify_violations with
  | None -> ()
  | Some 0 -> Format.fprintf fmt " verify=ok"
  | Some n -> Format.fprintf fmt " verify=%d-violation(s)" n

(* ----- incremental sessions ---------------------------------------- *)

module Session = struct
  type conc_options = options

  (* A grounded session program: the universe for a set of roots,
     encoded with the session layer's free choice atoms and grounded
     once. Sessions translate it without changing it, so any number of
     them can be built from one program. *)
  type program = {
    p_env : Encode.session_env;
    p_pool : Encode.reuse_pool;
    p_ground : Asp.Ground.t;
    p_fact_count : int;
    p_pool_total : int;
  }

  type t = {
    repo : Pkg.Repo.t;
    options : conc_options;
    env : Encode.session_env;
    pool : Encode.reuse_pool;
    session : Asp.Logic.session;
    ground_atoms : int;
    ground_rules : int;
    fact_count : int;
    pool_total : int;
    pool_used : int;
    setup_seconds : float;
  }

  let check_roots ~repo roots =
    List.find_map
      (fun n ->
        if Pkg.Repo.is_virtual repo n then
          Some (Printf.sprintf "virtual packages cannot be session roots: %s" n)
        else if not (Pkg.Repo.mem repo n) then
          Some (Printf.sprintf "unknown package: %s" n)
        else None)
      roots

  (* The one way a session program is built: encode, assemble with the
     session layer, ground. [create] and {!Warm} both go through it. *)
  let ground_program ~repo ~options ?closure ~roots () =
    let obs = options.obs in
    let encoded, env =
      Obs.with_span obs ~cat:"concretize" "encode" (fun _ ->
          Encode.encode_session ~repo ~encoding:options.encoding
            ~splicing:options.splicing ~reuse:(effective_reuse options)
            ~prune:options.prune ?closure ~obs ~host_os:options.host_os
            ~host_target:options.host_target ~roots ())
    in
    let statements =
      Obs.with_span obs ~cat:"concretize" "assemble" (fun _ ->
          let program_text =
            Program.assemble ~session:true ~encoding:options.encoding
              ~splicing:options.splicing ()
          in
          Asp.parse program_text @ encoded.Encode.rules @ encoded.Encode.facts)
    in
    let ground =
      Obs.with_span obs ~cat:"concretize" "ground" (fun _ ->
          Asp.Ground.ground ~obs statements)
    in
    { p_env = env;
      p_pool = encoded.Encode.pool;
      p_ground = ground;
      p_fact_count = List.length encoded.Encode.facts;
      p_pool_total = encoded.Encode.pool_total }

  (* Translate a grounded program into a solve session; [t0] is when
     the caller started paying for it. *)
  let of_program ~repo ~options ~t0 p =
    let g = p.p_ground in
    let session =
      Asp.Logic.session_create ~certify:options.certify ~obs:options.obs g
    in
    { repo;
      options;
      env = p.p_env;
      pool = p.p_pool;
      session;
      ground_atoms = Asp.Ground.atom_count g;
      ground_rules = List.length (Asp.Ground.rules g);
      fact_count = p.p_fact_count;
      pool_total = p.p_pool_total;
      pool_used = Encode.pool_size p.p_pool;
      setup_seconds = now () -. t0 }

  let create ~repo ?(options = default_options) ?closure ~roots () =
    match check_roots ~repo roots with
    | Some e -> Error e
    | None ->
      Obs.with_span options.obs ~cat:"concretize" "session.create"
        ~attrs:[ ("roots", Obs.I (List.length roots)) ]
      @@ fun _span ->
      let t0 = now () in
      let p = ground_program ~repo ~options ?closure ~roots () in
      Ok (of_program ~repo ~options ~t0 p)

  let setup_seconds s = s.setup_seconds

  let sat_stats s = Asp.Logic.session_sat_stats s.session

  let solve s (request : Encode.request) =
    match check_known ~repo:s.repo [ request ] with
    | Some e -> fail e
    | None -> (
      match Encode.assumptions_for s.env request with
      | Error e -> fail e
      | Ok assume -> (
        let obs = s.options.obs in
        Obs.with_span obs ~cat:"concretize" "session.request"
          ~attrs:
            [ ( "root",
                Obs.S request.Encode.req.Spec.Abstract.root.Spec.Abstract.name )
            ]
        @@ fun _span ->
        let t0 = now () in
        match Asp.Logic.session_solve s.session ~assume with
        | Asp.Logic.Unsat proof ->
          Error
            { f_message = "UNSAT: no valid concretization exists";
              f_proof = proof;
              f_timeout = false }
        | Asp.Logic.Sat model -> (
          let t1 = now () in
          let decoded =
            Obs.with_span obs ~cat:"concretize" "decode" (fun _ ->
                Decode.decode ~pool:s.pool ~requests:[ request ] model)
          in
          match decoded with
          | Error e -> fail ("decode: " ^ e)
          | Ok solution ->
            let verify_violations =
              if s.options.verify then
                Some
                  (run_verify ~repo:s.repo ~options:s.options
                     ~requests:[ request ] solution)
              else None
            in
            let stats =
              { ground_atoms = s.ground_atoms;
                ground_rules = s.ground_rules;
                fact_count = s.fact_count;
                pool_total = s.pool_total;
                pool_used = s.pool_used;
                sat_stats = model.Asp.Logic.sat_stats;
                stable_checks = model.Asp.Logic.stable_checks;
                costs = model.Asp.Logic.costs;
                verify_violations;
                encode_seconds = 0.;
                ground_seconds = 0.;
                solve_seconds = t1 -. t0;
                total_seconds = now () -. t0 }
            in
            publish_stats obs stats;
            Ok { solution; stats })))
end

(* ----- warm universes ---------------------------------------------- *)

module Warm = struct
  type conc_options = options

  type t = {
    repo : Pkg.Repo.t;
    roots : string list;
    mutable options : conc_options;  (* [reuse] is the pool in force *)
    mutable digest : string;  (* pool digest of [options.reuse] *)
    mutable program : Session.program;
  }

  let create ~repo ?(options = default_options) ~roots () =
    match Session.check_roots ~repo roots with
    | Some e -> Error e
    | None ->
      Obs.with_span options.obs ~cat:"concretize" "warm.create"
        ~attrs:[ ("roots", Obs.I (List.length roots)) ]
      @@ fun _span ->
      (* resolve the mirror layer once: later pools arrive through
         [set_pool] as explicit spec lists *)
      let reuse = effective_reuse options in
      let options = { options with reuse; mirrors = None } in
      Ok
        { repo;
          roots;
          options;
          digest = Encode.pool_digest reuse;
          program = Session.ground_program ~repo ~options ~roots () }

  let set_pool t specs =
    let d = Encode.pool_digest specs in
    if String.equal d t.digest then false
    else begin
      Obs.with_span t.options.obs ~cat:"concretize" "warm.set_pool"
        ~attrs:[ ("specs", Obs.I (List.length specs)) ]
      @@ fun _span ->
      let options = { t.options with reuse = specs } in
      t.program <- Session.ground_program ~repo:t.repo ~options ~roots:t.roots ();
      t.options <- options;
      t.digest <- d;
      true
    end

  let session t =
    Obs.with_span t.options.obs ~cat:"concretize" "warm.session" @@ fun _span ->
    Session.of_program ~repo:t.repo ~options:t.options ~t0:(now ()) t.program
end

(* ----- multicore batch concretization ------------------------------ *)

let concretize_batch ~repo ?(options = default_options) ?(jobs = 1)
    ?(session = false) requests =
  (* Resolve the mirror layer once, before any domain spawns: mirror
     probing mutates breaker state and must not race (and every domain
     must see the same pool for determinism). *)
  let options = { options with reuse = effective_reuse options; mirrors = None } in
  let obs = options.obs in
  Obs.with_span obs ~cat:"concretize" "batch"
    ~attrs:[ ("requests", Obs.I (List.length requests)); ("jobs", Obs.I jobs) ]
  @@ fun _span ->
  let arr = Array.of_list requests in
  let n = Array.length arr in
  let results : (outcome, failure) result option array = Array.make n None in
  let jobs = if n = 0 then 1 else max 1 (min jobs n) in
  (* Static round-robin partition: request [i] is solved by domain
     [i mod jobs] and written to slot [i], so the result list does not
     depend on the number of domains. In the default per-request-fresh
     mode the solves are fully independent, making batch output
     byte-identical for any [jobs]; in [session] mode each domain
     builds one session over all batch roots and results are
     cost-deterministic (learned-clause carryover may break ties
     differently between partitions). The shared [obs] context is
     domain-safe; each domain's spans carry its own [tid], which is
     what renders the batch as per-domain timelines. *)
  let worker j =
    let each f =
      let i = ref j in
      while !i < n do
        results.(!i) <- Some (f !i);
        i := !i + jobs
      done
    in
    if session then begin
      let roots =
        List.map
          (fun (r : Encode.request) ->
            r.Encode.req.Spec.Abstract.root.Spec.Abstract.name)
          requests
        |> List.filter (fun r -> Pkg.Repo.mem repo r && not (Pkg.Repo.is_virtual repo r))
        |> List.sort_uniq String.compare
      in
      match Session.create ~repo ~options ~roots () with
      | Error e -> each (fun _ -> fail e)
      | Ok s -> each (fun i -> Session.solve s arr.(i))
    end
    else each (fun i -> concretize_v ~repo ~options [ arr.(i) ])
  in
  if jobs <= 1 then worker 0
  else begin
    let domains =
      List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    worker 0;
    List.iter Domain.join domains
  end;
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) results)
