(* concretize-public: one-shot concretizations against the public-cache
   stand-in, the paper's headline path (Fig. 5-7 at public-cache
   scale). *)

open Common

let tail_pct = 90.

(* A request; the [^mpiabi] ones solve with splicing. *)
type req = { text : string; mpiabi : bool }

(* The requests of one round: every MPI-dependent objective as
   [<root> ^mpiabi] with splicing (20 of 32, close to two thirds), the
   others as plain roots without splicing. *)
let requests =
  List.map
    (fun root ->
      if List.mem root Radiuss.Universe.mpi_dependent then
        { text = root ^ " ^mpiabi"; mpiabi = true }
      else { text = root; mpiabi = false })
    Radiuss.Universe.top_level

type state = {
  repo : Pkg.Repo.t;
  reuse : Spec.Concrete.t list;
  pool : Core.Encode.reuse_pool;  (** index of [reuse], for the traced closure step *)
}

(* The public-cache stand-in of fig7b: the scaled public cache, kept to
   the entries that verify on their own. *)
let setup () =
  let repo = Radiuss.Universe.repo () in
  let public, synthetic =
    Radiuss.Caches.public_scaled ~repo ~configs:3 ~target_nodes:5000 ()
  in
  let reuse =
    List.filter
      (fun s -> Core.Verify.check_solution ~repo s = [])
      (Radiuss.Caches.reusable_specs public @ synthetic)
  in
  { repo; reuse; pool = Core.Encode.pool_of_specs reuse }

let options st r =
  { Core.Concretizer.default_options with
    Core.Concretizer.reuse = st.reuse;
    splicing = r.mpiabi }

(* What two concretizations must agree on: costs and root DAG hash. *)
let answer costs (specs : Spec.Concrete.t list) =
  String.concat " "
    (List.map (fun (p, c) -> Printf.sprintf "%d:%d" p c) costs
    @ List.map Spec.Concrete.dag_hash specs)

let violations st r specs =
  List.fold_left
    (fun acc s ->
      acc
      + List.length
          (Core.Verify.check_solution ~repo:st.repo
             ~request:(Spec.Parser.parse r.text) s))
    0 specs

(* The concretizer pipeline one public step at a time, each step in a
   span under the operation's root span "request". Returns the
   solution and the per-request counters. *)
let stepped st rec_ ~op r =
  let o = options st r in
  let request = Core.Encode.request_of_string r.text in
  let root = request.Core.Encode.req.Spec.Abstract.root.Spec.Abstract.name in
  let sp name f = span rec_ ~op ~parent:"request" name f in
  span rec_ ~op "request" @@ fun () ->
  let closure =
    sp "encode.closure" (fun () ->
        Core.Encode.closure ~repo:st.repo ~splicing:r.mpiabi ~pool:st.pool [ root ])
  in
  let enc =
    sp "encode.encode" (fun () ->
        Core.Encode.encode ~repo:st.repo ~encoding:o.Core.Concretizer.encoding
          ~splicing:r.mpiabi ~reuse:st.reuse ~prune:true ~closure
          ~host_os:o.Core.Concretizer.host_os
          ~host_target:o.Core.Concretizer.host_target [ request ])
  in
  let statements =
    sp "program.parse" (fun () ->
        Asp.parse
          (Core.Program.assemble ~encoding:o.Core.Concretizer.encoding
             ~splicing:r.mpiabi ())
        @ enc.Core.Encode.rules @ enc.Core.Encode.facts)
  in
  let ground = sp "ground.ground" (fun () -> Asp.Ground.ground ~jobs:1 statements) in
  match sp "logic.solve" (fun () -> Asp.Logic.solve ~portfolio:1 ground) with
  | Asp.Logic.Unsat _ -> Error "UNSAT"
  | Asp.Logic.Sat model -> (
    match
      sp "decode.decode" (fun () ->
          Core.Decode.decode ~pool:enc.Core.Encode.pool ~requests:[ request ] model)
    with
    | Error e -> Error ("decode: " ^ e)
    | Ok sol ->
      let nviol = sp "verify.check" (fun () -> violations st r sol.Core.Decode.specs) in
      let hits = Asp.Ground.index_hits ground and misses = Asp.Ground.index_misses ground in
      let sat k =
        float_of_int
          (Option.value ~default:0 (List.assoc_opt k model.Asp.Logic.sat_stats))
      in
      Ok
        ( sol,
          model.Asp.Logic.costs,
          [ ("encode.facts", float_of_int (List.length enc.Core.Encode.facts));
            ( "encode.pool_kept_frac",
              float_of_int (Core.Encode.pool_size enc.Core.Encode.pool)
              /. float_of_int (max 1 enc.Core.Encode.pool_total) );
            ("ground.atoms", float_of_int (Asp.Ground.atom_count ground));
            ("ground.rules", float_of_int (List.length (Asp.Ground.rules ground)));
            ( "ground.index_hit_frac",
              float_of_int hits /. float_of_int (max 1 (hits + misses)) );
            ("logic.stable_checks", float_of_int model.Asp.Logic.stable_checks);
            ("sat.conflicts", sat "conflicts");
            ("sat.propagations", sat "propagations");
            ("sat.decisions", sat "decisions");
            ("sat.clauses", sat "clauses");
            ("verify.violations", float_of_int nviol) ] ))

let layers =
  [ "encode.closure"; "encode.encode"; "program.parse"; "ground.ground";
    "logic.solve"; "decode.decode"; "verify.check" ]

let run ~seed ~seconds ~trace ~setups =
  let st, before = repeated_setup ~n:setups ~setup ~teardown:ignore in
  let c = checks () in
  let first = Hashtbl.create 64 in
  (* the same request must get the same answer every time it recurs *)
  let check_answer r (sol : Core.Decode.solution) costs =
    check c
      (violations st r sol.Core.Decode.specs = 0)
      (lazy (r.text ^ ": solution fails Verify"));
    if r.mpiabi then
      check c
        (Core.Decode.is_spliced_solution sol)
        (lazy (r.text ^ ": MPI-dependent ^mpiabi request not spliced (RQ2)"));
    let a = answer costs sol.Core.Decode.specs in
    match Hashtbl.find_opt first r.text with
    | None -> Hashtbl.replace first r.text a
    | Some a0 -> check c (a = a0) (lazy (r.text ^ ": answer changed between repeats"))
  in
  let direct r =
    let t0 = now () in
    let res =
      Core.Concretizer.concretize_v ~repo:st.repo ~options:(options st r)
        [ Core.Encode.request_of_string r.text ]
    in
    (res, ms_since t0)
  in
  let fail r msg =
    prerr_endline ("perfbench: " ^ r.text ^ ": " ^ msg);
    None
  in
  let lat = ref [] and direct_ms = ref [] and pool_index_ms = ref [] in
  let attempted = ref 0 and failed = ref 0 and spliced = ref 0 and checking = ref 0. in
  let keys = ref [] in
  let rec_ = recorder () in
  let counters = Hashtbl.create 16 in
  Gc.full_major ();
  reset_peak_rss ();
  let wall =
    timed_rounds ~seconds ~rng:(Random.State.make [| seed |]) requests (fun op r ->
        incr attempted;
        if r.mpiabi then incr spliced;
        if op < 8 then keys := r.text :: !keys;
        (* the answer to check, or None when the operation failed *)
        let outcome =
          if not trace then
            match direct r with
            | Ok o, ms ->
              lat := ms :: !lat;
              Some (o.Core.Concretizer.solution, o.Core.Concretizer.stats.Core.Concretizer.costs)
            | Error f, _ -> fail r f.Core.Concretizer.f_message
          else begin
            (* the pool index Encode.encode rebuilds on every call,
               timed on its own outside the request *)
            let t0 = now () in
            ignore (Core.Encode.pool_of_specs st.reuse);
            pool_index_ms := ms_since t0 :: !pool_index_ms;
            let run_stepped () =
              let t0 = now () in
              let res = stepped st rec_ ~op r in
              (res, ms_since t0)
            in
            (* alternate which pipeline runs first, so neither always
               inherits the other's garbage *)
            let (s, s_ms), (d, d_ms) =
              if op mod 2 = 0 then
                let s = run_stepped () in
                (s, direct r)
              else
                let d = direct r in
                (run_stepped (), d)
            in
            match (s, d) with
            | Ok (sol, costs, cs), Ok o ->
              lat := s_ms :: !lat;
              direct_ms := d_ms :: !direct_ms;
              List.iter
                (fun (k, v) ->
                  Hashtbl.replace counters k
                    (v +. Option.value ~default:0. (Hashtbl.find_opt counters k)))
                cs;
              check c
                (answer costs sol.Core.Decode.specs
                = answer o.Core.Concretizer.stats.Core.Concretizer.costs
                    o.Core.Concretizer.solution.Core.Decode.specs)
                (lazy (r.text ^ ": stepped pipeline disagrees with concretize_v"));
              Some (sol, costs)
            | Error e, _ -> fail r e
            | _, Error f -> fail r f.Core.Concretizer.f_message
          end
        in
        let tc = now () in
        (match outcome with
        | Some (sol, costs) -> check_answer r sol costs
        | None -> incr failed);
        checking := !checking +. (now () -. tc))
  in
  let rss = peak_rss_mb () in
  let n = List.length !lat in
  let details =
    [ ("requests", Sjson.Int !attempted);
      ("spliced_requests", Sjson.Int !spliced);
      ("pool_specs", Sjson.Int (List.length st.reuse));
      ("tail_percentile", Sjson.Float tail_pct);
      ("tail_samples_beyond", Sjson.Int (beyond tail_pct !lat));
      ("max_ms", Sjson.Float (percentile 100. !lat));
      ("first_requests", Sjson.Array (List.rev_map (fun k -> Sjson.String k) !keys));
      (* every run answers every request, so this is the same for all
         seeds and runs *)
      ("digest", Sjson.String (digest (Hashtbl.fold (fun k a acc -> (k ^ " " ^ a) :: acc) first [])));
      ("wrong", Sjson.Int c.wrong) ]
  in
  let metrics =
    if not trace then
      [ ("setup_s", setup_seconds ~n:setups ~setup ~teardown:ignore before);
        ("p50_ms", median !lat);
        ("tail_ms", percentile tail_pct !lat);
        ("ops_per_s", float_of_int n /. (wall -. !checking));
        ("peak_rss_mb", rss) ]
    else begin
      write_spans rec_ ~workload:"concretize-public" ~seed;
      let per_op v = v /. float_of_int (max 1 n) in
      let stepped_ms = mean !lat in
      let unattributed = self_ms rec_ ~ops:n "request" in
      List.map (fun l -> (l ^ "_ms", self_ms rec_ ~ops:n l)) layers
      @ Hashtbl.fold (fun k v acc -> (k, per_op v) :: acc) counters []
      @ [ ("encode.pool_index_ms", mean !pool_index_ms);
          ("concretize.unattributed_ms", unattributed);
          ("concretize.unattributed_pct", 100. *. unattributed /. stepped_ms);
          ("concretize.stepped_ms", stepped_ms);
          ("concretize.direct_ms", mean !direct_ms);
          ("trace.p50_ms", median !lat) ]
    end
  in
  { correct = c.wrong = 0; attempted = !attempted; failed = !failed; metrics; details }
