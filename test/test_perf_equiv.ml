(* Performance-stack equivalence properties (reuse-pool pruning,
   incremental sessions, batch determinism) over random fuzz universes:
   the fast paths must be observationally equivalent to the fresh
   from-scratch solver.

   - pruning: closure-filtered encodes agree with unpruned encodes on
     solvability, optimal costs, and the solution DAG.
   - sessions: solving under assumptions against a shared ground
     universe returns the same costs as a fresh solve, and its model
     decodes to a Verify-clean spec.
   - batch: the default concretize_batch mode is byte-identical for
     any domain count. *)

module CC = Core.Concretizer

(* "glucose" in the suite and test names is the SAT core's restart
   policy, the one search configuration the properties run under. *)

let options ?(splicing = false) ?(reuse = []) ~prune () =
  { CC.default_options with CC.splicing; reuse; prune }

let concretize ~repo ~options text =
  CC.concretize_v ~repo ~options [ Core.Encode.request_of_string text ]

let root_spec (o : CC.outcome) = List.hd o.CC.solution.Core.Decode.specs

let costs (o : CC.outcome) = o.CC.stats.CC.costs

let pp_costs cs =
  String.concat "," (List.map (fun (p, c) -> Printf.sprintf "%d@%d" c p) cs)

(* The reuse pool of a universe: its cache roots, concretized. *)
let pool_of ~repo (u : Fuzz.Gen.t) =
  List.filter_map
    (fun r ->
      match concretize ~repo ~options:(options ~prune:false ()) r with
      | Ok o -> Some (root_spec o)
      | Error _ -> None)
    u.Fuzz.Gen.u_cache_roots

let has_splices (u : Fuzz.Gen.t) =
  List.exists (fun (p : Fuzz.Gen.upkg) -> p.Fuzz.Gen.up_splices <> []) u.Fuzz.Gen.u_pkgs

let verify_clean ~repo ~request spec =
  Core.Verify.check_solution ~repo ~request:(Spec.Parser.parse request) spec = []

let arb_universe =
  QCheck.make
    ~print:(fun seed -> Fuzz.Gen.to_ocaml (Fuzz.Gen.generate (Fuzz.Rng.create seed)))
    QCheck.Gen.(int_range 0 1_000_000)

(* ---- 1. pruned vs unpruned fresh solves ---- *)

let prop_prune_parity =
  QCheck.Test.make ~name:"pruned solves agree with unpruned solves (glucose)"
    ~count:20 arb_universe (fun seed ->
      let u = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
      let repo = Fuzz.Gen.to_repo u in
      let reuse = pool_of ~repo u in
      let splicing = has_splices u in
      List.for_all
        (fun r ->
          let unpruned =
            concretize ~repo ~options:(options ~splicing ~reuse ~prune:false ()) r
          in
          let pruned =
            concretize ~repo ~options:(options ~splicing ~reuse ~prune:true ()) r
          in
          match (unpruned, pruned) with
          | Ok a, Ok b ->
            if costs a <> costs b then
              QCheck.Test.fail_reportf
                "request %s: pruning changed costs (%s vs %s)" r (pp_costs (costs a))
                (pp_costs (costs b))
            else if
              Spec.Concrete.dag_hash (root_spec a)
              <> Spec.Concrete.dag_hash (root_spec b)
            then
              QCheck.Test.fail_reportf "request %s: pruning changed the DAG" r
            else if not (verify_clean ~repo ~request:r (root_spec b)) then
              QCheck.Test.fail_reportf "request %s: pruned solution invalid" r
            else true
          | Error _, Error _ -> true
          | Ok _, Error f ->
            QCheck.Test.fail_reportf "request %s: pruning broke a SAT request: %s" r
              f.CC.f_message
          | Error f, Ok _ ->
            QCheck.Test.fail_reportf
              "request %s: pruning fixed an UNSAT request (%s)" r f.CC.f_message)
        u.Fuzz.Gen.u_requests)

(* ---- 2. session vs fresh solves ---- *)

let prop_session_parity =
  QCheck.Test.make ~name:"session solves match fresh solves (glucose)"
    ~count:15 arb_universe (fun seed ->
      let u = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
      let repo = Fuzz.Gen.to_repo u in
      let reuse = pool_of ~repo u in
      let splicing = has_splices u in
      let opts = options ~splicing ~reuse ~prune:true () in
      let roots =
        List.filter_map
          (fun r ->
            let name =
              (Spec.Parser.parse r).Spec.Abstract.root.Spec.Abstract.name
            in
            if Pkg.Repo.mem repo name && not (Pkg.Repo.is_virtual repo name) then
              Some name
            else None)
          u.Fuzz.Gen.u_requests
        |> List.sort_uniq String.compare
      in
      if roots = [] then true
      else
        match CC.Session.create ~repo ~options:opts ~roots () with
        | Error e -> QCheck.Test.fail_reportf "session create: %s" e
        | Ok session ->
          List.for_all
            (fun r ->
              let fresh = concretize ~repo ~options:opts r in
              let inc =
                CC.Session.solve session (Core.Encode.request_of_string r)
              in
              match (fresh, inc) with
              | Ok a, Ok b ->
                if costs a <> costs b then
                  QCheck.Test.fail_reportf
                    "request %s: session costs %s, fresh costs %s" r
                    (pp_costs (costs b))
                    (pp_costs (costs a))
                else if not (verify_clean ~repo ~request:r (root_spec b)) then
                  QCheck.Test.fail_reportf "request %s: session solution invalid" r
                else true
              | Error _, Error _ -> true
              | Ok _, Error f ->
                QCheck.Test.fail_reportf
                  "request %s: fresh SAT but session failed: %s" r f.CC.f_message
              | Error f, Ok _ ->
                QCheck.Test.fail_reportf
                  "request %s: session SAT but fresh failed: %s" r f.CC.f_message)
            u.Fuzz.Gen.u_requests)

(* ---- 2b. portfolio vs single-solver solves ---- *)

(* The byte-identity promise of [options.portfolio]: a raced solve must
   return the same solvability, the same optimal costs, and the same
   solution DAG (dag_hash) as the single-solver run — racing may only
   change wall time. *)
let prop_portfolio_parity =
  QCheck.Test.make
    ~name:"portfolio=4 solves are byte-identical to portfolio=1 (glucose)"
    ~count:10 arb_universe (fun seed ->
      let u = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
      let repo = Fuzz.Gen.to_repo u in
      let reuse = pool_of ~repo u in
      let splicing = has_splices u in
      let opts = options ~splicing ~reuse ~prune:true () in
      List.for_all
        (fun r ->
          let single = concretize ~repo ~options:opts r in
          let raced =
            concretize ~repo ~options:{ opts with CC.portfolio = 4 } r
          in
          match (single, raced) with
          | Ok a, Ok b ->
            if costs a <> costs b then
              QCheck.Test.fail_reportf
                "request %s: portfolio costs %s, single costs %s" r
                (pp_costs (costs b))
                (pp_costs (costs a))
            else if
              Spec.Concrete.dag_hash (root_spec a)
              <> Spec.Concrete.dag_hash (root_spec b)
            then
              QCheck.Test.fail_reportf "request %s: portfolio changed the DAG" r
            else true
          | Error a, Error b ->
            a.CC.f_message = b.CC.f_message
            || QCheck.Test.fail_reportf
                 "request %s: failure messages differ: %S vs %S" r
                 a.CC.f_message b.CC.f_message
          | Ok _, Error f ->
            QCheck.Test.fail_reportf
              "request %s: single SAT but portfolio failed: %s" r
              f.CC.f_message
          | Error f, Ok _ ->
            QCheck.Test.fail_reportf
              "request %s: portfolio SAT but single failed: %s" r
              f.CC.f_message)
        (u.Fuzz.Gen.u_requests @ u.Fuzz.Gen.u_cache_roots))

(* ---- 3. layered (delta) grounding vs full regrounding ---- *)

(* Rendered, order-insensitive image of a ground program: rules and
   minimize instances as sorted strings over printed atoms, plus the
   possible-atom set. Two groundings with this image equal are
   interchangeable for the solver. *)
let render_ground g =
  let atom id = Format.asprintf "%a" (Asp.Ground.pp_atom_id g) id in
  let ids l = List.sort compare (List.map atom l) in
  let bound = function Some b -> string_of_int b | None -> "_" in
  let rules =
    List.map
      (fun (r : Asp.Ground.grule) ->
        let head =
          match r.Asp.Ground.ghead with
          | Asp.Ground.Gatom id -> "a:" ^ atom id
          | Asp.Ground.Gconstraint -> "c"
          | Asp.Ground.Gchoice { lo; hi; gelems } ->
            Printf.sprintf "ch:%s..%s{%s}" (bound lo) (bound hi)
              (String.concat ";" (ids gelems))
        in
        Printf.sprintf "%s :- %s ~ %s" head
          (String.concat "," (ids r.Asp.Ground.gpos))
          (String.concat "," (ids r.Asp.Ground.gneg)))
      (Asp.Ground.rules g)
    |> List.sort compare
  in
  let mins =
    List.map
      (fun (m : Asp.Ground.gmin) ->
        Printf.sprintf "min %d@%d|%s :- %s ~ %s" m.Asp.Ground.gweight
          m.Asp.Ground.gpriority m.Asp.Ground.gkey
          (String.concat "," (ids m.Asp.Ground.gcond_pos))
          (String.concat "," (ids m.Asp.Ground.gcond_neg)))
      (Asp.Ground.minimizes g)
    |> List.sort compare
  in
  let possible = ref [] in
  for id = 0 to Asp.Ground.atom_count g - 1 do
    if Asp.Ground.possible g id then possible := atom id :: !possible
  done;
  String.concat "\n"
    (rules @ mins @ [ "possible: " ^ String.concat "," (List.sort compare !possible) ])

(* A miniature concretizer-shaped program: derived node closure, a
   choice rule whose elements come from pool facts, negation over a
   pool-derived atom, a constraint and two minimize layers touching
   the pool stratum, and facts shared across entries. *)
let mini_base =
  {|
    root(a). dep(a,b). dep(b,c). tag(base).
    decl(a,"1"). decl(b,"1"). decl(c,"1").
    bad("9").
    node(P) :- root(P).
    node(P) :- node(Q), dep(Q,P).
    { hash(P,H) : installed(P,H) } 1 :- node(P).
    version(P,V) :- hash(P,H), hash_ver(H,V).
    picked(P) :- hash(P,H).
    chosen_decl(P) :- node(P), decl(P,V), not picked(P).
    tagged(P,T) :- hash(P,H), tag(T).
    seen(V) :- hash_ver(H,V).
    :- version(P,V), bad(V).
    picked_w(P,1) :- picked(P).
    picked_w(P,5) :- chosen_decl(P).
    #minimize { W@1,P : picked_w(P,W) }.
    #minimize { 1@2,V : seen(V) }.
  |}

let mini_entry i =
  let p = Asp.Term.sym [| "a"; "b"; "c" |].(i mod 3) in
  let v = Asp.Term.str [| "1"; "2"; "3"; "9" |].(i mod 4) in
  let h = Asp.Term.str ("h" ^ string_of_int i) in
  ( "h" ^ string_of_int i,
    [ Asp.Ast.atom "installed" [ p; h ];
      Asp.Ast.atom "hash_ver" [ h; v ];
      Asp.Ast.atom "pool_ver" [ p; v ];
      (* one fact shared by every entry: exercises refcount survival *)
      Asp.Ast.atom "tag" [ Asp.Term.sym "shared" ] ] )

let mini_entries = List.init 6 mini_entry

let full_ground_of subset =
  let facts =
    List.concat_map (fun (_, facts) -> List.map Asp.Ast.fact facts) subset
  in
  Asp.Ground.ground (Asp.parse mini_base @ facts)

let subset_of_mask mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) mini_entries

let check_layered_equiv what lg subset =
  let got = render_ground (Asp.Ground.layered_snapshot lg) in
  let want = render_ground (full_ground_of subset) in
  if got <> want then
    QCheck.Test.fail_reportf "%s: layered snapshot differs from full reground@.%s"
      what
      (String.concat "\n"
         (List.filter
            (fun l -> l <> "")
            (let gs = String.split_on_char '\n' got
             and ws = String.split_on_char '\n' want in
             List.map (fun l -> if List.mem l ws then "" else "+ " ^ l) gs
             @ List.map (fun l -> if List.mem l gs then "" else "- " ^ l) ws)));
  true

let prop_layered_equiv =
  QCheck.Test.make ~name:"delta-reground == full reground (mini program)" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 0xFFFFFF))
    (fun seed ->
      let s0 = subset_of_mask (seed land 0x3F) in
      let s1 = subset_of_mask ((seed lsr 6) land 0x3F) in
      let lg = Asp.Ground.layered_create (Asp.parse mini_base) in
      ignore (check_layered_equiv "empty" lg []);
      Asp.Ground.layered_update lg ~removed:[] ~added:s0;
      ignore (check_layered_equiv "first pool" lg s0);
      let removed =
        List.filter_map
          (fun (k, _) -> if List.mem_assoc k s1 then None else Some k)
          s0
      in
      let added = List.filter (fun (k, _) -> not (List.mem_assoc k s0)) s1 in
      Asp.Ground.layered_update lg ~removed ~added;
      ignore (check_layered_equiv "delta to second pool" lg s1);
      Asp.Ground.layered_update lg
        ~removed:(Asp.Ground.layered_entry_keys lg)
        ~added:[];
      ignore (check_layered_equiv "drained" lg []);
      true)

(* ---- 4. parallel grounding determinism ---- *)

let test_ground_jobs_determinism () =
  let prog =
    Asp.parse mini_base
    @ List.concat_map (fun (_, facts) -> List.map Asp.Ast.fact facts) mini_entries
  in
  let render g =
    Format.asprintf "%d@.%a" (Asp.Ground.atom_count g) Asp.Ground.pp g
  in
  let reference = render (Asp.Ground.ground ~jobs:1 prog) in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "ground --jobs %d byte-identical" jobs)
        reference
        (render (Asp.Ground.ground ~jobs prog)))
    [ 2; 3; 4 ]

(* ---- 5. warm delta-grounded sessions vs fresh solves ---- *)

(* the session roots of a universe: request roots that name known
   non-virtual packages *)
let roots_of ~repo (u : Fuzz.Gen.t) =
  List.filter_map
    (fun r ->
      let name = (Spec.Parser.parse r).Spec.Abstract.root.Spec.Abstract.name in
      if Pkg.Repo.mem repo name && not (Pkg.Repo.is_virtual repo name) then
        Some name
      else None)
    u.Fuzz.Gen.u_requests
  |> List.sort_uniq String.compare

(* Drive a {!CC.Warm} universe through random buildcache swaps: each
   round applies a random subset of the universe's pool as a fact-level
   delta ({!Asp.Ground.layered_update} under the hood — removed entries
   retract, added ones extend) and checks every request against a fresh
   unpruned solve over the same pool: same optimal costs, Verify-clean
   specs. This is the end-to-end delta-reground == full-reground
   property over concretizer-real programs. *)
let prop_warm_delta_parity =
  QCheck.Test.make
    ~name:"warm delta-grounded sessions match fresh solves (glucose)"
    ~count:8 arb_universe (fun seed ->
      let u = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
      let repo = Fuzz.Gen.to_repo u in
      let pool = pool_of ~repo u in
      let splicing = has_splices u in
      let roots = roots_of ~repo u in
      if roots = [] then true
      else begin
        let rng = Fuzz.Rng.fork (Fuzz.Rng.create seed) "warm-deltas" in
        let subset () = List.filter (fun _ -> Fuzz.Rng.bool rng) pool in
        let pool0 = subset () in
        match
          CC.Warm.create ~repo
            ~options:(options ~splicing ~reuse:pool0 ~prune:false ())
            ~roots ()
        with
        | Error e -> QCheck.Test.fail_reportf "warm create: %s" e
        | Ok warm ->
          List.for_all
            (fun round ->
              let p = if round = 0 then pool0 else subset () in
              if round > 0 then ignore (CC.Warm.set_pool warm p);
              let session = CC.Warm.session warm in
              let opts = options ~splicing ~reuse:p ~prune:false () in
              List.for_all
                (fun r ->
                  let fresh = concretize ~repo ~options:opts r in
                  let inc =
                    CC.Session.solve session (Core.Encode.request_of_string r)
                  in
                  match (fresh, inc) with
                  | Ok a, Ok b ->
                    if costs a <> costs b then
                      QCheck.Test.fail_reportf
                        "round %d request %s: warm costs %s, fresh costs %s"
                        round r
                        (pp_costs (costs b))
                        (pp_costs (costs a))
                    else if not (verify_clean ~repo ~request:r (root_spec b))
                    then
                      QCheck.Test.fail_reportf
                        "round %d request %s: warm solution invalid" round r
                    else true
                  | Error _, Error _ -> true
                  | Ok _, Error f ->
                    QCheck.Test.fail_reportf
                      "round %d request %s: fresh SAT but warm failed: %s" round
                      r f.CC.f_message
                  | Error f, Ok _ ->
                    QCheck.Test.fail_reportf
                      "round %d request %s: warm SAT but fresh failed: %s" round
                      r f.CC.f_message)
                u.Fuzz.Gen.u_requests)
            [ 0; 1; 2 ]
      end)

(* ---- 6. on-disk ground-cache round-trip ---- *)

(* A warm universe persisted by one process and loaded by the next must
   behave identically: the loaded grounding answers every request with
   the same costs and the same DAG as the one that was computed cold,
   and a pool swap persisted via set_pool is hit by a later cold start
   under the swapped pool. *)
let test_groundcache_roundtrip () =
  let rec find seed =
    if seed > 142 then Alcotest.fail "no universe with roots and a pool"
    else
      let u = Fuzz.Gen.generate (Fuzz.Rng.create seed) in
      let repo = Fuzz.Gen.to_repo u in
      let pool = pool_of ~repo u in
      let roots = roots_of ~repo u in
      if roots <> [] && pool <> [] then (u, repo, pool, roots)
      else find (seed + 1)
  in
  let u, repo, pool, roots = find 42 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "spackml-gc-test-%d" (Unix.getpid ()))
  in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let opts = options ~reuse:pool ~prune:false () in
  let create ?(reuse = pool) () =
    match
      CC.Warm.create ~repo ~options:{ opts with CC.reuse } ~ground_cache:dir
        ~roots ()
    with
    | Ok w -> w
    | Error e -> Alcotest.fail ("warm create: " ^ e)
  in
  let w1 = create () in
  Alcotest.(check bool) "first create grounds cold" false (CC.Warm.from_cache w1);
  let w2 = create () in
  Alcotest.(check bool) "second create loads from disk" true (CC.Warm.from_cache w2);
  Alcotest.(check string)
    "same pool digest" (CC.Warm.digest w1) (CC.Warm.digest w2);
  let answers w =
    let session = CC.Warm.session w in
    String.concat "\n"
      (List.map
         (fun r ->
           match CC.Session.solve session (Core.Encode.request_of_string r) with
           | Ok o ->
             Printf.sprintf "ok %s %s"
               (Spec.Concrete.dag_hash (root_spec o))
               (pp_costs (costs o))
           | Error f -> "error " ^ f.CC.f_message)
         u.Fuzz.Gen.u_requests)
  in
  Alcotest.(check string)
    "cold and cache-loaded groundings answer identically" (answers w1)
    (answers w2);
  (* a pool swap persisted by set_pool is a cache hit for the next cold
     start under that pool (the solve server's reload path) *)
  let half = List.filteri (fun i _ -> i mod 2 = 0) pool in
  if CC.Warm.pool_digest half <> CC.Warm.pool_digest pool then begin
    ignore (CC.Warm.set_pool w2 half);
    let w3 = create ~reuse:half () in
    Alcotest.(check bool)
      "swapped pool loads from the set_pool-persisted entry" true
      (CC.Warm.from_cache w3);
    Alcotest.(check string)
      "swapped-pool digests agree" (CC.Warm.digest w2) (CC.Warm.digest w3)
  end

(* ---- 7. batch determinism ---- *)

let render_batch results =
  String.concat "\n"
    (List.map
       (function
         | Ok (o : CC.outcome) ->
           Printf.sprintf "ok %s %s"
             (Spec.Concrete.dag_hash (root_spec o))
             (pp_costs (costs o))
         | Error (f : CC.failure) -> "error " ^ f.CC.f_message)
       results)

let test_batch_determinism () =
  let u = Fuzz.Gen.generate (Fuzz.Rng.create 42) in
  let repo = Fuzz.Gen.to_repo u in
  let reuse = pool_of ~repo u in
  let requests =
    List.concat (List.init 3 (fun _ -> u.Fuzz.Gen.u_requests @ u.Fuzz.Gen.u_cache_roots))
    |> List.map Core.Encode.request_of_string
  in
  let opts = options ~reuse ~prune:true () in
  let seq = CC.concretize_batch ~repo ~options:opts ~jobs:1 requests in
  let par = CC.concretize_batch ~repo ~options:opts ~jobs:4 requests in
  Alcotest.(check int) "one result per request" (List.length requests) (List.length seq);
  Alcotest.(check string) "jobs=1 and jobs=4 byte-identical" (render_batch seq)
    (render_batch par)

let () =
  Alcotest.run "perf_equiv"
    (( "layered-grounding",
       [ QCheck_alcotest.to_alcotest prop_layered_equiv;
         Alcotest.test_case "parallel grounding determinism" `Quick
           test_ground_jobs_determinism;
         Alcotest.test_case "ground-cache round-trip" `Quick
           test_groundcache_roundtrip ] )
    :: [ ( "equivalence-glucose",
           [ QCheck_alcotest.to_alcotest prop_prune_parity;
             QCheck_alcotest.to_alcotest prop_session_parity;
             QCheck_alcotest.to_alcotest prop_portfolio_parity;
             QCheck_alcotest.to_alcotest prop_warm_delta_parity;
             Alcotest.test_case "batch determinism (glucose)" `Quick
               test_batch_determinism ] ) ])
