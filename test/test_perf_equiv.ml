(* Performance-stack equivalence properties (reuse-pool pruning,
   incremental sessions, warm universes, batch determinism) over random
   fuzz universes: the fast paths must be observationally equivalent to
   the fresh from-scratch solver.

   - pruning: closure-filtered encodes agree with unpruned encodes on
     solvability, optimal costs, and the solution DAG.
   - sessions: solving under assumptions against a shared ground
     universe returns the same costs as a fresh solve, and its model
     decodes to a Verify-clean spec.
   - grounding: byte-identical for any job count, and left unchanged
     by the translate a session does.
   - warm universes: regrounded on every buildcache swap, they answer
     like fresh solves over the pool in force.
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

(* ---- 3. grounding: translate purity ---- *)

(* A miniature concretizer-shaped program: derived node closure, a
   choice rule whose elements come from pool facts, negation over a
   pool-derived atom, a constraint and two minimize layers, and facts
   shared across pool entries. *)
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

(* The facts of one pool entry. *)
let mini_entry i =
  let p = Asp.Term.sym [| "a"; "b"; "c" |].(i mod 3) in
  let v = Asp.Term.str [| "1"; "2"; "3"; "9" |].(i mod 4) in
  let h = Asp.Term.str ("h" ^ string_of_int i) in
  [ Asp.Ast.atom "installed" [ p; h ];
    Asp.Ast.atom "hash_ver" [ h; v ];
    Asp.Ast.atom "pool_ver" [ p; v ];
    (* one fact shared by every entry *)
    Asp.Ast.atom "tag" [ Asp.Term.sym "shared" ] ]

let mini_program () =
  Asp.parse mini_base
  @ List.concat_map (fun i -> List.map Asp.Ast.fact (mini_entry i)) (List.init 6 Fun.id)

(* Everything a solver reads from a ground program: atom numbering,
   possible atoms, rules in order, minimize instances. *)
let render_ground g =
  let n = Asp.Ground.atom_count g in
  let possible = List.filter (Asp.Ground.possible g) (List.init n Fun.id) in
  let mins =
    List.map
      (fun (m : Asp.Ground.gmin) ->
        Printf.sprintf "%d@%d|%s :- %s ~ %s" m.Asp.Ground.gweight
          m.Asp.Ground.gpriority m.Asp.Ground.gkey
          (String.concat "," (List.map string_of_int m.Asp.Ground.gcond_pos))
          (String.concat "," (List.map string_of_int m.Asp.Ground.gcond_neg)))
      (Asp.Ground.minimizes g)
  in
  Format.asprintf "%d atoms, possible %s@.%a%s" n
    (String.concat "," (List.map string_of_int possible))
    Asp.Ground.pp g (String.concat "\n" mins)

(* A session translates a ground program without changing it, so one
   grounding can back any number of sessions ({!CC.Warm.session}). *)
let test_translate_keeps_ground () =
  let g = Asp.Ground.ground (mini_program ()) in
  let before = render_ground g in
  let cost s =
    match Asp.Logic.session_solve s ~assume:[] with
    | Asp.Logic.Sat m -> pp_costs m.Asp.Logic.costs
    | Asp.Logic.Unsat _ -> "unsat"
  in
  let first = cost (Asp.Logic.session_create g) in
  let second = cost (Asp.Logic.session_create g) in
  Alcotest.(check string) "ground program unchanged by translate" before
    (render_ground g);
  Alcotest.(check string) "two sessions over one grounding agree" first second

(* ---- 4. regrounding warm universes vs fresh solves ---- *)

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

(* A pool's identity for {!Core.Encode.pool_digest}: its set of DAG
   hashes, in any order and with repeats ignored. *)
let dag_hashes specs =
  List.sort_uniq String.compare (List.map Spec.Concrete.dag_hash specs)

(* Drive a {!CC.Warm} universe through buildcache swaps: random subsets
   of the universe's pool, then back to the first one. Each swap must
   report a change exactly when the pool's DAG hashes changed, and a
   reordered copy of the pool in force must report none. Every round
   checks every request against a fresh unpruned solve over the same
   pool: same optimal costs, Verify-clean specs. *)
let prop_warm_reground_parity =
  QCheck.Test.make ~name:"regrounding Warm == fresh" ~count:8 arb_universe
    (fun seed ->
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
        let pool1 = subset () in
        let pool2 = subset () in
        match
          CC.Warm.create ~repo
            ~options:(options ~splicing ~reuse:pool0 ~prune:false ())
            ~roots ()
        with
        | Error e -> QCheck.Test.fail_reportf "warm create: %s" e
        | Ok warm ->
          let prev = ref pool0 in
          List.for_all
            (fun (round, p) ->
              if round > 0 then begin
                let changed = dag_hashes p <> dag_hashes !prev in
                if CC.Warm.set_pool warm p <> changed then
                  QCheck.Test.fail_reportf
                    "round %d: set_pool should return %b (%d -> %d specs)" round
                    changed (List.length !prev) (List.length p);
                if CC.Warm.set_pool warm (List.rev p) then
                  QCheck.Test.fail_reportf
                    "round %d: set_pool reported a change for the same pool" round;
                prev := p
              end;
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
            [ (0, pool0); (1, pool1); (2, pool2); (3, pool0) ]
      end)

(* ---- 5. batch determinism ---- *)

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
    [ ( "grounding",
        [ Alcotest.test_case "translate keeps the ground" `Quick
            test_translate_keeps_ground ] );
      ( "equivalence-glucose",
        [ QCheck_alcotest.to_alcotest prop_prune_parity;
          QCheck_alcotest.to_alcotest prop_session_parity;
          QCheck_alcotest.to_alcotest prop_warm_reground_parity;
          Alcotest.test_case "batch determinism (glucose)" `Quick
            test_batch_determinism ] ) ]
