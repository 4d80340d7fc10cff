(* warm-swap: the solver-side work of a resident solve server's worker,
   in the benchmark's own domain. Fresh solves prune with a cached
   dependency closure; session solves run on a warm delta-grounded
   universe (Core.Concretizer.Warm); buildcache swaps evict the closure
   cache and make the next session request apply the pool delta
   (Warm.set_pool -> Asp.Ground.layered_update) and rebuild its
   session. This is what Core.Serve does per request and per
   set_reuse, without the server's domains, queue and wire framing. *)

open Common

let tail_pct = 99.

(* Requests between buildcache swaps. *)
let swap_every = 128

type state = {
  repo : Pkg.Repo.t;
  pools : Spec.Concrete.t list array;  (** the local cache, and it minus 10% *)
  warm : Core.Concretizer.Warm.t;
}

let options reuse = { Core.Concretizer.default_options with Core.Concretizer.reuse }

(* The local cache, and the same cache minus a seeded 10% of its
   entries: the two buildcaches the run swaps between. *)
let pools ~seed repo =
  let local = Radiuss.Caches.reusable_specs (Radiuss.Caches.local ~repo ()) in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let n = List.length local in
  let drop = Hashtbl.create 64 in
  List.iteri (fun i k -> if i < n / 10 then Hashtbl.replace drop k ()) (shuffle rng (List.init n Fun.id));
  [| local; List.filteri (fun i _ -> not (Hashtbl.mem drop i)) local |]

(* The caches, and the warm universe over all 32 objectives grounded
   with the first of them. *)
let setup ~seed () =
  let repo = Radiuss.Universe.repo () in
  let pools = pools ~seed repo in
  match
    Core.Concretizer.Warm.create ~repo ~options:(options pools.(0))
      ~roots:Radiuss.Universe.top_level ()
  with
  | Ok warm -> { repo; pools; warm }
  | Error e -> failwith ("warm-swap: Warm.create: " ^ e)

(* Every fourth request runs in session mode. Each round is a fresh
   seeded permutation of the objectives, so which of them run in
   session mode changes from round to round, and over a run every
   objective runs in both modes. *)
let in_session_mode op = op mod 4 = 0

(* One-shot answers per (objective, pool): what a fresh request must
   equal byte for byte, and whose costs a session request must match. *)
let expected st =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun p reuse ->
      List.iter
        (fun text ->
          let canon =
            Core.Serve.canonical_of_result
              (Core.Concretizer.concretize_v ~repo:st.repo ~options:(options reuse)
                 [ Core.Encode.request_of_string text ])
          in
          Hashtbl.replace tbl (text, p)
            (Sjson.to_string canon, Sjson.to_string (Sjson.member "costs" canon)))
        Radiuss.Universe.top_level)
    st.pools;
  tbl

let run ~seed ~seconds ~trace ~setups =
  let st, before = repeated_setup ~n:setups ~setup:(setup ~seed) ~teardown:ignore in
  let tbl = expected st in
  let c = checks () in
  let rec_ = recorder () in
  (* the worker's state: the pool in force with its index, the closure
     cache, and the session (None once a swap made it stale) *)
  let p = ref 0 in
  let pool = ref (Core.Encode.pool_of_specs st.pools.(0)) in
  let closures = Hashtbl.create 64 in
  let session = ref (Some (Core.Concretizer.Warm.session st.warm)) in
  let times = Hashtbl.create 8 in
  let timed ~op ?parent name f =
    let t0 = now () in
    let x = f () in
    let t1 = now () in
    Hashtbl.replace times name ((t1 -. t0) *. 1000. :: Option.value ~default:[] (Hashtbl.find_opt times name));
    if trace then add_span rec_ ~op ?parent name t0 t1;
    x
  in
  let times_of name = Option.value ~default:[] (Hashtbl.find_opt times name) in
  let hits = ref 0 and misses = ref 0 and swaps = ref 0 and sessions = ref 0 in
  let swap op =
    incr swaps;
    timed ~op "warm.swap" @@ fun () ->
    p := 1 - !p;
    pool := Core.Encode.pool_of_specs st.pools.(!p);
    Hashtbl.reset closures;
    session := None
  in
  (* the objectives are package names, so a request's text is its root *)
  let fresh op root =
    let closure =
      match Hashtbl.find_opt closures root with
      | Some cl -> incr hits; cl
      | None ->
        incr misses;
        let cl =
          timed ~op ~parent:"request" "warm.closure" (fun () ->
              Core.Encode.closure ~repo:st.repo ~splicing:false ~pool:!pool [ root ])
        in
        Hashtbl.replace closures root cl;
        cl
    in
    timed ~op ~parent:"request" "warm.fresh" (fun () ->
        Core.Concretizer.concretize_v ~repo:st.repo ~options:(options st.pools.(!p)) ~closure
          [ Core.Encode.request_of_string root ])
  in
  let in_session op root =
    let s =
      match !session with
      | Some s -> s
      | None ->
        incr sessions;
        ignore
          (timed ~op ~parent:"request" "warm.set_pool" (fun () ->
               Core.Concretizer.Warm.set_pool st.warm st.pools.(!p)));
        let s =
          timed ~op ~parent:"request" "warm.session" (fun () ->
              Core.Concretizer.Warm.session st.warm)
        in
        session := Some s;
        s
    in
    timed ~op ~parent:"request" "session.solve" (fun () ->
        Core.Concretizer.Session.solve s (Core.Encode.request_of_string root))
  in
  (* a fresh answer must equal the one-shot solve under the pool in
     force byte for byte; a session answer must match its costs *)
  let check_answer text use_session r =
    let canon = Core.Serve.canonical_of_result r in
    let want_canon, want_costs = Hashtbl.find tbl (text, !p) in
    if use_session then
      check c
        (Sjson.to_string (Sjson.member "costs" canon) = want_costs)
        (lazy (text ^ ": session costs differ from the one-shot solve"))
    else
      check c (Sjson.to_string canon = want_canon)
        (lazy (text ^ ": fresh answer differs from the one-shot solve"))
  in
  let rng = Random.State.make [| seed |] in
  let lat = ref [] and attempted = ref 0 and failed = ref 0 and order = ref [] in
  let n_session = ref 0 and checking = ref 0. in
  Gc.full_major ();
  reset_peak_rss ();
  let wall =
    timed_rounds ~seconds ~rng Radiuss.Universe.top_level (fun op text ->
        let use_session = in_session_mode op in
        if op > 0 && op mod swap_every = 0 then swap op;
        incr attempted;
        if use_session then incr n_session;
        if op < 8 then order := (text ^ if use_session then "/session" else "/fresh") :: !order;
        let t0 = now () in
        let r =
          (if trace then span rec_ ~op "request" else fun f -> f ()) @@ fun () ->
          if use_session then in_session op text else fresh op text
        in
        let ms = ms_since t0 in
        let tc = now () in
        (match r with
        | Ok _ ->
          lat := ms :: !lat;
          check_answer text use_session r
        | Error f ->
          incr failed;
          prerr_endline ("perfbench: " ^ text ^ ": " ^ f.Core.Concretizer.f_message));
        checking := !checking +. (now () -. tc))
  in
  let rss = peak_rss_mb () in
  let n = List.length !lat in
  let details =
    [ ("requests", Sjson.Int !attempted);
      ("session_requests", Sjson.Int !n_session);
      ("swaps", Sjson.Int !swaps);
      ("session_rebuilds", Sjson.Int !sessions);
      ("pool_specs", Sjson.Array (Array.to_list (Array.map (fun l -> Sjson.Int (List.length l)) st.pools)));
      ("tail_percentile", Sjson.Float tail_pct);
      ("tail_samples_beyond", Sjson.Int (beyond tail_pct !lat));
      ("first_requests", Sjson.Array (List.rev_map (fun s -> Sjson.String s) !order));
      ("wrong", Sjson.Int c.wrong) ]
  in
  let metrics =
    if not trace then
      [ ("setup_s", setup_seconds ~n:setups ~setup:(setup ~seed) ~teardown:ignore before);
        ("p50_ms", median !lat);
        ("tail_ms", percentile tail_pct !lat);
        ("ops_per_s", float_of_int n /. (wall -. !checking));
        ("peak_rss_mb", rss) ]
    else begin
      write_spans rec_ ~workload:"warm-swap" ~seed;
      [ ("warm.fresh_ms", median (times_of "warm.fresh"));
        ("session.solve_ms", median (times_of "session.solve"));
        ("warm.closure_ms", mean (times_of "warm.closure"));
        ("warm.closure_hit_frac", float_of_int !hits /. float_of_int (max 1 (!hits + !misses)));
        ("warm.swap_ms", mean (times_of "warm.swap"));
        ("warm.set_pool_ms", mean (times_of "warm.set_pool"));
        ("warm.session_ms", mean (times_of "warm.session"));
        ("trace.p50_ms", median !lat) ]
    end
  in
  { correct = c.wrong = 0; attempted = !attempted; failed = !failed; metrics; details }
