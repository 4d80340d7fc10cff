(* install-spliced: install spliced plans from binaries, rewiring
   instead of rebuilding (§4.2), through a fault-free mirror group over
   the local buildcache; then install each again into the same store. *)

open Common

let tail_pct = 99.

type plan = { name : string; spec : Spec.Concrete.t; nodes : int }

type state = {
  repo : Pkg.Repo.t;
  cache : Binary.Buildcache.t;
  plans : plan list;
  fingerprints : (string, string) Hashtbl.t;
      (** store fingerprint after the warm-up pass of each plan *)
}

let fresh_store () = Binary.Store.create ~root:"/usr/spack" (Binary.Vfs.create ())

let mirrors st =
  Binary.Mirror.group [ Binary.Mirror.create ~name:"local" st.cache ]

let install st ~mirrors store p =
  Binary.Installer.install store ~repo:st.repo ~mirrors ~jobs:1 p.spec

(* The local cache, every MPI-dependent objective concretized as
   [<root> ^mpiabi] with splicing against it, and one untimed pass per
   plan whose store fingerprint the timed passes must reproduce. *)
let setup () =
  let repo = Radiuss.Universe.repo () in
  let local = Radiuss.Caches.local ~repo () in
  let options =
    { Core.Concretizer.default_options with
      Core.Concretizer.reuse = Radiuss.Caches.reusable_specs local;
      splicing = true }
  in
  let plans =
    List.map
      (fun name ->
        match
          Core.Concretizer.concretize_v ~repo ~options
            [ Core.Encode.request_of_string (name ^ " ^mpiabi") ]
        with
        | Ok o when Core.Decode.is_spliced_solution o.Core.Concretizer.solution ->
          let spec = List.hd o.Core.Concretizer.solution.Core.Decode.specs in
          { name; spec; nodes = List.length (Spec.Concrete.nodes spec) }
        | Ok _ -> failwith ("install-spliced: " ^ name ^ " ^mpiabi is not spliced")
        | Error f -> failwith ("install-spliced: " ^ name ^ ": " ^ f.Core.Concretizer.f_message))
      Radiuss.Universe.mpi_dependent
  in
  let st = { repo; cache = local.Radiuss.Caches.cache; plans; fingerprints = Hashtbl.create 32 } in
  List.iter
    (fun p ->
      let store = fresh_store () in
      ignore (Binary.Errors.ok_exn (install st ~mirrors:(mirrors st) store p));
      Hashtbl.replace st.fingerprints p.name (Binary.Store.fingerprint store))
    plans;
  st

let link_objects (r : Binary.Installer.report) =
  match r.Binary.Installer.link_result with Ok n -> Some n | Error _ -> None

let run ~seed ~seconds ~trace ~setups =
  let st, before = repeated_setup ~n:setups ~setup ~teardown:ignore in
  let c = checks () in
  let rec_ = recorder () in
  let lat = ref [] and fresh_ms = ref [] and re_ms = ref [] in
  let attempted = ref 0 and failed = ref 0 and checking = ref 0. in
  let counts = Hashtbl.create 16 in
  let count k v = Hashtbl.replace counts k (v +. Option.value ~default:0. (Hashtbl.find_opt counts k)) in
  let order = ref [] in
  Gc.full_major ();
  reset_peak_rss ();
  let wall =
    timed_rounds ~seconds ~rng:(Random.State.make [| seed |]) st.plans (fun op p ->
        incr attempted;
        if op < 8 then order := p.name :: !order;
        let store = fresh_store () and mirrors = mirrors st in
        let sp name f = if trace then span rec_ ~op ~parent:"pass" name f else f () in
        let t0 = now () in
        let r1, r2, writes =
          (if trace then span rec_ ~op "pass" else fun f -> f ()) @@ fun () ->
          let r1 = sp "install.fresh" (fun () -> install st ~mirrors store p) in
          let t1 = now () in
          let writes = Binary.Store.write_count store in
          let r2 = sp "install.reinstall" (fun () -> install st ~mirrors store p) in
          let t2 = now () in
          fresh_ms := ((t1 -. t0) *. 1000.) :: !fresh_ms;
          re_ms := ((t2 -. t1) *. 1000.) :: !re_ms;
          (r1, r2, writes)
        in
        let ms = ms_since t0 in
        let tc = now () in
        (match (r1, r2) with
        | Ok r1, Ok r2 ->
          lat := ms :: !lat;
          let n l = float_of_int (List.length l) in
          check c (link_objects r1 <> None && link_objects r2 <> None)
            (lazy (p.name ^ ": link check failed"));
          check c
            (Binary.Installer.rebuild_count r1 = 0 && Binary.Installer.degraded_count r1 = 0)
            (lazy (p.name ^ ": spliced plan rebuilt nodes"));
          check c (r1.Binary.Installer.rewired <> [])
            (lazy (p.name ^ ": spliced plan rewired nothing"));
          check c
            (List.length r2.Binary.Installer.reused = p.nodes
            && Binary.Installer.rebuild_count r2 = 0
            && Binary.Store.write_count store = writes)
            (lazy (p.name ^ ": reinstall did not reuse every node"));
          check c
            (Binary.Store.fingerprint store = Hashtbl.find st.fingerprints p.name)
            (lazy (p.name ^ ": store fingerprint differs from the warm-up install"));
          count "installer.rewired" (n r1.Binary.Installer.rewired);
          count "installer.from_cache" (n r1.Binary.Installer.from_cache);
          count "installer.built" (n r1.Binary.Installer.built);
          count "relocate.patched" (float_of_int r1.Binary.Installer.reloc.Binary.Relocate.patched);
          (match r1.Binary.Installer.fetch_telemetry with
          | Some t ->
            count "mirror.fetched" (float_of_int t.Binary.Mirror.fetched);
            count "mirror.attempts" (float_of_int t.Binary.Mirror.attempts)
          | None -> ());
          count "store.writes" (float_of_int writes);
          count "linker.objects" (float_of_int (Option.value ~default:0 (link_objects r1)))
        | Error e, _ | _, Error e ->
          incr failed;
          prerr_endline (Format.asprintf "perfbench: %s: %a" p.name Binary.Errors.pp e));
        checking := !checking +. (now () -. tc))
  in
  let rss = peak_rss_mb () in
  let n = List.length !lat in
  let details =
    [ ("plans", Sjson.Int (List.length st.plans));
      ("passes", Sjson.Int !attempted);
      ("tail_percentile", Sjson.Float tail_pct);
      ("tail_samples_beyond", Sjson.Int (beyond tail_pct !lat));
      ("first_plans", Sjson.Array (List.rev_map (fun s -> Sjson.String s) !order));
      ("digest", Sjson.String (digest (Hashtbl.fold (fun k f acc -> (k ^ " " ^ f) :: acc) st.fingerprints [])));
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
      write_spans rec_ ~workload:"install-spliced" ~seed;
      [ ("installer.fresh_ms", median !fresh_ms);
        ("installer.reinstall_ms", median !re_ms);
        ("trace.p50_ms", median !lat) ]
      @ List.map
          (fun k ->
            (k, Option.value ~default:0. (Hashtbl.find_opt counts k) /. float_of_int (max 1 n)))
          [ "installer.rewired"; "installer.from_cache"; "installer.built"; "relocate.patched";
            "mirror.fetched"; "mirror.attempts"; "store.writes"; "linker.objects" ]
    end
  in
  { correct = c.wrong = 0; attempted = !attempted; failed = !failed; metrics; details }
