(* Shared plumbing of the benchmark: clocks, order statistics, peak
   memory, the in-memory span recorder and the result record every
   workload returns. *)

let now = Obs.Clock.now_s

let ms_since t0 = (now () -. t0) *. 1000.

(* ---- order statistics ---------------------------------------------- *)

let sorted l = List.sort compare l

(* Linear interpolation between closest ranks (the "inclusive" method),
   [p] in [0, 100]. *)
let percentile p l =
  match sorted l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let x = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = percentile 50. l

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Samples strictly above the [p]th percentile: the tail percentile of
   a workload is fixed, and this count says how well it was sampled. *)
let beyond p l =
  let v = percentile p l in
  List.length (List.filter (fun x -> x > v) l)

(* ---- peak resident memory ----------------------------------------- *)

(* Writing 5 to clear_refs resets VmHWM to the current RSS, so the
   high-water mark read at the end covers the timed phase only. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ---- seeded draws --------------------------------------------------- *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- spans --------------------------------------------------------- *)

(* A span recorded by the benchmark around a call into the program.
   Spans of one operation share [op]; [parent] names the enclosing
   span ("" for the operation's root). Kept in memory and written out
   when the run ends. *)
type span = { op : int; name : string; parent : string; t0 : float; t1 : float }

type recorder = { mutable spans : span list }

let recorder () = { spans = [] }

let add_span r ~op ?(parent = "") name t0 t1 =
  r.spans <- { op; name; parent; t0; t1 } :: r.spans

let span r ~op ?parent name f =
  let t0 = now () in
  let x = f () in
  add_span r ~op ?parent name t0 (now ());
  x

let span_ms s = (s.t1 -. s.t0) *. 1000.

(* Mean per operation of the self time of the spans called [name]
   (one per operation): their duration minus the part their children
   cover. Children never overlap here. *)
let self_ms r ~ops name =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent = name then
        Hashtbl.replace children s.op
          (span_ms s +. Option.value ~default:0. (Hashtbl.find_opt children s.op)))
    r.spans;
  let total =
    List.fold_left
      (fun acc s ->
        if s.name <> name then acc
        else acc +. span_ms s -. Option.value ~default:0. (Hashtbl.find_opt children s.op))
      0. r.spans
  in
  if ops = 0 then 0. else total /. float_of_int ops

(* Where a run leaves its files (span dumps), inside the checkout it
   runs in. *)
let scratch_dir = ".perfbench"

let scratch name =
  (try Unix.mkdir scratch_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat scratch_dir name

let write_spans r ~workload ~seed =
  let oc = open_out (scratch (Printf.sprintf "spans-%s-%d.jsonl" workload seed)) in
  List.iter
    (fun s ->
      output_string oc
        (Sjson.to_string
           (Sjson.Object
              [ ("op", Sjson.Int s.op);
                ("name", Sjson.String s.name);
                ("parent", Sjson.String s.parent);
                ("ms", Sjson.Float (span_ms s)) ]));
      output_char oc '\n')
    (List.rev r.spans);
  close_out oc

(* Order-independent digest of a run's answers. *)
let digest lines = Chash.hash_string (String.concat "\n" (List.sort compare lines))

(* ---- results ------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (** by name; units come from the catalog in main.ml *)
  details : (string * Sjson.t) list;
      (** seed, draw and check summaries, printed on the line before
          the result *)
}

(* Every output check funnels through here: the first few messages go
   to stderr, all of them make the run incorrect. *)
type checks = { mutable wrong : int }

let checks () = { wrong = 0 }

let check c ok msg =
  if not ok then begin
    c.wrong <- c.wrong + 1;
    if c.wrong <= 5 then prerr_endline ("perfbench: check failed: " ^ Lazy.force msg)
  end

(* Set a workload up [n] times, timing each; the last state is kept
   for the timed phase and earlier ones torn down. Returns the state
   and the times. *)
let repeated_setup ~n ~setup ~teardown =
  let rec go i times prev =
    (match prev with Some s -> teardown s | None -> ());
    Gc.full_major ();
    let t0 = now () in
    let s = setup () in
    let dt = now () -. t0 in
    if i + 1 >= n then (s, dt :: times) else go (i + 1) (dt :: times) (Some s)
  in
  go 0 [] None

(* [setup_s]: the median of the set-up times [before] the timed phase
   and of [n] more set-ups after it (each torn down at once), so that
   it covers the same host conditions as the timed phase. *)
let setup_seconds ~n ~setup ~teardown before =
  let after =
    List.init n (fun _ ->
        let s, times = repeated_setup ~n:1 ~setup ~teardown in
        teardown s;
        List.hd times)
  in
  median (before @ after)

(* The timed phase of a one-shot workload: whole rounds, each a seeded
   permutation of [items], until [seconds] have passed; [f] gets the
   operation's index and item. Ending on a round boundary gives every
   run the same mix of operations whatever its seed, so only their
   order differs. Returns the measured wall seconds. *)
let timed_rounds ~seconds ~rng items f =
  let t0 = now () and op = ref 0 in
  while now () -. t0 < seconds do
    List.iter
      (fun x ->
        f !op x;
        incr op)
      (shuffle rng items)
  done;
  now () -. t0
