type model = {
  atoms : Ast.atom list;
  costs : (int * int) list;
  sat_stats : (string * int) list;
  stable_checks : int;
  loop_clauses : int;
}

type outcome = Sat of model | Unsat of Sat.proof_step list option

(* Fault-injection hook for the fuzz harness: skip the stability
   check, accepting possibly non-stable SAT models. *)
let hook_skip_unfounded = ref false

(* The atoms in non-trivial SCCs of the positive dependency graph
   (edges run from every head, choice elements included, to each
   positive body atom; a self-loop is non-trivial), and the number of
   such SCCs. Tarjan's algorithm over an explicit stack of frames, so
   the OCaml stack stays flat whatever the atom count. A closed atom's
   index becomes [max_int], which leaves every later [low] unchanged. *)
let loop_components n rules =
  let succ = Array.make n [] in
  let edges (r : Ground.grule) h = List.iter (fun p -> succ.(h) <- p :: succ.(h)) r.gpos in
  List.iter
    (fun (r : Ground.grule) ->
      match r.ghead with
      | Ground.Gconstraint -> ()
      | Ground.Gatom h -> edges r h
      | Ground.Gchoice { gelems; _ } -> List.iter (edges r) gelems)
    rules;
  let index = Array.make n (-1) and low = Array.make n 0 in
  let in_loop = Array.make n false and sccs = ref 0 in
  let next = ref 0 and stack = ref [] and frames = ref [] in
  let visit v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    frames := (v, ref succ.(v)) :: !frames
  in
  let rec close v acc =
    match !stack with
    | [] -> acc
    | w :: rest ->
      stack := rest;
      index.(w) <- max_int;
      if w = v then w :: acc else close v (w :: acc)
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then visit root;
    while !frames <> [] do
      let v, todo = List.hd !frames in
      match !todo with
      | w :: rest ->
        todo := rest;
        if index.(w) < 0 then visit w else low.(v) <- min low.(v) index.(w)
      | [] -> (
        frames := List.tl !frames;
        (match !frames with (u, _) :: _ -> low.(u) <- min low.(u) low.(v) | [] -> ());
        if low.(v) = index.(v) then
          match close v [] with
          | [ w ] when not (List.mem w succ.(w)) -> ()
          | members ->
            incr sccs;
            List.iter (fun w -> in_loop.(w) <- true) members)
    done
  done;
  (in_loop, !sccs)

(* A rule with a head in a positive loop, kept for the stable check. *)
type lrule = {
  l_heads : int list;  (* the head atom, or the choice elements *)
  l_pos : int array;  (* atom ids *)
  l_neg : int array;
  l_body_lit : int;  (* SAT literal of the body conjunction; -1 = empty body *)
}

type ctx = {
  g : Ground.t;
  sat : Sat.t;
  (* atom id -> SAT var (identity by construction, kept explicit) *)
  atom_var : int array;
  (* The non-tight part of the program: the atoms in non-trivial SCCs
     of the positive dependency graph, the rules with a head among
     them, and per atom the indexes of the loop rules with it in the
     positive body. Every loop atom has such a rule, so a non-empty
     [loop_watch] entry marks a loop atom. *)
  loop_atoms : int array;
  loop_rules : lrule array;
  loop_watch : int array array;
  mutable stable_checks : int;
  mutable loop_clauses : int;
  obs : Obs.ctx;
}

let body_lits ctx pos neg =
  List.map (fun id -> Sat.pos ctx.atom_var.(id)) pos
  @ List.map (fun id -> Sat.neg ctx.atom_var.(id)) neg

(* A literal equivalent to the conjunction of the body: single-literal
   bodies are represented by that literal directly; longer bodies get a
   defined variable, shared across identical bodies. Returns -1 for the
   empty (constant-true) body. *)
let make_body_lit ctx cache pos neg =
  match (pos, neg) with
  | [], [] -> -1
  | [ x ], [] -> Sat.pos ctx.atom_var.(x)
  | [], [ y ] -> Sat.neg ctx.atom_var.(y)
  | _ -> (
    let key = (List.sort Int.compare pos, List.sort Int.compare neg) in
    match Hashtbl.find_opt cache key with
    | Some l -> l
    | None ->
      let v = Sat.new_var ctx.sat in
      let lits = body_lits ctx pos neg in
      List.iter (fun l -> Sat.add_clause ctx.sat [ Sat.neg v; l ]) lits;
      Sat.add_clause ctx.sat (Sat.pos v :: List.map Sat.lit_not lits);
      Hashtbl.add cache key (Sat.pos v);
      Sat.pos v)

let translate ?(certify = false) ?(obs = Obs.disabled) g =
  Obs.with_span obs ~cat:"solve" "logic.translate" @@ fun span ->
  let sat = Sat.create () in
  Sat.set_obs sat obs;
  if certify then Sat.enable_proof sat;
  let n = Ground.atom_count g in
  let atom_var = Array.init n (fun _ -> Sat.new_var sat) in
  (* Atoms with no possible derivation are constant false. *)
  for id = 0 to n - 1 do
    if not (Ground.possible g id) then Sat.add_clause sat [ Sat.neg atom_var.(id) ]
  done;
  let in_loop, sccs = loop_components n (Ground.rules g) in
  let ctx =
    { g; sat; atom_var; loop_atoms = [||]; loop_rules = [||]; loop_watch = [||];
      stable_checks = 0; loop_clauses = 0; obs }
  in
  Obs.set_attr span "atoms" (Obs.I n);
  let body_cache = Hashtbl.create 1024 in
  let supports : (int, Sat.lit list ref) Hashtbl.t = Hashtbl.create 1024 in
  let facts : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let free : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let add_support id l =
    match Hashtbl.find_opt supports id with
    | Some r -> r := l :: !r
    | None -> Hashtbl.add supports id (ref [ l ])
  in
  let loop_rules = ref [] and nloop = ref 0 and watch = Array.make n [] in
  let keep l_heads (r : Ground.grule) l_body_lit =
    if List.exists (fun h -> in_loop.(h)) l_heads then begin
      List.iter (fun p -> if in_loop.(p) then watch.(p) <- !nloop :: watch.(p)) r.gpos;
      incr nloop;
      loop_rules :=
        { l_heads; l_pos = Array.of_list r.gpos; l_neg = Array.of_list r.gneg;
          l_body_lit }
        :: !loop_rules
    end
  in
  List.iter
    (fun (r : Ground.grule) ->
      match r.Ground.ghead with
      | Ground.Gconstraint ->
        Sat.add_clause sat (List.map Sat.lit_not (body_lits ctx r.gpos r.gneg))
      | Ground.Gatom h ->
        if r.gpos = [] && r.gneg = [] then begin
          Sat.add_clause sat [ Sat.pos atom_var.(h) ];
          Hashtbl.replace facts h ();
          keep [ h ] r (-1)
        end
        else begin
          let b = make_body_lit ctx body_cache r.gpos r.gneg in
          (* body -> head *)
          Sat.add_clause sat [ Sat.lit_not b; Sat.pos atom_var.(h) ];
          add_support h b;
          keep [ h ] r b
        end
      | Ground.Gchoice { lo; hi; gelems } ->
        let b_lit =
          match make_body_lit ctx body_cache r.gpos r.gneg with
          | -1 -> None
          | l -> Some l
        in
        List.iter
          (fun e ->
            match b_lit with
            | None ->
              (* Unconditional choice: the element is supported
                 outright and needs no completion constraint. *)
              Hashtbl.replace free e ()
            | Some l -> add_support e l)
          gelems;
        keep gelems r (Option.value b_lit ~default:(-1));
        let ne = List.length gelems in
        (* Whenever the body holds, at most [k] of [lits] are true. *)
        let at_most lits k =
          if k < 0 then
            Sat.add_clause sat (match b_lit with None -> [] | Some l -> [ Sat.lit_not l ])
          else
            let wl = List.map (fun l -> (1, l)) lits in
            match b_lit with
            | None -> Sat.add_pb_le sat wl k
            | Some l -> Sat.add_pb_le sat ((ne - k, l) :: wl) ne
        in
        (* Upper bound: sum of elems <= hi. Lower bound: sum of elems
           >= lo, i.e. sum of negations <= ne - lo. *)
        (match hi with
        | Some u when u < ne -> at_most (List.map (fun e -> Sat.pos atom_var.(e)) gelems) u
        | _ -> ());
        match lo with
        | Some l0 when l0 > 0 ->
          at_most (List.map (fun e -> Sat.neg atom_var.(e)) gelems) (ne - l0)
        | _ -> ())
    (Ground.rules g);
  (* Completion: every true atom needs some support. *)
  for id = 0 to n - 1 do
    if Ground.possible g id && not (Hashtbl.mem facts id) && not (Hashtbl.mem free id)
    then begin
      let sup = match Hashtbl.find_opt supports id with Some r -> !r | None -> [] in
      Sat.add_clause sat (Sat.neg atom_var.(id) :: sup)
    end
  done;
  let loop_atoms = List.filter (fun id -> in_loop.(id)) (List.init n Fun.id) in
  Obs.set_attr span "loop_atoms" (Obs.I (List.length loop_atoms));
  Obs.set_attr span "loop_rules" (Obs.I !nloop);
  Obs.set_attr span "loop_sccs" (Obs.I sccs);
  { ctx with
    loop_atoms = Array.of_list loop_atoms;
    loop_rules = Array.of_list (List.rev !loop_rules);
    loop_watch = Array.map Array.of_list watch }

(* ----- optimization objectives ------------------------------------ *)

type objective = {
  priority : int;
  terms : (int * int) list;  (* (weight, tuple var) *)
}

let build_objectives ctx =
  Obs.with_span ctx.obs ~cat:"solve" "logic.objectives" @@ fun _ ->
  let groups : (string, int * int * Sat.lit list list) Hashtbl.t = Hashtbl.create 64 in
  (* key -> (weight, priority, list of condition clauses) *)
  List.iter
    (fun (m : Ground.gmin) ->
      if m.Ground.gweight < 0 then
        invalid_arg "minimize: negative weights are not supported";
      let cond = body_lits ctx m.gcond_pos m.gcond_neg in
      match Hashtbl.find_opt groups m.gkey with
      | Some (w, p, conds) -> Hashtbl.replace groups m.gkey (w, p, cond :: conds)
      | None -> Hashtbl.add groups m.gkey (m.gweight, m.gpriority, [ cond ]))
    (Ground.minimizes ctx.g);
  let by_priority : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _key (w, p, conds) ->
      if w > 0 then begin
        let t = Sat.new_var ctx.sat in
        (* Each satisfied condition forces the tuple to count. *)
        List.iter
          (fun cond ->
            Sat.add_clause ctx.sat (Sat.pos t :: List.map Sat.lit_not cond))
          conds;
        match Hashtbl.find_opt by_priority p with
        | Some r -> r := (w, t) :: !r
        | None -> Hashtbl.add by_priority p (ref [ (w, t) ])
      end)
    groups;
  (* Priorities whose instances all pruned or simplified away still
     count as (trivially 0-cost) objectives, so cost vectors compare
     structurally across differently-pruned groundings. *)
  List.iter
    (fun p ->
      if not (Hashtbl.mem by_priority p) then Hashtbl.add by_priority p (ref []))
    (Ground.minimize_priorities ctx.g);
  Hashtbl.fold (fun p r acc -> { priority = p; terms = !r } :: acc) by_priority []
  |> List.sort (fun a b -> Int.compare b.priority a.priority)

let objective_cost ctx obj =
  List.fold_left
    (fun acc (w, t) -> if Sat.value ctx.sat t then acc + w else acc)
    0 obj.terms

(* ----- stability check -------------------------------------------- *)

(* The unfounded set of the candidate model: its true atoms without
   well-founded support. Any unfounded set contains an unfounded loop,
   which lies inside one SCC of the positive dependency graph, so with
   no loop atoms completion already gives stability (Fages). Otherwise
   take the least model of the reduct over the loop rules, with atoms
   outside the loops valued by the model: a true loop atom it misses is
   unfounded, as every true-bodied rule for it needs another. *)
let unfounded_set ctx =
  if ctx.loop_atoms = [||] then []
  else begin
    let truth id = Sat.value ctx.sat ctx.atom_var.(id) in
    let in_loop id = ctx.loop_watch.(id) <> [||] in
    let derived = Bytes.make (Array.length ctx.atom_var) '\000' in
    let queue = Queue.create () in
    let derive id =
      if Bytes.get derived id = '\000' then begin
        Bytes.set derived id '\001';
        Queue.add id queue
      end
    in
    (* A body true on the model makes its head atom true, so testing
       truth only matters for choice elements. *)
    let fire r = List.iter (fun h -> if truth h then derive h) r.l_heads in
    (* Outstanding positive loop subgoals per rule; negative (never
       fires) when the body is false outside the loops. *)
    let counts =
      Array.map
        (fun r ->
          if
            Array.exists truth r.l_neg
            || Array.exists (fun p -> not (in_loop p || truth p)) r.l_pos
          then -1
          else Array.fold_left (fun c p -> if in_loop p then c + 1 else c) 0 r.l_pos)
        ctx.loop_rules
    in
    Array.iteri (fun i c -> if c = 0 then fire ctx.loop_rules.(i)) counts;
    while not (Queue.is_empty queue) do
      Array.iter
        (fun i ->
          counts.(i) <- counts.(i) - 1;
          if counts.(i) = 0 then fire ctx.loop_rules.(i))
        ctx.loop_watch.(Queue.pop queue)
    done;
    Array.fold_left
      (fun acc id ->
        if truth id && Bytes.get derived id = '\000' then id :: acc else acc)
      [] ctx.loop_atoms
  end

(* Cut an unfounded set. For any atom set U, if every rule that can
   derive into U needs some of U itself (no external support body is
   true), then no atom of U can hold in a stable model. The clauses
   [not a \/ ext(U)] for each a in U are therefore globally valid — and
   the externals belong to the set as a whole, not to the individual
   atom, since internal rules may pass support around once anything in
   U is externally established. U holds loop atoms only, so every rule
   that can derive into it is a loop rule. *)
let add_loop_clauses ctx unfounded =
  let in_u = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_u id ()) unfounded;
  let externals = ref [] in
  Array.iter
    (fun r ->
      if
        List.exists (fun h -> Hashtbl.mem in_u h) r.l_heads
        && (not (Array.exists (fun p -> Hashtbl.mem in_u p) r.l_pos))
        && r.l_body_lit >= 0
      then
        let l = r.l_body_lit in
        if not (List.mem l !externals) then externals := l :: !externals)
    ctx.loop_rules;
  List.iter
    (fun a ->
      Sat.add_clause ctx.sat (Sat.neg ctx.atom_var.(a) :: !externals);
      ctx.loop_clauses <- ctx.loop_clauses + 1)
    unfounded

(* Solve and keep refining until the SAT model is a stable model. *)
let sat_solve_traced ctx ~assumptions =
  Obs.with_span ctx.obs ~cat:"solve" "sat.solve" (fun sp ->
      let before = if Obs.enabled ctx.obs then Sat.stats ctx.sat else [] in
      let r = Sat.solve ~assumptions ctx.sat in
      if Obs.enabled ctx.obs then
        List.iter
          (fun (k, v) -> Obs.set_attr sp k (Obs.I v))
          (Sat.stats_delta ~before ctx.sat);
      Obs.set_attr sp "sat" (Obs.B r);
      r)

let solve_stable ctx ~assumptions =
  let rec go () =
    if not (sat_solve_traced ctx ~assumptions) then false
    else begin
      ctx.stable_checks <- ctx.stable_checks + 1;
      Obs.incr ctx.obs "logic.stable_checks";
      let unfounded =
        Obs.with_span ctx.obs ~cat:"solve" "logic.unfounded" @@ fun span ->
        let u = if !hook_skip_unfounded then [] else unfounded_set ctx in
        if u <> [] then add_loop_clauses ctx u;
        (* one loop clause per unfounded atom *)
        Obs.set_attr span "loop_clauses" (Obs.I (List.length u));
        u
      in
      match unfounded with
      | [] -> true
      | u ->
        Obs.incr ctx.obs ~by:(List.length u) "logic.unfounded_atoms";
        go ()
    end
  in
  go ()

let extract_atoms ctx =
  Obs.with_span ctx.obs ~cat:"solve" "logic.extract" @@ fun _ ->
  let out = ref [] in
  for id = Ground.atom_count ctx.g - 1 downto 0 do
    if Ground.possible ctx.g id && Sat.value ctx.sat ctx.atom_var.(id) then
      out := Ground.atom_of_id ctx.g id :: !out
  done;
  !out

(* The model loaded in the SAT core, with the check counters so far. *)
let current_model ctx ~costs ~sat_stats =
  { atoms = extract_atoms ctx;
    costs;
    sat_stats;
    stable_checks = ctx.stable_checks;
    loop_clauses = ctx.loop_clauses }

(* Lexicographic descent: fix each priority level at its minimum before
   optimizing the next. Shared by the one-shot [solve] and incremental
   sessions, so every constraint it adds must stay valid for later
   solves under *different* assumptions: bound probes and level freezes
   are pseudo-Boolean constraints gated by a fresh activation literal —
   inactive (hence trivially satisfied) unless assumed — and only the
   activation literals of the current request are assumed. Permanently
   clausing an activation literal false merely retires its constraint.
   Returns the per-priority costs of the optimal model (left loaded in
   the SAT core), or [None] when UNSAT under [assumptions]. *)
let optimize ctx objectives ~assumptions =
  if not (solve_stable ctx ~assumptions) then None
  else begin
    (* Activation literals of the freezes accumulated this request. *)
    let frozen = ref [] in
    let assume extra = extra @ !frozen @ assumptions in
    List.iter
      (fun obj ->
        let terms = List.map (fun (w, t) -> (w, Sat.pos t)) obj.terms in
        let total = List.fold_left (fun acc (w, _) -> acc + w) 0 obj.terms in
        let current = ref (objective_cost ctx obj) in
        let improved = ref true in
        while !improved && !current > 0 do
          let bound = !current - 1 in
          if bound >= total then improved := false
          else begin
            let a = Sat.new_var ctx.sat in
            (* sum + (total - bound) * a <= total: active iff a. *)
            Sat.add_pb_le ctx.sat ((total - bound, Sat.pos a) :: terms) total;
            let probe_sat =
              Obs.with_span ctx.obs ~cat:"solve" "opt.probe"
                ~attrs:
                  [ ("priority", Obs.I obj.priority); ("bound", Obs.I bound) ]
                (fun sp ->
                  let r = solve_stable ctx ~assumptions:(assume [ Sat.pos a ]) in
                  Obs.set_attr sp "sat" (Obs.B r);
                  r)
            in
            Obs.incr ctx.obs "opt.bound_probes";
            if probe_sat then begin
              let c = objective_cost ctx obj in
              (* A model satisfying [sum <= current - 1] has cost
                 strictly below [current]; anything else means the PB
                 layer failed to enforce the bound. Stop rather than
                 descend forever. *)
              if c >= !current then improved := false else current := c
            end
            else begin
              Sat.add_clause ctx.sat [ Sat.neg a ];
              improved := false;
              (* Re-establish a model consistent with this request's
                 constraints for cost extraction at lower levels. *)
              let ok = solve_stable ctx ~assumptions:(assume []) in
              assert ok
            end
          end
        done;
        (* Freeze this level at its minimum for the rest of the
           request. *)
        if !current < total then begin
          let f = Sat.new_var ctx.sat in
          Sat.add_pb_le ctx.sat ((total - !current, Sat.pos f) :: terms) total;
          frozen := Sat.pos f :: !frozen;
          let ok = solve_stable ctx ~assumptions:(assume []) in
          assert ok
        end)
      objectives;
    Some (List.map (fun o -> (o.priority, objective_cost ctx o)) objectives)
  end

let solve ?(certify = false) ?(obs = Obs.disabled) ?budget ?(portfolio = 1) g =
  if portfolio <> 1 then invalid_arg "Logic.solve: ~portfolio must be 1";
  let ctx = translate ~certify ~obs g in
  Sat.set_budget ctx.sat budget;
  let objectives = build_objectives ctx in
  match optimize ctx objectives ~assumptions:[] with
  | None -> Unsat (Sat.proof ctx.sat)
  | Some costs ->
    Sat (current_model ctx ~costs ~sat_stats:(Sat.stats ctx.sat))

(* ----- incremental sessions --------------------------------------- *)

type session = {
  s_ctx : ctx;
  s_objectives : objective list;
  mutable s_solves : int;
}

let session_create ?(certify = false) ?(obs = Obs.disabled) g =
  let ctx = translate ~certify ~obs g in
  { s_ctx = ctx; s_objectives = build_objectives ctx; s_solves = 0 }

let session_ground s = s.s_ctx.g

let session_sat_stats s = Sat.stats s.s_ctx.sat

exception Unknown_true_assumption

let session_solve s ~assume =
  let ctx = s.s_ctx in
  s.s_solves <- s.s_solves + 1;
  Obs.with_span ctx.obs ~cat:"solve" "session.solve"
    ~attrs:[ ("solve_index", Obs.I s.s_solves) ]
  @@ fun span ->
  match
    List.filter_map
      (fun (a, b) ->
        match Ground.find_atom ctx.g a with
        | Some id -> Some ((if b then Sat.pos else Sat.neg) ctx.atom_var.(id))
        | None ->
          (* An atom outside the Herbrand base is constant false:
             assuming it false is vacuous, assuming it true is
             unsatisfiable. *)
          if b then raise Unknown_true_assumption else None)
      assume
  with
  | exception Unknown_true_assumption -> Unsat None
  | assumptions -> (
    let before = Sat.stats ctx.sat in
    match optimize ctx s.s_objectives ~assumptions with
    | None -> Unsat (Sat.proof ctx.sat)
    | Some costs ->
      let delta = Sat.stats_delta ~before ctx.sat in
      if Obs.enabled ctx.obs then
        List.iter (fun (k, v) -> Obs.set_attr span k (Obs.I v)) delta;
      Sat (current_model ctx ~costs ~sat_stats:delta))

let holds m a = List.exists (fun a' -> a' = a) m.atoms

let enumerate ?(limit = 64) g =
  let ctx = translate g in
  let models = ref [] in
  let continue_search = ref true in
  while !continue_search && List.length !models < limit do
    if solve_stable ctx ~assumptions:[] then begin
      models := current_model ctx ~costs:[] ~sat_stats:(Sat.stats ctx.sat) :: !models;
      (* Block this exact assignment over the atom variables. *)
      let blocking =
        List.concat
          (List.init (Ground.atom_count ctx.g) (fun id ->
               if not (Ground.possible ctx.g id) then []
               else if Sat.value ctx.sat ctx.atom_var.(id) then
                 [ Sat.neg ctx.atom_var.(id) ]
               else [ Sat.pos ctx.atom_var.(id) ]))
      in
      if blocking = [] then continue_search := false
      else Sat.add_clause ctx.sat blocking
    end
    else continue_search := false
  done;
  List.rev !models

