(* The ASP engine end to end: parser, grounder, stable-model semantics,
   choice rules with bounds, optimization — plus a brute-force
   stable-model equivalence fuzz. *)

let solve = Asp.solve_text

let atoms_of = function
  | Asp.Logic.Unsat _ -> Alcotest.fail "expected SAT"
  | Asp.Logic.Sat m ->
    List.map (fun a -> Format.asprintf "%a" Asp.Ast.pp_atom a) m.Asp.Logic.atoms
    |> List.sort String.compare

let costs_of = function
  | Asp.Logic.Unsat _ -> Alcotest.fail "expected SAT"
  | Asp.Logic.Sat m -> m.Asp.Logic.costs

let is_unsat = function Asp.Logic.Unsat _ -> true | Asp.Logic.Sat _ -> false

let check_atoms msg program expected =
  Alcotest.(check (list string)) msg (List.sort String.compare expected)
    (atoms_of (solve program))

(* ---- parser ---- *)

let test_parser () =
  let prog = Asp.parse {|
    node("example").
    attr("depends_on", node("example"), node("bzip2"), "link-run").
    ok(X) :- node(X), not bad(X), X != "zzz".
    1 { pick(X) : node(X) } 1.
    :- pick("nope").
    #minimize { 1@2, X : pick(X) }.
  |} in
  Alcotest.(check int) "statements" 6 (List.length prog);
  (match List.nth prog 2 with
  | Asp.Ast.Rule { head = Asp.Ast.Head_atom a; body } ->
    Alcotest.(check string) "head pred" "ok" a.Asp.Ast.pred;
    Alcotest.(check int) "body lits" 3 (List.length body)
  | _ -> Alcotest.fail "expected a rule");
  match List.nth prog 5 with
  | Asp.Ast.Minimize [ e ] -> Alcotest.(check int) "priority" 2 e.Asp.Ast.priority
  | _ -> Alcotest.fail "expected minimize"

let test_parse_errors () =
  let bad text =
    match Asp.parse text with
    | exception Asp.Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ text)
  in
  bad "a :- b";     (* missing dot *)
  bad "a(X :- b.";  (* unbalanced *)
  bad "{ a ; } .";  (* dangling separator *)
  bad "#maximize { 1 : a }."

let test_safety () =
  (* Head variable not bound by a positive body literal. *)
  match Asp.Ground.ground (Asp.parse "p(X) :- not q(X).") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsafe rule should be rejected"

(* ---- semantics ---- *)

let test_facts_and_rules () =
  check_atoms "chain" "a. b :- a. c :- a, b." [ "a"; "b"; "c" ]

let test_negation () =
  check_atoms "choose b" "a :- not b. b :- not a. :- a." [ "b" ]

let test_positive_loop_unfounded () =
  (* a and b support each other but have no external support: the only
     stable model is empty (completion alone would admit {a,b}). *)
  check_atoms "unfounded loop" "a :- b. b :- a." []

(* Also the traced solve: the stability check, objective building and
   model extraction each get a span, and the [loop_clauses] attributes
   of the stability-check spans add up to the model's loop clauses. *)
let test_loop_with_external_support () =
  let program = "{c}. a :- b. b :- a. a :- c. :- not b." in
  check_atoms "externally supported loop" program [ "a"; "b"; "c" ];
  let ground () = Asp.Ground.ground (Asp.parse program) in
  let obs = Obs.create () in
  let loop_clauses =
    match Asp.Logic.solve ~obs (ground ()) with
    | Asp.Logic.Sat m -> m.Asp.Logic.loop_clauses
    | Asp.Logic.Unsat _ -> Alcotest.fail "expected SAT"
  in
  let spans name =
    List.filter_map
      (function
        | Obs.Span { name = n; attrs; _ } when n = name -> Some attrs
        | _ -> None)
      (Obs.events obs)
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("has " ^ name ^ " span") true (spans name <> []))
    [ "logic.unfounded"; "logic.objectives"; "logic.extract" ];
  let attributed =
    List.fold_left
      (fun acc attrs ->
        match List.assoc_opt "loop_clauses" attrs with
        | Some (Obs.I n) -> acc + n
        | _ -> Alcotest.fail "logic.unfounded span without loop_clauses")
      0 (spans "logic.unfounded")
  in
  Alcotest.(check bool) "the loop needed loop clauses" true (loop_clauses > 0);
  Alcotest.(check int) "span attributes sum to the loop clauses" loop_clauses
    attributed;
  ignore (Asp.Logic.solve ~obs:Obs.disabled (ground ()));
  Alcotest.(check int) "a disabled ctx records nothing" 0
    (List.length (Obs.events Obs.disabled))

(* The integer attributes of the [logic.translate] span, and the loop
   clauses of a traced solve. *)
let translate_attrs program =
  let obs = Obs.create () in
  let loop_clauses =
    match Asp.Logic.solve ~obs (Asp.Ground.ground (Asp.parse program)) with
    | Asp.Logic.Sat m -> m.Asp.Logic.loop_clauses
    | Asp.Logic.Unsat _ -> Alcotest.fail "expected SAT"
  in
  let attrs =
    List.find_map
      (function
        | Obs.Span { name = "logic.translate"; attrs; _ } -> Some attrs
        | _ -> None)
      (Obs.events obs)
  in
  let attr k =
    match Option.bind attrs (List.assoc_opt k) with
    | Some (Obs.I n) -> n
    | _ -> Alcotest.fail ("logic.translate span without " ^ k)
  in
  (attr, loop_clauses)

let test_tight_program () =
  let attr, loop_clauses = translate_attrs "a. b :- a. c :- b, not d." in
  Alcotest.(check int) "no loop atoms" 0 (attr "loop_atoms");
  Alcotest.(check int) "no loop rules" 0 (attr "loop_rules");
  Alcotest.(check int) "no loop SCCs" 0 (attr "loop_sccs");
  Alcotest.(check int) "no loop clauses" 0 loop_clauses;
  let attr, _ = translate_attrs "{b}. a :- a. a :- b." in
  Alcotest.(check int) "a self-loop is a loop" 1 (attr "loop_atoms");
  Alcotest.(check int) "both rules for a are loop rules" 2 (attr "loop_rules")

let test_loop_span () =
  let attr, loop_clauses = translate_attrs "{c}. a :- b. b :- a. a :- c. :- not b." in
  Alcotest.(check int) "a and b form the loop" 2 (attr "loop_atoms");
  Alcotest.(check int) "the three rules for a and b" 3 (attr "loop_rules");
  Alcotest.(check int) "one loop SCC" 1 (attr "loop_sccs");
  Alcotest.(check bool) "the loop still needs loop clauses" true (loop_clauses > 0)

let test_odd_loop () =
  Alcotest.(check bool) "a :- not a is unsat" true (is_unsat (solve "a :- not a."))

let test_choice_bounds () =
  let r = solve "p(1). p(2). p(3). 2 { q(X) : p(X) } 2." in
  let qs = List.filter (fun a -> String.length a >= 1 && a.[0] = 'q') (atoms_of r) in
  Alcotest.(check int) "exactly two" 2 (List.length qs);
  Alcotest.(check bool) "lower bound unsat" true
    (is_unsat (solve "p(1). 2 { q(X) : p(X) } 2."))

let test_constraints_on_choice () =
  Alcotest.(check bool) "forced out" true
    (is_unsat (solve "p(1). p(2). 2 { q(X) : p(X) } 2. :- q(1)."))

let test_comparisons () =
  check_atoms "arith filter" "n(1). n(2). n(3). big(X) :- n(X), X >= 2."
    [ "n(1)"; "n(2)"; "n(3)"; "big(2)"; "big(3)" ]

let test_strings_and_functions () =
  check_atoms "compound terms"
    {|node("example"). attr("v", node("example"), "1.1").
      ok(N) :- node(N), attr("v", node(N), V), V != "1.0".|}
    [ {|node("example")|}; {|attr("v",node("example"),"1.1")|}; {|ok("example")|} ]

let test_eq_binding () =
  check_atoms "equality binds" {|p(1). q(Y) :- p(X), Y = X.|} [ "p(1)"; "q(1)" ]

let test_minimize_single () =
  let r = solve "p(1). p(2). p(3). 1 { q(X) : p(X) }. #minimize { 1, X : q(X) }." in
  Alcotest.(check (list (pair int int))) "cost 1 at level 0" [ (0, 1) ] (costs_of r)

let test_minimize_lexicographic () =
  (* Level 2 wants a true (else cost 5); level 1 wants b false. *)
  let r =
    solve "{a}. {b}. cost1 :- not a. #minimize { 5@2 : cost1 }. #minimize { 3@1 : b }."
  in
  Alcotest.(check (list (pair int int))) "both optimal" [ (2, 0); (1, 0) ] (costs_of r);
  Alcotest.(check bool) "a chosen" true (List.mem "a" (atoms_of r))

let test_minimize_tradeoff () =
  (* Higher level dominates: paying 1 at level 1 to save 10 at level 2. *)
  let r =
    solve
      "{a}. pay :- a. save :- not a. #minimize { 10@2 : save }. #minimize { 1@1 : pay }."
  in
  Alcotest.(check (list (pair int int))) "lexicographic" [ (2, 0); (1, 1) ] (costs_of r)

let test_minimize_distinct_tuples () =
  (* Same tuple from two bodies counts once. *)
  let r = solve "a. b. c :- a. c :- b. #minimize { 7, fixed : c }." in
  Alcotest.(check (list (pair int int))) "counted once" [ (0, 7) ] (costs_of r)

let test_show_ignored () =
  check_atoms "show is skipped" "#show foo/1. a." [ "a" ]

(* ---- enumeration ---- *)

(* Every stable model of a propositional program, as sorted
   comma-separated atom lists. *)
let model_keys program =
  Asp.Logic.enumerate (Asp.Ground.ground (Asp.parse program))
  |> List.map (fun (m : Asp.Logic.model) ->
         List.map (fun (a : Asp.Ast.atom) -> a.Asp.Ast.pred) m.Asp.Logic.atoms
         |> List.sort String.compare |> String.concat ",")
  |> List.sort String.compare

let test_enumerate_all () =
  (* {}, {a}, {b} *)
  Alcotest.(check (list string)) "the right models" [ ""; "a"; "b" ]
    (model_keys "{a; b}. :- a, b.")

(* A choice element left false supports nothing, even inside a loop:
   {a0, d, f} satisfies the completion (d and f hold each other up)
   but is not stable. *)
let test_false_choice_element () =
  Alcotest.(check (list string)) "the right models" [ "a0"; "a0,c,d,f" ]
    (model_keys "a0. {c} :- a0. c :- c. d :- c. d :- f. f :- d.")

let test_enumerate_limit () =
  let g = Asp.Ground.ground (Asp.parse "{a; b; c}.") in
  Alcotest.(check int) "limit respected" 4
    (List.length (Asp.Logic.enumerate ~limit:4 g));
  Alcotest.(check int) "all eight" 8 (List.length (Asp.Logic.enumerate g))

let test_enumerate_unsat () =
  let g = Asp.Ground.ground (Asp.parse "a. :- a.") in
  Alcotest.(check int) "no models" 0 (List.length (Asp.Logic.enumerate g))

(* ---- grounder details ---- *)

let test_grounding_counts () =
  let g = Asp.Ground.ground (Asp.parse "p(1). p(2). q(X) :- p(X). r(X,Y) :- p(X), p(Y).") in
  (* atoms: p1 p2 q1 q2 + r(1,1) r(1,2) r(2,1) r(2,2) *)
  Alcotest.(check int) "atom count" 8 (Asp.Ground.atom_count g)

let test_negative_literal_on_impossible_atom () =
  (* q can never hold, so p must be derivable. *)
  check_atoms "impossible negative" "p :- not q." [ "p" ]

(* [Ground.ground ~jobs] and [Logic.solve ~portfolio] remain only as
   labels perfbench's concretize workload passes: 1 is the call without
   the label, anything else is refused. *)
let test_compat_labels () =
  let prog =
    Asp.parse
      "p(1). p(2). { q(X) : p(X) } 1. r :- not q(1). #minimize { 1@1,X : q(X) }."
  in
  let render g = Format.asprintf "%a" Asp.Ground.pp g in
  let g = Asp.Ground.ground prog in
  Alcotest.(check string) "~jobs:1 is the plain grounding" (render g)
    (render (Asp.Ground.ground ~jobs:1 prog));
  Alcotest.check_raises "~jobs:2 refused"
    (Invalid_argument "Ground.ground: ~jobs must be 1") (fun () ->
      ignore (Asp.Ground.ground ~jobs:2 prog));
  let outcome r = (atoms_of r, costs_of r) in
  Alcotest.(check (pair (list string) (list (pair int int))))
    "~portfolio:1 is the plain solve"
    (outcome (Asp.Logic.solve g))
    (outcome (Asp.Logic.solve ~portfolio:1 g));
  Alcotest.check_raises "~portfolio:2 refused"
    (Invalid_argument "Logic.solve: ~portfolio must be 1") (fun () ->
      ignore (Asp.Logic.solve ~portfolio:2 g))

(* ---- brute-force stable-model fuzz ---- *)

(* A generated program: [nvars] atoms a0..a(nvars-1), an unconditional
   choice over [choice_elems], conditional choice rules
   [{ elems } :- pos, not neg], normal rules [h :- pos, not neg] and
   integrity constraints. *)
let brute_stable (nvars, choice_elems, cchoices, rules, constraints) =
  let models = ref [] in
  for mask = 0 to (1 lsl nvars) - 1 do
    let truth a = mask land (1 lsl a) <> 0 in
    let body_sat (pos, neg) =
      List.for_all truth pos && List.for_all (fun a -> not (truth a)) neg
    in
    if List.for_all (fun b -> not (body_sat b)) constraints then begin
      let derived = Array.make nvars false in
      let changed = ref true in
      (* A rule of the reduct fires once its positive body is derived
         and its negative body is false in the candidate; a choice
         element is derived only if it is also true in the candidate. *)
      let fires pos neg =
        List.for_all (fun p -> derived.(p)) pos
        && List.for_all (fun a -> not (truth a)) neg
      in
      let derive e =
        if not derived.(e) then begin
          derived.(e) <- true;
          changed := true
        end
      in
      while !changed do
        changed := false;
        List.iter (fun (h, pos, neg) -> if fires pos neg then derive h) rules;
        List.iter
          (fun (elems, pos, neg) ->
            if fires pos neg then List.iter (fun e -> if truth e then derive e) elems)
          cchoices;
        List.iter (fun e -> if truth e then derive e) choice_elems
      done;
      if List.for_all (fun a -> truth a = derived.(a)) (List.init nvars Fun.id) then
        models := mask :: !models
    end
  done;
  List.sort Int.compare !models

let gen_program =
  QCheck.Gen.(
    let* nvars = int_range 2 5 in
    let atom = int_range 0 (nvars - 1) in
    let* nchoice = int_range 0 nvars in
    let* cchoices =
      list_size (int_range 0 2)
        (triple
           (map (List.sort_uniq Int.compare) (list_size (int_range 1 2) atom))
           (list_size (int_range 0 2) atom) (list_size (int_range 0 1) atom))
    in
    let* rules =
      list_size (int_range 0 8)
        (triple atom (list_size (int_range 0 2) atom) (list_size (int_range 0 2) atom))
    in
    let* constraints =
      list_size (int_range 0 2)
        (pair (list_size (int_range 1 2) atom) (list_size (int_range 0 1) atom))
    in
    return (nvars, List.init nchoice Fun.id, cchoices, rules, constraints))

let program_text (_, choice_elems, cchoices, rules, constraints) =
  let a i = Printf.sprintf "a%d" i in
  let body pos neg = String.concat ", " (List.map a pos @ List.map (fun x -> "not " ^ a x) neg) in
  let choice elems = Printf.sprintf "{ %s }" (String.concat " ; " (List.map a elems)) in
  let buf = Buffer.create 256 in
  if choice_elems <> [] then Buffer.add_string buf (choice choice_elems ^ ".\n");
  let rule head pos neg =
    if pos = [] && neg = [] then Buffer.add_string buf (head ^ ".\n")
    else Buffer.add_string buf (Printf.sprintf "%s :- %s.\n" head (body pos neg))
  in
  List.iter (fun (elems, pos, neg) -> rule (choice elems) pos neg) cchoices;
  List.iter (fun (h, pos, neg) -> rule (a h) pos neg) rules;
  List.iter
    (fun (pos, neg) -> Buffer.add_string buf (Printf.sprintf ":- %s.\n" (body pos neg)))
    constraints;
  Buffer.contents buf

let arb_program = QCheck.make ~print:program_text gen_program

(* The candidate's atoms a0..a(nvars-1) as a bit mask. *)
let mask_of nvars (m : Asp.Logic.model) =
  List.fold_left
    (fun acc i ->
      if
        List.exists
          (fun (a : Asp.Ast.atom) ->
            a.Asp.Ast.pred = Printf.sprintf "a%d" i && a.Asp.Ast.args = [])
          m.Asp.Logic.atoms
      then acc lor (1 lsl i)
      else acc)
    0 (List.init nvars Fun.id)

let stable_equiv_cell () =
  QCheck.Test.make_cell ~name:"solver agrees with brute-force stable models" ~count:400
    arb_program
    (fun ((nvars, _, _, _, _) as p) ->
      let expected = brute_stable p in
      match solve (program_text p) with
      | Asp.Logic.Unsat _ -> expected = []
      | Asp.Logic.Sat m -> List.mem (mask_of nvars m) expected)

(* Membership alone would pass a check that wrongly rejects stable
   models; enumeration must find all of them and nothing else. *)
let enumerate_equiv_cell () =
  QCheck.Test.make_cell
    ~name:"enumerate finds exactly the brute-force stable models" ~count:400
    arb_program
    (fun ((nvars, _, _, _, _) as p) ->
      let g = Asp.Ground.ground (Asp.parse (program_text p)) in
      let models = Asp.Logic.enumerate ~limit:((1 lsl nvars) + 1) g in
      List.sort Int.compare (List.map (mask_of nvars) models) = brute_stable p)

(* With the stability check skipped, both properties must find a
   counterexample: they are the oracle for that fault. *)
let test_skip_unfounded_caught () =
  List.iter
    (fun cell ->
      let result =
        Asp.Logic.hook_skip_unfounded := true;
        Fun.protect
          ~finally:(fun () -> Asp.Logic.hook_skip_unfounded := false)
          (fun () ->
            QCheck2.Test.check_cell ~rand:(Random.State.make [| 7 |]) (cell ()))
      in
      Alcotest.(check bool)
        (QCheck.Test.get_name (cell ()) ^ " catches the skipped check")
        false
        (QCheck.TestResult.is_success result))
    [ stable_equiv_cell; enumerate_equiv_cell ]

let () =
  Alcotest.run "asp"
    [ ( "parser",
        [ Alcotest.test_case "program" `Quick test_parser;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "safety" `Quick test_safety ] );
      ( "semantics",
        [ Alcotest.test_case "facts and rules" `Quick test_facts_and_rules;
          Alcotest.test_case "negation" `Quick test_negation;
          Alcotest.test_case "unfounded loop" `Quick test_positive_loop_unfounded;
          Alcotest.test_case "supported loop" `Quick test_loop_with_external_support;
          Alcotest.test_case "tight program" `Quick test_tight_program;
          Alcotest.test_case "loop span" `Quick test_loop_span;
          Alcotest.test_case "odd loop" `Quick test_odd_loop;
          Alcotest.test_case "choice bounds" `Quick test_choice_bounds;
          Alcotest.test_case "constraints on choice" `Quick test_constraints_on_choice;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "strings and functions" `Quick test_strings_and_functions;
          Alcotest.test_case "equality binding" `Quick test_eq_binding;
          Alcotest.test_case "impossible negative" `Quick
            test_negative_literal_on_impossible_atom ] );
      ( "optimization",
        [ Alcotest.test_case "single level" `Quick test_minimize_single;
          Alcotest.test_case "lexicographic" `Quick test_minimize_lexicographic;
          Alcotest.test_case "tradeoff" `Quick test_minimize_tradeoff;
          Alcotest.test_case "distinct tuples" `Quick test_minimize_distinct_tuples;
          Alcotest.test_case "show ignored" `Quick test_show_ignored ] );
      ( "grounder",
        [ Alcotest.test_case "counts" `Quick test_grounding_counts;
          Alcotest.test_case "compat labels" `Quick test_compat_labels ] );
      ( "enumeration",
        [ Alcotest.test_case "all models" `Quick test_enumerate_all;
          Alcotest.test_case "false choice element" `Quick test_false_choice_element;
          Alcotest.test_case "limit" `Quick test_enumerate_limit;
          Alcotest.test_case "unsat" `Quick test_enumerate_unsat ] );
      ( "properties",
        List.map
          (fun cell -> QCheck_alcotest.to_alcotest (QCheck2.Test.Test (cell ())))
          [ stable_equiv_cell; enumerate_equiv_cell ]
        @ [ Alcotest.test_case "skipped stability check is caught" `Quick
              test_skip_unfounded_caught ] ) ]
