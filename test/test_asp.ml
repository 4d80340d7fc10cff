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

let test_enumerate_all () =
  let g = Asp.Ground.ground (Asp.parse "{a; b}. :- a, b.") in
  let models = Asp.Logic.enumerate g in
  (* {}, {a}, {b} *)
  Alcotest.(check int) "three models" 3 (List.length models);
  let keys =
    List.map
      (fun (m : Asp.Logic.model) ->
        List.map (fun (a : Asp.Ast.atom) -> a.Asp.Ast.pred) m.Asp.Logic.atoms
        |> List.sort String.compare |> String.concat ",")
      models
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "the right models" [ ""; "a"; "b" ] keys

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

(* ---- brute-force stable-model fuzz ---- *)

let brute_stable nvars choice_elems rules constraints =
  let models = ref [] in
  for mask = 0 to (1 lsl nvars) - 1 do
    let truth a = mask land (1 lsl a) <> 0 in
    let body_sat (pos, neg) =
      List.for_all truth pos && List.for_all (fun a -> not (truth a)) neg
    in
    if List.for_all (fun b -> not (body_sat b)) constraints then begin
      let derived = Array.make nvars false in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (h, pos, neg) ->
            if
              (not derived.(h))
              && List.for_all (fun p -> derived.(p)) pos
              && List.for_all (fun a -> not (truth a)) neg
            then begin
              derived.(h) <- true;
              changed := true
            end)
          rules;
        List.iter
          (fun e ->
            if truth e && not derived.(e) then begin
              derived.(e) <- true;
              changed := true
            end)
          choice_elems
      done;
      if List.for_all (fun a -> truth a = derived.(a)) (List.init nvars Fun.id) then
        models := mask :: !models
    end
  done;
  !models

let gen_program =
  QCheck.Gen.(
    let* nvars = int_range 2 5 in
    let atom = int_range 0 (nvars - 1) in
    let* nchoice = int_range 0 nvars in
    let* rules =
      list_size (int_range 0 8)
        (triple atom (list_size (int_range 0 2) atom) (list_size (int_range 0 2) atom))
    in
    let* constraints =
      list_size (int_range 0 2)
        (pair (list_size (int_range 1 2) atom) (list_size (int_range 0 1) atom))
    in
    return (nvars, List.init nchoice Fun.id, rules, constraints))

let program_text (nvars, choice_elems, rules, constraints) =
  ignore nvars;
  let a i = Printf.sprintf "a%d" i in
  let buf = Buffer.create 256 in
  if choice_elems <> [] then
    Buffer.add_string buf
      (Printf.sprintf "{ %s }.\n" (String.concat " ; " (List.map a choice_elems)));
  List.iter
    (fun (h, pos, neg) ->
      let body = List.map a pos @ List.map (fun x -> "not " ^ a x) neg in
      if body = [] then Buffer.add_string buf (a h ^ ".\n")
      else Buffer.add_string buf (Printf.sprintf "%s :- %s.\n" (a h) (String.concat ", " body)))
    rules;
  List.iter
    (fun (pos, neg) ->
      let body = List.map a pos @ List.map (fun x -> "not " ^ a x) neg in
      Buffer.add_string buf (Printf.sprintf ":- %s.\n" (String.concat ", " body)))
    constraints;
  Buffer.contents buf

let arb_program = QCheck.make ~print:program_text gen_program

let prop_stable_equiv =
  QCheck.Test.make ~name:"solver agrees with brute-force stable models" ~count:400
    arb_program
    (fun ((nvars, choice_elems, rules, constraints) as p) ->
      let expected = brute_stable nvars choice_elems rules constraints in
      match solve (program_text p) with
      | Asp.Logic.Unsat _ -> expected = []
      | Asp.Logic.Sat m ->
        let mask =
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
        in
        List.mem mask expected)

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
        [ Alcotest.test_case "counts" `Quick test_grounding_counts ] );
      ( "enumeration",
        [ Alcotest.test_case "all models" `Quick test_enumerate_all;
          Alcotest.test_case "limit" `Quick test_enumerate_limit;
          Alcotest.test_case "unsat" `Quick test_enumerate_unsat ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_stable_equiv ]) ]
