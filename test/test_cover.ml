open Relational
open Util

let frac = Alcotest.testable Frac.pp Frac.equal

let analyze_appendix () =
  Cover.analyze ~source:Fixtures.instance_i ~j:Fixtures.instance_j
    [ Fixtures.theta1; Fixtures.theta3 ]

let ml_task = Tuple.of_consts "task" [ "ML"; "Alice"; "111" ]

let sap_org = Tuple.of_consts "org" [ "111"; "SAP" ]

let appendix_tests =
  [
    Alcotest.test_case "theta1: covers 2/3 for the ML task, 0 otherwise" `Quick
      (fun () ->
        let stats = (analyze_appendix ()).(0) in
        Alcotest.check frac "ML task" (Frac.make 2 3) (Cover.covers stats ml_task);
        Alcotest.check frac "org not covered" Frac.zero
          (Cover.covers stats sap_org);
        Alcotest.(check int)
          "only one covered target" 1
          (List.length (Cover.covered_targets stats)));
    Alcotest.test_case "theta1: one error tuple (the BigData task)" `Quick
      (fun () ->
        let stats = (analyze_appendix ()).(0) in
        Alcotest.(check int) "errors" 1 (Cover.error_count stats);
        match stats.Cover.error_tuples with
        | [ t ] -> Alcotest.(check string) "rel" "task" t.Tuple.rel
        | l -> Alcotest.failf "expected 1 error tuple, got %d" (List.length l));
    Alcotest.test_case
      "theta3: corroborated null lifts coverage to 3/3 and 2/2" `Quick
      (fun () ->
        let stats = (analyze_appendix ()).(1) in
        Alcotest.check frac "ML task fully" Frac.one (Cover.covers stats ml_task);
        Alcotest.check frac "SAP org fully" Frac.one (Cover.covers stats sap_org));
    Alcotest.test_case "theta3: two error tuples (BigData task and IBM org)"
      `Quick (fun () ->
        let stats = (analyze_appendix ()).(1) in
        Alcotest.(check int) "errors" 2 (Cover.error_count stats);
        Alcotest.(check int) "produced" 4 stats.Cover.produced);
    Alcotest.test_case "explains takes the max over the mapping" `Quick
      (fun () ->
        let stats = analyze_appendix () in
        Alcotest.check frac "max" Frac.one
          (Cover.explains (Array.to_list stats) ml_task);
        Alcotest.check frac "single theta1" (Frac.make 2 3)
          (Cover.explains [ stats.(0) ] ml_task));
    Alcotest.test_case "uncovered targets are the Social/MSR tuples" `Quick
      (fun () ->
        let stats = analyze_appendix () in
        let uncovered = Cover.uncovered_targets stats Fixtures.instance_j in
        Alcotest.(check int) "two" 2 (Tuple.Set.cardinal uncovered);
        Alcotest.(check bool)
          "social task" true
          (Tuple.Set.mem (Tuple.of_consts "task" [ "Social"; "Carl"; "222" ]) uncovered);
        Alcotest.(check bool)
          "msr org" true
          (Tuple.Set.mem (Tuple.of_consts "org" [ "222"; "MSR" ]) uncovered));
    Alcotest.test_case "extension: theta3 fully explains ML-like projects"
      `Quick (fun () ->
        let i', j' = Fixtures.extended_example 5 in
        let stats = Cover.analyze ~source:i' ~j:j' [ Fixtures.theta1; Fixtures.theta3 ] in
        let proj_task k = Tuple.of_consts "task" [ Printf.sprintf "Proj%d" k; "Alice"; "111" ] in
        for k = 0 to 4 do
          Alcotest.check frac "theta1 2/3" (Frac.make 2 3)
            (Cover.covers stats.(0) (proj_task k));
          Alcotest.check frac "theta3 fully" Frac.one
            (Cover.covers stats.(1) (proj_task k))
        done;
        (* no new errors for either candidate *)
        Alcotest.(check int) "theta1 errors" 1 (Cover.error_count stats.(0));
        Alcotest.(check int) "theta3 errors" 2 (Cover.error_count stats.(1)));
  ]

let matching_tests =
  [
    Alcotest.test_case "matches: constants must agree" `Quick (fun () ->
        let pattern = Tuple.make "r" [ Value.Const "a"; Value.Null 0 ] in
        Alcotest.(check bool)
          "match" true
          (Cover.matches ~pattern (Tuple.of_consts "r" [ "a"; "x" ]));
        Alcotest.(check bool)
          "mismatch" false
          (Cover.matches ~pattern (Tuple.of_consts "r" [ "b"; "x" ])));
    Alcotest.test_case "matches: repeated null must map consistently" `Quick
      (fun () ->
        let pattern = Tuple.make "r" [ Value.Null 0; Value.Null 0 ] in
        Alcotest.(check bool)
          "diagonal ok" true
          (Cover.matches ~pattern (Tuple.of_consts "r" [ "x"; "x" ]));
        Alcotest.(check bool)
          "off-diagonal no" false
          (Cover.matches ~pattern (Tuple.of_consts "r" [ "x"; "y" ])));
    Alcotest.test_case "matches: different relations never match" `Quick
      (fun () ->
        let pattern = Tuple.make "r" [ Value.Null 0 ] in
        Alcotest.(check bool)
          "no" false
          (Cover.matches ~pattern (Tuple.of_consts "q" [ "x" ])));
    Alcotest.test_case "maps_into" `Quick (fun () ->
        let inst = Instance.of_tuples [ Tuple.of_consts "r" [ "a"; "b" ] ] in
        Alcotest.(check bool)
          "yes" true
          (Cover.maps_into (Tuple.make "r" [ Value.Const "a"; Value.Null 9 ]) inst);
        Alcotest.(check bool)
          "no" false
          (Cover.maps_into (Tuple.make "r" [ Value.Const "z"; Value.Null 9 ]) inst));
  ]

(* A tgd whose two head atoms share an existential, to exercise partially
   matched groups: only the first head atom lands in J, so the shared null is
   not corroborated. *)
let partial_group_tests =
  [
    Alcotest.test_case "uncorroborated null counts as uncovered" `Quick
      (fun () ->
        let v = Fixtures.v in
        let theta =
          Logic.Tgd.make ~label:"partial"
            ~body:[ Logic.Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
            ~head:
              [
                Logic.Atom.make "task" [ v "P"; v "E"; v "T" ];
                Logic.Atom.make "org" [ v "T"; Logic.Term.Cst "Nowhere" ];
              ]
            ()
        in
        let stats =
          Cover.analyze ~source:Fixtures.instance_i ~j:Fixtures.instance_j [ theta ]
        in
        (* org(T, Nowhere) never lands in J, so the ML task is only covered
           2/3 and both org tuples are errors. *)
        Alcotest.check frac "2/3" (Frac.make 2 3) (Cover.covers stats.(0) ml_task);
        Alcotest.(check int) "errors" 3 (Cover.error_count stats.(0)));
    Alcotest.test_case "ground head tuple in J covers fully" `Quick (fun () ->
        let theta =
          Logic.Tgd.make ~label:"const-head"
            ~body:[ Logic.Atom.make "proj" [ Logic.Term.Cst "ML"; Fixtures.v "E"; Fixtures.v "O" ] ]
            ~head:
              [
                Logic.Atom.make "org"
                  [ Logic.Term.Cst "111"; Logic.Term.Cst "SAP" ];
              ]
            ()
        in
        let stats =
          Cover.analyze ~source:Fixtures.instance_i ~j:Fixtures.instance_j [ theta ]
        in
        Alcotest.check frac "full" Frac.one (Cover.covers stats.(0) sap_org);
        Alcotest.(check int) "no errors" 0 (Cover.error_count stats.(0)));
  ]

let property_tests =
  let open QCheck2 in
  (* Random source instances chased with theta1/theta3 against random ground
     target instances over task/org. *)
  let target_gen =
    let mk rel vs = Relational.Tuple.of_consts rel vs in
    Gen.(
      let* tasks =
        list_size (int_range 0 6)
          (map
             (fun (a, b, c) ->
               mk "task"
                 [ Printf.sprintf "p%d" a; Printf.sprintf "e%d" b; Printf.sprintf "o%d" c ])
             (triple (int_range 0 3) (int_range 0 3) (int_range 0 3)))
      in
      let* orgs =
        list_size (int_range 0 6)
          (map
             (fun (a, b) ->
               mk "org" [ Printf.sprintf "o%d" a; Printf.sprintf "n%d" b ])
             (pair (int_range 0 3) (int_range 0 3)))
      in
      return (Instance.of_tuples (tasks @ orgs)))
  in
  let source_gen =
    let mk rel vs = Relational.Tuple.of_consts rel vs in
    Gen.(
      list_size (int_range 0 6)
        (map
           (fun (a, b, c) ->
             mk "proj"
               [ Printf.sprintf "p%d" a; Printf.sprintf "e%d" b; Printf.sprintf "n%d" c ])
           (triple (int_range 0 3) (int_range 0 3) (int_range 0 3))))
    |> Gen.map Instance.of_tuples
  in
  [
    Test.make ~name:"degrees lie in (0,1]" ~count:100
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let stats = Cover.analyze ~source:src ~j [ Fixtures.theta1; Fixtures.theta3 ] in
        Array.for_all
          (fun s ->
            Relational.Tuple.Map.for_all
              (fun _ d -> Frac.(Stdlib.not (is_zero d)) && Frac.(d <= one))
              s.Cover.covers)
          stats);
    Test.make ~name:"errors never exceed produced tuples" ~count:100
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let stats = Cover.analyze ~source:src ~j [ Fixtures.theta1; Fixtures.theta3 ] in
        Array.for_all (fun s -> Cover.error_count s <= s.Cover.produced) stats);
    Test.make ~name:"covered targets are tuples of J" ~count:100
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let stats = Cover.analyze ~source:src ~j [ Fixtures.theta1; Fixtures.theta3 ] in
        Array.for_all
          (fun s -> List.for_all (fun t -> Instance.mem t j) (Cover.covered_targets s))
          stats);
    Test.make ~name:"semantics are pointwise ordered" ~count:60
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let degrees semantics =
          Cover.analyze ~semantics ~source:src ~j
            [ Fixtures.theta1; Fixtures.theta3 ]
        in
        let strict = degrees Cover.Strict in
        let corr = degrees Cover.Corroborated in
        let generous = degrees Cover.Generous in
        Instance.fold
          (fun t acc ->
            acc
            && Array.for_all
                 (fun k ->
                   Frac.(Cover.covers strict.(k) t <= Cover.covers corr.(k) t)
                   && Frac.(Cover.covers corr.(k) t <= Cover.covers generous.(k) t))
                 [| 0; 1 |])
          j true);
    Test.make ~name:"error counts are semantics-independent" ~count:60
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let errors semantics =
          Array.map Cover.error_count
            (Cover.analyze ~semantics ~source:src ~j
               [ Fixtures.theta1; Fixtures.theta3 ])
        in
        errors Cover.Strict = errors Cover.Corroborated
        && errors Cover.Corroborated = errors Cover.Generous);
    Test.make ~name:"bigger J never decreases coverage" ~count:100
      (Gen.triple source_gen target_gen target_gen) (fun (src, j1, j2) ->
        let j = Instance.union j1 j2 in
        let stats1 = Cover.analyze ~source:src ~j:j1 [ Fixtures.theta3 ] in
        let stats = Cover.analyze ~source:src ~j [ Fixtures.theta3 ] in
        Instance.fold
          (fun t acc ->
            acc
            && Frac.(Cover.covers stats1.(0) t <= Cover.covers stats.(0) t))
          j1 true);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* Regression pin for the homomorphism search: the E1 problem's digest
   covers every stat field (covers map, error tuples, produced, size,
   cost) of both candidates, so any drift in [stats_of_triggers] fails
   here byte-for-byte. *)
let regression_tests =
  [
    Alcotest.test_case "E1 stats digest is stable" `Quick (fun () ->
        let p =
          Core.Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j
            [ Fixtures.theta1; Fixtures.theta3 ]
        in
        Alcotest.(check string)
          "digest" "b5fc0caa89cc8925a22214fa4beaaf33" (Core.Problem.digest p));
    Alcotest.test_case "cored E1 stats equal uncored ones (ground chase)"
      `Quick (fun () ->
        (* the E1 chase target is null-free on theta1 and its core is the
           identity, so coring must be a no-op on the stats *)
        let plain = analyze_appendix () in
        let cored =
          Cover.analyze ~core:true ~source:Fixtures.instance_i
            ~j:Fixtures.instance_j
            [ Fixtures.theta1; Fixtures.theta3 ]
        in
        Array.iteri
          (fun k s ->
            Alcotest.(check int)
              (Printf.sprintf "produced %d" k)
              s.Cover.produced cored.(k).Cover.produced;
            Alcotest.(check int)
              (Printf.sprintf "errors %d" k)
              (Cover.error_count s)
              (Cover.error_count cored.(k)))
          plain);
  ]

(* --- the indexed cover against the configuration-enumeration reference --- *)

let semantics_all = [ Cover.Corroborated; Cover.Strict; Cover.Generous ]

let same_as_reference ~semantics ~j triggers =
  let tgd = Fixtures.theta1 in
  let got = Cover.stats_of_triggers ~semantics ~j ~index:0 tgd triggers in
  let expected = Fuzz.Oracle.reference_stats_of_triggers ~semantics ~j ~index:0 tgd triggers in
  Fuzz.Oracle.stats_difference got expected

(* Trigger groups over r/2, s/3 and q/1 (plus [absent]/2, which J never
   holds), biased toward the shapes the indexed search treats specially:
   all-null tuples, a null repeated within a tuple, three tuples chained
   by shared nulls, two siblings sharing a null the third tuple lacks; and
   a J over a three-constant domain that also holds nulls and tuples of
   the wrong arity. *)
let differential_gen =
  let open QCheck2.Gen in
  let const = map (fun i -> Value.Const (Printf.sprintf "c%d" i)) (int_range 0 2) in
  let arity = function "r" -> 2 | "s" -> 3 | "q" -> 1 | _ -> 2 in
  let rel = oneofl [ "r"; "s"; "q"; "absent" ] in
  let j_value = frequency [ (4, const); (1, map (fun i -> Value.Null (100 + i)) (int_range 0 1)) ] in
  let j_tuple =
    let* rel = oneofl [ "r"; "s"; "q" ] in
    let* wrong = frequency [ (6, return 0); (1, return 1); (1, return (-1)) ] in
    let* values = list_repeat (max 0 (arity rel + wrong)) j_value in
    return (Tuple.make rel values)
  in
  let null = map (fun i -> Value.Null i) (int_range 0 3) in
  let pattern =
    let* rel = rel in
    let* shape = oneofl [ `All_null; `Repeated; `Mixed ] in
    let* values =
      match shape with
      | `All_null -> list_repeat (arity rel) null
      | `Mixed -> list_repeat (arity rel) (frequency [ (2, null); (1, const) ])
      | `Repeated ->
        let* n = null in
        list_repeat (arity rel) (frequency [ (2, return n); (1, null); (1, const) ])
    in
    return (Tuple.make rel values)
  in
  let chain =
    (* r(N0, N1), s(N1, x, N2), r(N2, N3): each link a shared null *)
    let* x = oneof [ const; return (Value.Null 4) ] in
    return
      [
        Tuple.make "r" [ Value.Null 0; Value.Null 1 ];
        Tuple.make "s" [ Value.Null 1; x; Value.Null 2 ];
        Tuple.make "r" [ Value.Null 2; Value.Null 3 ];
      ]
  in
  let triangle =
    (* s(x, N0, N1), r(N0, N2), r(N1, N2): the two siblings of the first
       tuple also share a null it does not carry *)
    let* x = oneof [ const; return (Value.Null 3) ] in
    return
      [
        Tuple.make "s" [ x; Value.Null 0; Value.Null 1 ];
        Tuple.make "r" [ Value.Null 0; Value.Null 2 ];
        Tuple.make "r" [ Value.Null 1; Value.Null 2 ];
      ]
  in
  let group =
    frequency [ (4, list_size (int_range 1 3) pattern); (1, chain); (1, triangle) ]
  in
  let trigger tuples =
    {
      Chase.Trigger.tgd_index = 0;
      tgd = Fixtures.theta1;
      subst = Logic.Subst.empty;
      tuples;
      nulls = List.fold_left (fun acc t -> Value.Set.union acc (Tuple.nulls t)) Value.Set.empty tuples;
    }
  in
  pair
    (map Instance.of_tuples (list_size (int_range 0 14) j_tuple))
    (list_size (int_range 1 4) (map trigger group))

let print_case (j, triggers) =
  Printf.sprintf "J = {%s}\ngroups = %s"
    (String.concat ", " (List.map Tuple.to_string (Instance.tuples j)))
    (String.concat " | "
       (List.map
          (fun (tr : Chase.Trigger.t) ->
            String.concat ", " (List.map Tuple.to_string tr.Chase.Trigger.tuples))
          triggers))

let reference_tests =
  let differential =
    QCheck2.Test.make ~name:"indexed cover equals the enumeration reference" ~count:500
      ~print:print_case differential_gen (fun (j, triggers) ->
        List.for_all
          (fun semantics ->
            match same_as_reference ~semantics ~j triggers with
            | None -> true
            | Some msg -> QCheck2.Test.fail_report msg)
          semantics_all)
  in
  [
    QCheck_alcotest.to_alcotest differential;
    Alcotest.test_case "rows-64 iBench example equals the reference" `Quick (fun () ->
        let s =
          Ibench.Generator.generate
            {
              Ibench.Config.default with
              Ibench.Config.seed = 11;
              rows_per_relation = 64;
              pi_corresp = 50;
              pi_errors = 30;
              pi_unexplained = 30;
            }
        in
        let source = s.Ibench.Scenario.instance_i and j = s.Ibench.Scenario.instance_j in
        let results = List.map (fun tgd -> Chase.run source [ tgd ]) s.Ibench.Scenario.candidates in
        List.iter
          (fun (semantics, core) ->
            let stats = Cover.analyze ~semantics ~core ~source ~j s.Ibench.Scenario.candidates in
            List.iteri
              (fun index (tgd, result) ->
                let expected =
                  Fuzz.Oracle.reference_stats_of_triggers ~semantics ~j ~index tgd
                    (Cover.triggers_of_result ~core result)
                in
                match Fuzz.Oracle.stats_difference stats.(index) expected with
                | None -> ()
                | Some msg -> Alcotest.failf "core %b, candidate %d: %s" core index msg)
              (List.combine s.Ibench.Scenario.candidates results))
          (List.concat_map (fun sem -> [ (sem, false); (sem, true) ]) semantics_all));
  ]

(* Problem digests of two iBench examples, recorded before the cover fold
   was rebuilt on the J index: the rebuild must leave them byte-identical. *)
let ibench_pin_tests =
  let pin seed digest =
    Alcotest.test_case (Printf.sprintf "iBench rows 128 seed %d digest" seed) `Quick (fun () ->
        let s =
          Ibench.Generator.generate
            {
              Ibench.Config.default with
              Ibench.Config.seed;
              rows_per_relation = 128;
              pi_corresp = 50;
              pi_errors = 30;
              pi_unexplained = 30;
            }
        in
        let p =
          Core.Problem.make ~source:s.Ibench.Scenario.instance_i ~j:s.Ibench.Scenario.instance_j
            s.Ibench.Scenario.candidates
        in
        Alcotest.(check string) "digest" digest (Core.Problem.digest p))
  in
  [ pin 3 "a261b9bcf5ea39e0d65a0c62e2402c3f"; pin 17 "ef5d0c87a7c8dead6bcc5df916079356" ]

let () =
  Alcotest.run "cover"
    [
      ("appendix", appendix_tests);
      ("matching", matching_tests);
      ("partial-groups", partial_group_tests);
      ("properties", property_tests);
      ("regression", regression_tests @ ibench_pin_tests);
      ("reference", reference_tests);
    ]
