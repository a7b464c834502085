open Relational
open Ibench

let default = Config.default

let gen ?(config = default) () = Generator.generate config

let only kind n =
  { default with Config.primitives = [ (kind, n) ]; seed = 7 }

let structure_tests =
  [
    Alcotest.test_case "ground truth is always among the candidates" `Quick
      (fun () ->
        let s = gen () in
        Alcotest.(check int)
          "one index per MG tgd"
          (List.length s.Scenario.ground_truth)
          (List.length s.Scenario.ground_truth_indices);
        Alcotest.(check int)
          "indices distinct"
          (List.length s.Scenario.ground_truth_indices)
          (List.length (List.sort_uniq Int.compare s.Scenario.ground_truth_indices));
        List.iter
          (fun i ->
            let c = List.nth s.Scenario.candidates i in
            Alcotest.(check bool)
              "index points at an MG member" true
              (List.exists (Logic.Tgd.equal_up_to_renaming c) s.Scenario.ground_truth))
          s.Scenario.ground_truth_indices);
    Alcotest.test_case "candidates and MG are well-formed" `Quick (fun () ->
        let s = gen () in
        List.iter
          (fun tgd ->
            Alcotest.(check bool)
              "well-formed" true
              (Logic.Tgd.well_formed ~source:s.Scenario.source
                 ~target:s.Scenario.target tgd
              = Ok ()))
          (s.Scenario.candidates @ s.Scenario.ground_truth));
    Alcotest.test_case "clean data example satisfies the ground truth" `Quick
      (fun () ->
        let s = gen () in
        Alcotest.(check bool)
          "satisfies" true
          (Chase.satisfies_all ~source:s.Scenario.instance_i
             ~target:s.Scenario.j_clean s.Scenario.ground_truth));
    Alcotest.test_case "instances are ground" `Quick (fun () ->
        let s = gen () in
        Alcotest.(check bool) "I" true (Instance.is_ground s.Scenario.instance_i);
        Alcotest.(check bool) "J" true (Instance.is_ground s.Scenario.instance_j);
        Alcotest.(check bool) "J clean" true (Instance.is_ground s.Scenario.j_clean));
    Alcotest.test_case "without noise, J equals the clean chase" `Quick
      (fun () ->
        let s = gen () in
        Alcotest.(check bool)
          "equal" true
          (Instance.equal s.Scenario.instance_j s.Scenario.j_clean));
  ]

let per_primitive_tests =
  List.map
    (fun kind ->
      Alcotest.test_case
        (Printf.sprintf "%s scenario shape" (Primitive.to_string kind))
        `Quick
        (fun () ->
          let s = gen ~config:(only kind 1) () in
          let expected_tgt =
            match kind with
            | Primitive.VP -> 2
            | Primitive.VNM -> 3
            | Primitive.CP | Primitive.ADD | Primitive.DL | Primitive.ADL
            | Primitive.ME ->
              1
          in
          let expected_src =
            match kind with
            | Primitive.ME -> 2
            | Primitive.CP | Primitive.ADD | Primitive.DL | Primitive.ADL
            | Primitive.VP | Primitive.VNM ->
              1
          in
          Alcotest.(check int) "target rels" expected_tgt (Schema.size s.Scenario.target);
          Alcotest.(check int) "source rels" expected_src (Schema.size s.Scenario.source);
          Alcotest.(check int) "one MG tgd" 1 (List.length s.Scenario.ground_truth);
          Alcotest.(check bool)
            "J nonempty" false
            (Instance.is_empty s.Scenario.instance_j)))
    Primitive.all

let determinism_tests =
  [
    Alcotest.test_case "same seed, same scenario" `Quick (fun () ->
        let s1 = gen () and s2 = gen () in
        Alcotest.(check bool)
          "J equal" true
          (Instance.equal s1.Scenario.instance_j s2.Scenario.instance_j);
        Alcotest.(check int)
          "same candidates"
          (List.length s1.Scenario.candidates)
          (List.length s2.Scenario.candidates));
    Alcotest.test_case "different seed, different data" `Quick (fun () ->
        let s1 = gen () in
        let s2 = gen ~config:{ default with Config.seed = 43 } () in
        Alcotest.(check bool)
          "I differs" false
          (Instance.equal s1.Scenario.instance_i s2.Scenario.instance_i));
  ]

let noise_tests =
  [
    Alcotest.test_case "pi_errors only deletes" `Quick (fun () ->
        let config = Config.with_noise ~pi_errors:50 default in
        let s = gen ~config () in
        Alcotest.(check bool)
          "J subset of clean" true
          (Instance.subset s.Scenario.instance_j s.Scenario.j_clean);
        Alcotest.(check bool)
          "something deleted" true
          (Instance.cardinal s.Scenario.instance_j
          < Instance.cardinal s.Scenario.j_clean));
    Alcotest.test_case "pi_unexplained only adds" `Quick (fun () ->
        (* spurious candidates require noise correspondences, otherwise there
           may be nothing to add; use pi_corresp too *)
        let config = Config.with_noise ~pi_corresp:100 ~pi_unexplained:100 default in
        let s = gen ~config () in
        Alcotest.(check bool)
          "clean subset of J" true
          (Instance.subset s.Scenario.j_clean s.Scenario.instance_j));
    Alcotest.test_case "pi_corresp adds correspondences and candidates" `Quick
      (fun () ->
        let clean = gen () in
        let noisy = gen ~config:(Config.with_noise ~pi_corresp:100 default) () in
        Alcotest.(check bool)
          "more correspondences" true
          (List.length noisy.Scenario.correspondences
          > List.length clean.Scenario.correspondences);
        Alcotest.(check bool)
          "at least as many candidates" true
          (List.length noisy.Scenario.candidates
          >= List.length clean.Scenario.candidates));
    Alcotest.test_case "added tuples are unexplained by the ground truth"
      `Quick (fun () ->
        let config = Config.with_noise ~pi_corresp:100 ~pi_unexplained:100 default in
        let s = gen ~config () in
        let added = Instance.diff s.Scenario.instance_j s.Scenario.j_clean in
        (* no MG trigger tuple can produce an added tuple: they came from
           spurious candidates only *)
        let { Chase.triggers; _ } =
          Chase.run s.Scenario.instance_i s.Scenario.ground_truth
        in
        let mg_tuples =
          List.concat_map (fun (tr : Chase.Trigger.t) -> tr.Chase.Trigger.tuples) triggers
        in
        Instance.iter
          (fun t ->
            Alcotest.(check bool)
              (Format.asprintf "%a not from MG" Tuple.pp t)
              false
              (List.exists (fun pattern -> Cover.matches ~pattern t) mg_tuples))
          added);
  ]

(* The digest of one generated, serialized document (noise on, so the
   noise step's homomorphism probes decide which tuples move), recorded
   before that step was rebuilt on the J index: generator output must stay
   byte-identical. *)
let document_pin_tests =
  [
    Alcotest.test_case "serialized document digest is stable" `Quick (fun () ->
        let s =
          gen
            ~config:
              {
                default with
                Config.seed = 5;
                rows_per_relation = 64;
                pi_corresp = 50;
                pi_errors = 40;
                pi_unexplained = 40;
              }
            ()
        in
        let doc =
          {
            Serialize.Document.source = s.Scenario.source;
            target = s.Scenario.target;
            src_fkeys = s.Scenario.src_fkeys;
            tgt_fkeys = s.Scenario.tgt_fkeys;
            correspondences = s.Scenario.correspondences;
            tgds = s.Scenario.candidates;
            instance_i = s.Scenario.instance_i;
            instance_j = s.Scenario.instance_j;
          }
        in
        Alcotest.(check string)
          "digest" "cd8953f328f8cd55f035678e48f9ffd7"
          (Digest.to_hex (Digest.string (Serialize.Document.to_string doc))));
  ]

let select_pct_tests =
  let rng () = Random.State.make [| 1 |] in
  [
    Alcotest.test_case "0 percent selects nothing" `Quick (fun () ->
        Alcotest.(check int)
          "none" 0
          (List.length (Generator.select_pct (rng ()) 0 [ 1; 2; 3 ])));
    Alcotest.test_case "100 percent selects everything" `Quick (fun () ->
        Alcotest.(check int)
          "all" 3
          (List.length (Generator.select_pct (rng ()) 100 [ 1; 2; 3 ])));
    Alcotest.test_case "50 percent of 10 is 5" `Quick (fun () ->
        Alcotest.(check int)
          "five" 5
          (List.length (Generator.select_pct (rng ()) 50 (List.init 10 Fun.id))));
    Alcotest.test_case "selection is a subset" `Quick (fun () ->
        let l = List.init 20 Fun.id in
        List.iter
          (fun x -> Alcotest.(check bool) "member" true (List.mem x l))
          (Generator.select_pct (rng ()) 30 l));
  ]

let config_tests =
  [
    Alcotest.test_case "validate rejects bad percentages" `Quick (fun () ->
        Alcotest.(check bool)
          "over 100" true
          (Config.validate { default with Config.pi_errors = 101 } <> Ok ());
        Alcotest.(check bool)
          "negative" true
          (Config.validate { default with Config.pi_corresp = -1 } <> Ok ()));
    Alcotest.test_case "validate rejects tiny arity" `Quick (fun () ->
        Alcotest.(check bool)
          "arity 1" true
          (Config.validate { default with Config.src_arity = 1 } <> Ok ()));
    Alcotest.test_case "validate rejects delete range wiping the relation"
      `Quick (fun () ->
        Alcotest.(check bool)
          "wipes" true
          (Config.validate
             { default with Config.src_arity = 2; range_delete = (2, 2) }
          <> Ok ()));
    Alcotest.test_case "default is valid" `Quick (fun () ->
        Alcotest.(check bool) "ok" true (Config.validate default = Ok ()));
  ]

let property_tests =
  let open QCheck2 in
  let seed_gen = Gen.int_range 0 10_000 in
  [
    Test.make ~name:"MG always within candidates (random seeds)" ~count:20
      seed_gen (fun seed ->
        let s = gen ~config:{ default with Config.seed } () in
        List.length s.Scenario.ground_truth
        = List.length s.Scenario.ground_truth_indices);
    Test.make ~name:"noisy scenarios keep MG (random seeds)" ~count:10
      (Gen.pair seed_gen (Gen.int_range 0 100)) (fun (seed, pct) ->
        let config =
          Config.with_noise ~pi_corresp:pct ~pi_errors:pct ~pi_unexplained:pct
            { default with Config.seed }
        in
        let s = gen ~config () in
        List.for_all
          (fun i -> i < List.length s.Scenario.candidates)
          s.Scenario.ground_truth_indices);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ibench"
    [
      ("structure", structure_tests);
      ("per-primitive", per_primitive_tests);
      ("determinism", determinism_tests);
      ("noise", noise_tests @ document_pin_tests);
      ("select-pct", select_pct_tests);
      ("config", config_tests);
      ("properties", property_tests);
    ]
