(* Warm-started CMD solves, the portfolio race, and the experiments' solver
   context (Ctx): the bit-identity and determinism contracts the sweep
   machinery and `--solver portfolio` rely on. *)

open Core

(* --- warm-start bit-identity -------------------------------------------- *)

let warm_equals_cold_tests =
  let open QCheck2 in
  [
    Test.make ~name:"warm-started solve equals cold" ~count:30
      Fixtures.selection_problem_gen (fun p ->
        let cold = Cmd.solve p in
        let warm = Cmd.solve ~warm:cold.Cmd.warm_out p in
        warm.Cmd.selection = cold.Cmd.selection);
    Test.make ~name:"warm state transported to a shrunk problem equals cold"
      ~count:20 Fixtures.selection_problem_gen (fun p ->
        let m = Problem.num_candidates p in
        if m < 2 then true
        else
          let cold = Cmd.solve p in
          let q =
            Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j
              [ Fixtures.theta1 ]
          in
          (* a structurally unrelated neighbour: the delta is partial, so
             Cmd must fall back to the cold start rather than risk a
             different ADMM optimum *)
          let q_cold = Cmd.solve q in
          let q_warm = Cmd.solve ~warm:cold.Cmd.warm_out q in
          q_warm.Cmd.selection = q_cold.Cmd.selection);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let appendix_problem () =
  Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j
    [ Fixtures.theta1; Fixtures.theta3 ]

let test_zero_warm_state_is_cold () =
  (* an all-zero warm state is exactly the historical cold start *)
  let p = appendix_problem () in
  let cold = Cmd.solve p in
  let zeroed =
    {
      cold.Cmd.warm_out with
      Cmd.state =
        {
          Psl.Admm.consensus =
            Array.map (fun _ -> 0.)
              cold.Cmd.warm_out.Cmd.state.Psl.Admm.consensus;
          duals =
            Array.map
              (Array.map (fun _ -> 0.))
              cold.Cmd.warm_out.Cmd.state.Psl.Admm.duals;
        };
    }
  in
  let warm = Cmd.solve ~warm:zeroed p in
  Alcotest.(check (array bool))
    "selection identical" cold.Cmd.selection warm.Cmd.selection;
  Alcotest.(check int)
    "same iteration count (bit-identical trajectory)"
    cold.Cmd.admm.Psl.Admm.iterations warm.Cmd.admm.Psl.Admm.iterations

(* --- Grounding.delta / transport ---------------------------------------- *)

let test_delta_identity () =
  let p = appendix_problem () in
  let cold = Cmd.solve p in
  (* the model the state was captured on — Cmd.solve grounds the
     preprocessed problem, so build_model on [p] would be a different
     (larger) model *)
  let model = cold.Cmd.warm_out.Cmd.model in
  let d = Psl.Grounding.delta ~prev:model ~next:model in
  Alcotest.(check int)
    "every variable matched by name" (Psl.Hlmrf.num_vars model)
    d.Psl.Grounding.matched_vars;
  Alcotest.(check int)
    "every factor matched by signature"
    (List.length (Psl.Admm.factor_views model))
    d.Psl.Grounding.matched_factors;
  Array.iteri
    (fun i j -> Alcotest.(check int) "var maps to itself" i j)
    d.Psl.Grounding.var_map;
  let s = cold.Cmd.warm_out.Cmd.state in
  let t = Psl.Grounding.transport d s in
  Alcotest.(check (array (float 1e-12)))
    "consensus round-trips" s.Psl.Admm.consensus t.Psl.Admm.consensus;
  Array.iteri
    (fun i row ->
      Alcotest.(check (array (float 1e-12)))
        (Printf.sprintf "dual row %d round-trips" i)
        row
        t.Psl.Admm.duals.(i))
    s.Psl.Admm.duals

let test_delta_neighbour () =
  (* dropping a candidate: the surviving candidate's variable and the
     shared explained-atoms still match by name; transported state keeps
     their values and zero-fills the rest *)
  let p = appendix_problem () in
  let q =
    Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j
      [ Fixtures.theta1 ]
  in
  let mp = Cmd.build_model p and mq = Cmd.build_model q in
  let d = Psl.Grounding.delta ~prev:mp ~next:mq in
  Alcotest.(check bool)
    "some variables matched" true
    (d.Psl.Grounding.matched_vars > 0);
  Alcotest.(check int)
    "shapes follow the next model" (Psl.Hlmrf.num_vars mq)
    d.Psl.Grounding.next_num_vars;
  Array.iter
    (fun j ->
      Alcotest.(check bool)
        "var_map entries in prev range" true
        (j = -1 || (j >= 0 && j < Psl.Hlmrf.num_vars mp)))
    d.Psl.Grounding.var_map;
  let s = (Cmd.solve p).Cmd.warm_out.Cmd.state in
  let t = Psl.Grounding.transport d s in
  Alcotest.(check int)
    "transported consensus has next's length" (Psl.Hlmrf.num_vars mq)
    (Array.length t.Psl.Admm.consensus);
  Alcotest.(check int)
    "transported duals have next's factor count"
    (List.length (Psl.Admm.factor_views mq))
    (Array.length t.Psl.Admm.duals)

(* --- bitwise ADMM pins ---------------------------------------------------- *)

(* Outcomes of [Psl.Admm.solve] on two CMD models, recorded before the
   solver's inner loop was rebuilt on a flat factor layout: iterations,
   convergence and a digest of the IEEE bits of the solution, the energy,
   the consensus vector and every dual row. The rebuild must leave them
   bit-identical, cold and warm-started from each run's own final state. *)
let outcome_pin (o : Psl.Admm.outcome) =
  let b = Buffer.create 4096 in
  let add x = Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x)) in
  let add_row a =
    Array.iter add a;
    Buffer.add_char b ';'
  in
  add_row o.Psl.Admm.solution;
  add o.Psl.Admm.energy;
  add_row o.Psl.Admm.state.Psl.Admm.consensus;
  Array.iter add_row o.Psl.Admm.state.Psl.Admm.duals;
  Printf.sprintf "iterations %d converged %b digest %s" o.Psl.Admm.iterations
    o.Psl.Admm.converged
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let ibench_rows_128 () =
  let s =
    Ibench.Generator.generate
      {
        Ibench.Config.default with
        Ibench.Config.seed = 3;
        rows_per_relation = 128;
        pi_corresp = 50;
        pi_errors = 30;
        pi_unexplained = 30;
      }
  in
  Problem.make ~source:s.Ibench.Scenario.instance_i ~j:s.Ibench.Scenario.instance_j
    s.Ibench.Scenario.candidates

let admm_pin_tests =
  let pin name problem ~squared ~cold ~warm =
    Alcotest.test_case name `Quick (fun () ->
        let model =
          Cmd.build_model ~squared (Preprocess.run (problem ())).Preprocess.problem
        in
        let c = Psl.Admm.solve model in
        Alcotest.(check string) "cold" cold (outcome_pin c);
        let w = Psl.Admm.solve ~warm:c.Psl.Admm.state model in
        Alcotest.(check string) "warm" warm (outcome_pin w))
  in
  [
    pin "E1 linear" appendix_problem ~squared:false
      ~cold:"iterations 9 converged true digest 2cc370e5ff97fc73ec1db636ae0f978f"
      ~warm:"iterations 1 converged true digest c72061ccaffb8da42da4f60df1f4cf52";
    pin "E1 squared" appendix_problem ~squared:true
      ~cold:"iterations 71 converged true digest 064bd2ec8eae3cc0a4038cdb6a90a47b"
      ~warm:"iterations 1 converged true digest 36f6e5d806fd1beeb91b3ac6fa26868d";
    pin "iBench rows 128 linear" ibench_rows_128 ~squared:false
      ~cold:"iterations 110 converged true digest 1a87d1f7b4969c9f972c1a82f661f11c"
      ~warm:"iterations 1 converged true digest 881a1afa0e835fe72a2ee2306ae8d6f1";
    pin "iBench rows 128 squared" ibench_rows_128 ~squared:true
      ~cold:"iterations 708 converged true digest 8f1eb16d43a6e8a9ca1062c7138d672a"
      ~warm:"iterations 1 converged true digest 4ab4a75be214ab8837bd460ddef09d4a";
  ]

(* --- portfolio ----------------------------------------------------------- *)

let roster_names = [ "cmd"; "exact"; "greedy"; "local"; "anneal" ]

let objective_of name ~seed p =
  let impl = Option.get (Solver.find name) in
  match Solver.solve impl ~seed p with
  | o -> Some (Objective.value p o.Solver.selection)
  | exception Solver_error.Error _ -> None

let portfolio_tests =
  let open QCheck2 in
  [
    Test.make ~name:"portfolio equals the best of its roster" ~count:25
      Fixtures.selection_problem_gen (fun p ->
        let seed = 5 in
        match List.filter_map (fun n -> objective_of n ~seed p) roster_names with
        | [] -> false (* greedy never refuses *)
        | o :: rest -> (
          let best = List.fold_left Util.Frac.min o rest in
          match objective_of "portfolio" ~seed p with
          | None -> false
          | Some v -> Util.Frac.equal v best));
    Test.make ~name:"portfolio is deterministic and pool-invariant" ~count:15
      Fixtures.selection_problem_gen (fun p ->
        let impl = Option.get (Solver.find "portfolio") in
        let seq = (Solver.solve impl ~seed:9 p).Solver.selection in
        let again = (Solver.solve impl ~seed:9 p).Solver.selection in
        let pooled =
          Parallel.Pool.with_pool ~jobs:4 (fun pool ->
              (Solver.solve impl ~pool ~seed:9 p).Solver.selection)
        in
        seq = again && seq = pooled);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let test_portfolio_all_refuse () =
  (* a roster whose every entry raises must surface a typed error *)
  let refuse name =
    {
      Portfolio.r_name = name;
      r_solve =
        (fun ?pool:_ ?seed:_ _ -> Solver_error.raise_ ~solver:name "refused");
      r_exact = false;
    }
  in
  let p = appendix_problem () in
  Alcotest.(check bool)
    "raises Solver_error for the portfolio itself" true
    (match Portfolio.race ~roster:[ refuse "a"; refuse "b" ] p with
    | exception Solver_error.Error { solver = "portfolio"; _ } -> true
    | _ -> false)

(* --- the solver context -------------------------------------------------- *)

let test_ctx_shutdown_idempotent () =
  let ctx = Experiments.Common.Ctx.create ~jobs:2 () in
  ignore (Experiments.Common.Ctx.pool ctx);
  Experiments.Common.Ctx.shutdown ctx;
  (* the old set_jobs accessor double-shut the shared pool here *)
  Experiments.Common.Ctx.shutdown ctx;
  Alcotest.(check bool)
    "pool after shutdown is refused" true
    (match Experiments.Common.Ctx.pool ctx with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_ctx_concurrent_shutdown () =
  let ctx = Experiments.Common.Ctx.create ~jobs:2 () in
  ignore (Experiments.Common.Ctx.pool ctx);
  let racers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Experiments.Common.Ctx.shutdown ctx))
  in
  List.iter Domain.join racers;
  Alcotest.(check bool)
    "all four shutdowns returned" true true

let test_ctx_warm_chain_equals_cold () =
  (* the sweep path end-to-end: even under one shared key (every level
     offering its state to the next), run_solver must select exactly what
     cold solves do — Cmd only applies state on an exact model match *)
  let scenario level =
    Ibench.Generator.generate
      (Experiments.Common.noise_config ~seed:3 ~pi_corresp:0 ~pi_errors:level
         ~pi_unexplained:0 ())
  in
  let levels = [ 0; 25; 50 ] in
  let cold =
    Experiments.Common.Ctx.with_ctx ~jobs:1 (fun ctx ->
        List.map
          (fun level ->
            let s = scenario level in
            let p = Experiments.Common.problem_of_scenario ctx s in
            (Experiments.Common.run_solver ctx Experiments.Common.Cmd_solver s
               p)
              .Experiments.Common.selection)
          levels)
  in
  let warm =
    Experiments.Common.Ctx.with_ctx ~jobs:1 (fun ctx ->
        List.map
          (fun level ->
            let s = scenario level in
            let p = Experiments.Common.problem_of_scenario ctx s in
            (Experiments.Common.run_solver ctx ~warm_key:"chain"
               Experiments.Common.Cmd_solver s p)
              .Experiments.Common.selection)
          levels)
  in
  List.iteri
    (fun i (c, w) ->
      Alcotest.(check (array bool))
        (Printf.sprintf "level %d identical" (List.nth levels i))
        c w)
    (List.combine cold warm)

let test_ctx_reserved_point_identity () =
  (* re-serving one sweep point under a cached context: the second pass is
     answered from the selection tier (and would otherwise warm-start from
     the point's own fixed point); both passes must match a cold solve *)
  let s =
    Ibench.Generator.generate
      (Experiments.Common.noise_config ~seed:7 ~pi_corresp:0 ~pi_errors:25
         ~pi_unexplained:0 ())
  in
  let cold =
    Experiments.Common.Ctx.with_ctx ~jobs:1 (fun ctx ->
        let p = Experiments.Common.problem_of_scenario ctx s in
        (Experiments.Common.run_solver ctx Experiments.Common.Cmd_solver s p)
          .Experiments.Common.selection)
  in
  Experiments.Common.Ctx.with_ctx ~cache:(Cache.create ()) ~jobs:1 (fun ctx ->
      let solve () =
        let p = Experiments.Common.problem_of_scenario ctx s in
        (Experiments.Common.run_solver ctx ~warm_key:"pt"
           Experiments.Common.Cmd_solver s p)
          .Experiments.Common.selection
      in
      let first = solve () in
      let again = solve () in
      Alcotest.(check (array bool)) "pass 1 equals cold" cold first;
      Alcotest.(check (array bool)) "re-served pass equals cold" cold again)

let test_ctx_warm_store () =
  let ctx = Experiments.Common.Ctx.create ~jobs:1 () in
  let p = appendix_problem () in
  let w = (Cmd.solve p).Cmd.warm_out in
  Alcotest.(check bool)
    "empty store" true
    (Experiments.Common.Ctx.warm_find ctx "k" = None);
  Experiments.Common.Ctx.warm_set ctx "k" w;
  Alcotest.(check bool)
    "stored" true
    (Experiments.Common.Ctx.warm_find ctx "k" <> None);
  Experiments.Common.Ctx.warm_clear ctx;
  Alcotest.(check bool)
    "cleared" true
    (Experiments.Common.Ctx.warm_find ctx "k" = None)

let () =
  Alcotest.run "cmd"
    [
      ( "warm-start",
        warm_equals_cold_tests
        @ [
            Alcotest.test_case "zero warm state is the cold start" `Quick
              test_zero_warm_state_is_cold;
            Alcotest.test_case "delta on the identical model is total" `Quick
              test_delta_identity;
            Alcotest.test_case "delta transports across a dropped candidate"
              `Quick test_delta_neighbour;
          ] );
      ("admm-pins", admm_pin_tests);
      ( "portfolio",
        portfolio_tests
        @ [
            Alcotest.test_case "an all-refusing roster raises" `Quick
              test_portfolio_all_refuse;
          ] );
      ( "ctx",
        [
          Alcotest.test_case "shutdown is idempotent" `Quick
            test_ctx_shutdown_idempotent;
          Alcotest.test_case "concurrent shutdowns race safely" `Quick
            test_ctx_concurrent_shutdown;
          Alcotest.test_case "warm chain equals cold through run_solver"
            `Quick test_ctx_warm_chain_equals_cold;
          Alcotest.test_case "re-served point equals cold" `Quick
            test_ctx_reserved_point_identity;
          Alcotest.test_case "warm store round-trips" `Quick
            test_ctx_warm_store;
        ] );
    ]
