(* sweep: the paper's evaluation loop (the shape of experiments E3/E4). A
   grid of seeds x noise levels, each point generating an iBench scenario,
   building its problem, solving it with CMD and scoring it against the
   ground truth, through an experiments context with no cache. The timed
   loop runs at jobs 1, so each point's CPU time is its own (with two
   domains, one spins at the other's garbage-collection barriers); a rerun
   of the first points at jobs 2 must select byte-identically. Here the
   solver layer does most of the work. *)

open Perfbench

let name = "sweep"
let param = Report.int_param name

type point = { seed : int; errors : int; unexplained : int }

let levels = [ 0; 10; 20; 30; 40; 50 ]

(* Grid seed [g] gives twelve points: errors then unexplained, 0..50. *)
let points_of_grid_seed seed =
  List.map (fun l -> { seed; errors = l; unexplained = 0 }) levels
  @ List.map (fun l -> { seed; errors = 0; unexplained = l }) levels

let round_points ~seed r =
  let per = param "grid_seeds_per_round" in
  List.concat_map
    (fun g -> points_of_grid_seed (Parallel.Seed.derive seed ((r * per) + g + 1)))
    (List.init per Fun.id)

let scenario pt =
  Ibench.Generator.generate
    (Experiments.Common.noise_config ~rows:(param "rows") ~seed:pt.seed
       ~pi_corresp:(param "pi_corresp") ~pi_errors:pt.errors
       ~pi_unexplained:pt.unexplained ())

type done_point = {
  problem : Core.Problem.t;
  selection : bool array;
  objective : Util.Frac.t;
  ms : float;
  cpu_ms : float;
}

(* One point through the experiments layer, timed inside the worker. *)
let run_point ctx pt =
  match
    Report.timed (fun () ->
        Report.cpu_timed (fun () ->
            let s = scenario pt in
            let problem = Experiments.Common.problem_of_scenario ctx s in
            let o = Experiments.Common.run_solver ctx Experiments.Common.Cmd_solver s problem in
            (problem, o)))
  with
  | ((problem, o), cpu), dt ->
    Ok
      {
        problem;
        selection = o.Experiments.Common.selection;
        objective = o.Experiments.Common.objective;
        ms = dt *. 1e3;
        cpu_ms = cpu *. 1e3;
      }
  | exception e -> Error (Printexc.to_string e)

let fingerprint d = (Core.Problem.digest d.problem, Layers.selection_string d.selection)

(* The jobs of the identity rerun and of the speed-up measurement. *)
let jobs () = max 1 (min (param "jobs") (Domain.recommended_domain_count ()))

(* Set-up: a context at jobs 1, its pool, and a warm-up grid seed run
   through it. The warm-up grid is the same for every seed and set-up: one
   grid seed's twelve points cost up to twice another's, and set-up times
   must compare across runs. *)
let setup () =
  let ctx = Experiments.Common.Ctx.create ~jobs:1 () in
  ignore (Experiments.Common.Ctx.pool ctx);
  let warm = points_of_grid_seed (Parallel.Seed.derive (param "setup_seed") 1) in
  ignore (Experiments.Common.parallel_map ctx (run_point ctx) warm);
  ctx

(* The traced point: the same layer calls one by one, then the traced
   decompositions of [Problem.make] and CMD. *)
let traced_point tr c ctx pt =
  let (s, gen_mwords), problem, selection =
    Span.record tr "sweep.point" (fun () ->
        let generated =
          Report.alloc_mwords (fun () -> Span.record tr "ibench.generate" (fun () -> scenario pt))
        in
        let s = fst generated in
        let problem =
          Span.record tr "problem.make" (fun () -> Experiments.Common.problem_of_scenario ctx s)
        in
        let selection = Span.record tr "core.cmd_solve" (fun () -> Layers.solve_cmd problem) in
        Span.record tr "metrics.score" (fun () ->
            ignore
              (Metrics.mapping_level ~candidates:s.Ibench.Scenario.candidates
                 ~truth:s.Ibench.Scenario.ground_truth selection);
            ignore (Metrics.tuple_level problem selection));
        (generated, problem, selection))
  in
  let decomposed =
    Layers.decomposed_problem tr c ~source:s.Ibench.Scenario.instance_i
      ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates
  in
  Layers.decomposed_cmd tr c problem;
  (problem, selection, gen_mwords, decomposed)

let run ~seed ~seconds ~trace =
  (* each set-up's CPU time scaled by the reference runs around it *)
  let setups =
    Array.init (param "setups") (fun _ ->
        let ref0 = Calib.reference () in
        let ctx, cpu = Report.cpu_timed setup in
        (ctx, Calib.scale ~ref_s:((ref0 +. Calib.reference ()) /. 2.) cpu))
  in
  let ctx = fst setups.(Array.length setups - 1) in
  Array.iteri
    (fun i (c, _) -> if i < Array.length setups - 1 then Experiments.Common.Ctx.shutdown c)
    setups;
  let setup_s = Stat.median (Array.map snd setups) in
  let goldens = Goldens.load name ~seed in
  let tally = Stat.tally () in
  (* checks every point's output; round 0 also against the goldens *)
  let check ~round i pt = function
    | Error msg ->
      Report.log "%s: point %d of round %d: %s" name i round msg;
      Stat.record tally ~ok:false
    | Ok d ->
      let ok =
        Layers.objective_ok d.problem d.selection d.objective
        && (round > 0 || Goldens.matches goldens i (fingerprint d))
      in
      if not ok then
        Report.log "%s: point %d of round %d (seed %d, errors %d, unexplained %d): check failed"
          name i round pt.seed pt.errors pt.unexplained;
      Stat.record tally ~ok
  in
  let round0 = round_points ~seed 0 in
  let first_round = ref [] in
  let start = Report.now () in
  let deadline = start +. seconds in
  let metrics =
    if not trace then begin
      let lat = ref [] and cpu = ref [] and refs = ref [] and scaled = ref [] in
      let busy = ref 0. and points = ref 0 and r = ref 0 in
      (* as many rounds as the seconds hold at [round_s] each: the points
         measured do not depend on how fast the program is *)
      let rounds = max 1 (int_of_float (Float.round (seconds /. Report.param name "round_s"))) in
      let words0 = Gc.minor_words () in
      while !r < rounds do
        let pts = round_points ~seed !r in
        (* the reference work before and after each round (Calib) *)
        let ref0 = Calib.reference () in
        let results, dt =
          Report.timed (fun () -> Experiments.Common.parallel_map ctx (run_point ctx) pts)
        in
        let ref_s = (ref0 +. Calib.reference ()) /. 2. in
        refs := ref_s :: !refs;
        busy := !busy +. dt;
        points := !points + List.length pts;
        List.iteri
          (fun i (pt, res) ->
            check ~round:!r i pt res;
            Result.iter
              (fun d ->
                lat := d.ms :: !lat;
                cpu := d.cpu_ms :: !cpu;
                scaled := Calib.scale ~ref_s d.cpu_ms :: !scaled)
              res)
          (List.combine pts results);
        if !r = 0 then first_round := results;
        incr r
      done;
      Experiments.Common.Ctx.shutdown ctx;
      (* the same points at jobs 2 must select byte-identically *)
      let n = param "identity_points" in
      let sub l = List.filteri (fun i _ -> i < n) l in
      Experiments.Common.Ctx.with_ctx ~jobs:(jobs ()) (fun ctxn ->
          let par = Experiments.Common.parallel_map ctxn (run_point ctxn) (sub round0) in
          List.iteri
            (fun i (a, b) ->
              let ok =
                match (a, b) with
                | Ok a, Ok b -> fingerprint a = fingerprint b
                | _ -> false
              in
              if not ok then Report.log "%s: point %d differs between jobs 1 and %d" name i (jobs ());
              Stat.record tally ~ok)
            (List.combine (sub !first_round) par));
      (* the mean, not the median: a point's cost varies several times
         over with its noise level and grid seed, and the median of such a
         mix moves with which points the seed draws *)
      let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
      Report.log
        "%s: %d points in %.1f s at jobs 1, p50 %.1f ms (CPU p50 %.1f, mean %.2f ms), %.3f Mwords allocated a point, reference %.1f ms"
        name !points !busy (Report.median_or_zero (Array.of_list !lat))
        (Stat.median (Array.of_list !cpu)) (mean !cpu)
        ((Gc.minor_words () -. words0) /. 1e6 /. float_of_int !points)
        (Stat.median (Array.of_list !refs) *. 1e3);
      [
        ("setup_s", setup_s);
        ("scaled_cpu_ms", mean !scaled);
        ("peak_rss_mb", Report.peak_rss_mb "self");
      ]
    end
    else begin
      Experiments.Common.Ctx.shutdown ctx;
      (* sequential, so each layer's time is its own *)
      Experiments.Common.Ctx.with_ctx ~jobs:1 (fun ctx1 ->
          let spans = ref [] and counts = ref [] and untraced = ref [] in
          let gen_mwords = ref [] in
          let k = ref 0 and r = ref 0 in
          while !k = 0 || Report.now () < deadline do
            List.iteri
              (fun i pt ->
                if !k = 0 || Report.now () < deadline then begin
                  let tr = Span.create ~req:!k () in
                  let c = Layers.counts () in
                  let plain, u =
                    Report.timed (fun () ->
                        Span.record tr "bench.untraced" (fun () -> run_point ctx1 pt))
                  in
                  untraced := (u *. 1e3) :: !untraced;
                  (match (plain, traced_point tr c ctx1 pt) with
                  | Ok d, (problem, selection, w, decomposed) ->
                    counts := c :: !counts;
                    gen_mwords := w :: !gen_mwords;
                    (* the untraced point's reported objective, the traced
                       calls giving the same problem and selection, and the
                       decomposed problem giving the same digest *)
                    let ok =
                      Span.record tr "bench.check" (fun () ->
                          let got = (Core.Problem.digest problem, Layers.selection_string selection) in
                          Layers.objective_ok d.problem d.selection d.objective
                          && fingerprint d = got
                          && Core.Problem.digest decomposed = fst got
                          && (!r > 0 || Goldens.matches goldens i got))
                    in
                    if not ok then Report.log "%s: traced point %d: check failed" name !k;
                    Stat.record tally ~ok
                  | Error msg, _ ->
                    Report.log "%s: traced point %d: %s" name !k msg;
                    Stat.record tally ~ok:false
                  | exception e ->
                    Report.log "%s: traced point %d: %s" name !k (Printexc.to_string e);
                    Stat.record tally ~ok:false);
                  spans := Span.spans tr @ !spans;
                  incr k
                end)
              (round_points ~seed !r);
            incr r
          done;
          let wall_s = Report.now () -. start in
          let spans = !spans in
          Layers.write_trace ~workload:name ~seed spans;
          let ix = Span.index spans in
          (* parallel speed-up on one fixed batch, untraced *)
          let batch = round0 in
          let time_at jobs =
            Experiments.Common.Ctx.with_ctx ~jobs (fun c ->
                ignore (Experiments.Common.Ctx.pool c);
                snd (Report.timed (fun () -> Experiments.Common.parallel_map c (run_point c) batch)))
          in
          let t1 = time_at 1 in
          let tn = time_at (jobs ()) in
          Report.log "%s: %d traced points; batch of %d: %.2f s at jobs 1, %.2f s at jobs %d" name !k
            (List.length batch) t1 tn (jobs ());
          Layers.layer_metrics ix !counts
          @ [
              ("ibench.generate_ms", Report.median_or_zero (Span.per_req_ms ix "ibench.generate"));
              ("ibench.alloc_mwords", Report.median_or_zero (Array.of_list !gen_mwords));
              ("wall.latency_ms", Stat.reported 50. (Array.of_list !untraced));
              ("parallel.sweep_speedup", t1 /. tn);
              ("trace.unattributed_frac", Layers.unattributed_frac spans ~wall_s);
              ( "trace.overhead_pct",
                Layers.overhead_pct
                  ~traced:(Span.per_req_ms ~self:false ix "sweep.point")
                  ~untraced:(Array.of_list !untraced) );
              ("ops_failed_frac", Stat.failed_frac tally);
            ])
    end
  in
  { Report.tally; metrics }
