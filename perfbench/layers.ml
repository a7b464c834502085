(* Calls into the program's layers that the workloads share: the CMD
   solve, the output checks, document rendering, and the traced
   decompositions of [Core.Problem.make] and of CMD. Spans are recorded
   around public functions of one layer; nothing inside the program is
   traced. *)

open Perfbench

let cmd =
  match Core.Solver.find "cmd" with
  | Some s -> s
  | None -> failwith "the cmd solver is not registered"

let solve_cmd problem = (Core.Solver.solve cmd problem).Core.Solver.selection

(* The objective a run reports must be the exact objective of its selection
   and no worse than selecting nothing. *)
let objective_ok problem selection reported =
  Util.Frac.equal reported (Core.Objective.value problem selection)
  && Util.Frac.compare reported (Core.Objective.empty_value problem) <= 0

(* An iBench example as [Serialize.Document] text with no tgds: the input
   of [cmd_select --file], whose candidates are generated on parsing. *)
let document_text (s : Ibench.Scenario.t) =
  Serialize.Document.to_string
    {
      Serialize.Document.source = s.Ibench.Scenario.source;
      target = s.Ibench.Scenario.target;
      src_fkeys = s.Ibench.Scenario.src_fkeys;
      tgt_fkeys = s.Ibench.Scenario.tgt_fkeys;
      correspondences = s.Ibench.Scenario.correspondences;
      tgds = [];
      instance_i = s.Ibench.Scenario.instance_i;
      instance_j = s.Ibench.Scenario.instance_j;
    }

let selection_string sel =
  String.concat "," (List.map string_of_int (Core.Problem.indices_of_selection sel))

(* Layer counts and allocations gathered by one traced decomposition. *)
type counts = {
  mutable candidates : int;
  mutable produced : int;
  mutable chase_mwords : float;
  mutable cover_mwords : float;
  mutable admm_iters : int;
}

let counts () =
  { candidates = 0; produced = 0; chase_mwords = 0.; cover_mwords = 0.; admm_iters = 0 }

(* [Core.Problem.make] split into its parts: one columnar build of the
   source, a chase and a coverage fold per candidate, then
   [Problem.of_stats]. Same calls, same order as [Cover.analyze], so the
   digest must equal [Problem.make]'s. *)
let decomposed_problem tr c ~source ~j candidates =
  Span.record tr "problem.decomposed" (fun () ->
      let col =
        Span.record tr "relational.columnar_build" (fun () ->
            Relational.Columnar.of_instance source)
      in
      let stats =
        List.mapi
          (fun index tgd ->
            let result, w =
              Report.alloc_mwords (fun () ->
                  Span.record tr "chase.run" (fun () -> Chase.run_columnar col [ tgd ]))
            in
            c.chase_mwords <- c.chase_mwords +. w;
            let st, w =
              Report.alloc_mwords (fun () ->
                  Span.record tr "cover.stats" (fun () ->
                      Cover.stats_of_result ~j ~index tgd result))
            in
            c.cover_mwords <- c.cover_mwords +. w;
            c.produced <- c.produced + st.Cover.produced;
            st)
          candidates
      in
      c.candidates <- List.length candidates;
      Span.record tr "problem.of_stats" (fun () ->
          Core.Problem.of_stats ~j (Array.of_list stats)))

(* CMD split into preprocessing, grounding and ADMM, with the solver's own
   options; rounding is the rest of a full solve. *)
let decomposed_cmd tr c problem =
  Span.record tr "cmd.decomposed" (fun () ->
      let opts = Core.Cmd.default_options in
      let reduced = Span.record tr "core.preprocess" (fun () -> Core.Preprocess.run problem) in
      let model =
        Span.record tr "psl.ground" (fun () ->
            Core.Cmd.build_model ~squared:opts.Core.Cmd.squared
              reduced.Core.Preprocess.problem)
      in
      let out =
        Span.record tr "psl.admm" (fun () -> Psl.Admm.solve ~options:opts.Core.Cmd.admm model)
      in
      c.admm_iters <- out.Psl.Admm.iterations)

(* Per-layer metrics of the traced decompositions, as medians over the
   requests: span names map to metric names, derived parts are the full
   call minus its measured parts. *)
let layer_metrics ix (cs : counts list) =
  let per name = Span.per_req_ms ix name in
  let med name = Report.median_or_zero (per name) in
  let med_count f = Report.median_or_zero (Array.of_list (List.map f cs)) in
  (* per request: the full call minus its separately measured parts *)
  let residual whole parts =
    let whole = per whole and parts = List.map per parts in
    if Array.length whole = 0
       || List.exists (fun p -> Array.length p <> Array.length whole) parts
    then 0.
    else
      Report.median_or_zero
        (Array.mapi
           (fun i w -> List.fold_left (fun acc p -> acc -. p.(i)) w parts)
           whole)
  in
  [
    ("serialize.parse_ms", med "serialize.parse");
    ("candgen.generate_ms", med "candgen.generate");
    ("candgen.candidates", med_count (fun c -> float_of_int c.candidates));
    ("relational.columnar_build_ms", med "relational.columnar_build");
    ("chase.run_ms", med "chase.run");
    ("chase.tuples_produced", med_count (fun c -> float_of_int c.produced));
    ("chase.alloc_mwords", med_count (fun c -> c.chase_mwords));
    ("cover.stats_ms", med "cover.stats");
    ("cover.alloc_mwords", med_count (fun c -> c.cover_mwords));
    ("problem.make_ms", med "problem.make");
    ("problem.of_stats_ms", med "problem.of_stats");
    ( "problem.unattributed_ms",
      residual "problem.make"
        [ "relational.columnar_build"; "chase.run"; "cover.stats"; "problem.of_stats" ] );
    ("core.preprocess_ms", med "core.preprocess");
    ("psl.ground_ms", med "psl.ground");
    ("psl.admm_ms", med "psl.admm");
    ("psl.admm_iters", med_count (fun c -> float_of_int c.admm_iters));
    ("core.cmd_solve_ms", med "core.cmd_solve");
    ( "core.cmd_round_ms",
      residual "core.cmd_solve" [ "core.preprocess"; "psl.ground"; "psl.admm" ] );
    ("metrics.score_ms", med "metrics.score");
  ]

(* Tracing overhead: the traced pipeline span against the same pipeline
   run untraced on the same inputs, both as medians. *)
let overhead_pct ~traced ~untraced =
  let t = Report.median_or_zero traced and u = Report.median_or_zero untraced in
  if u > 0. then 100. *. (t -. u) /. u else 0.

(* Share of the traced loop's wall time outside every top-level span. *)
let unattributed_frac spans ~wall_s =
  let covered = Int64.to_float (Span.top_level_union_ns spans) /. 1e9 in
  if wall_s > 0. then Float.max 0. ((wall_s -. covered) /. wall_s) else 0.

let write_trace ~workload ~seed spans =
  let path = Printf.sprintf "%s/%s-seed%d.jsonl" Report.trace_dir workload seed in
  Report.mkdir_p Report.trace_dir;
  Span.write_jsonl path spans;
  Report.log "trace: %d spans written to %s" (List.length spans) path
