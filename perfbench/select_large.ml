(* select-large: one data example at a time, from document text to mapping
   — the [cmd_select --file] path at the size where the data layer
   (chase + Eq. 9 cover inside [Problem.make]) dominates. Set-up renders
   iBench examples to [Serialize.Document] text without tgds; the timed
   path parses, generates candidates, builds the problem, solves with CMD
   and takes the objective breakdown.

   The examples are one fixed set, made from [example_seed] whatever the
   run's seed: one example costs up to three times another (0.8 to 3.0 s
   of CPU), and the median of twenty drawn from the run's seed read 1077
   to 1448 ms over five seeds. The run's seed sets the order they run in.
   The end-to-end run times each example in a fresh process; the traced
   run stays in this one. *)

open Perfbench

let name = "select-large"
let param = Report.int_param name

type example = {
  text : string;  (** the document, without tgds *)
  path : string;  (** and the file that holds it *)
  tuples : int;  (** |J| *)
  gen_ms : float;  (** the generator process, start to exit *)
  gen_cpu_s : float;  (** and its CPU time *)
}

(* Keeps a generated document's data and metadata and drops the candidate
   tgds the generator writes, so that candidates are generated on parsing,
   as [cmd_select --file] does for such a document. *)
let read_example path =
  let ic = open_in path in
  let lines =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
        go [])
  in
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  let kept = List.filter (fun l -> not (starts "tgd " l)) lines in
  (String.concat "\n" kept ^ "\n", List.length (List.filter (starts "target tuple ") kept))

(* Set-up renders each example with the program's own generator CLI
   ([scenario_gen -o]) in a child process, [jobs] at a time, and returns
   the examples with the CPU times of the reference work run as each
   generator ends, while the other still runs, which scale the set-up. *)
let generate_examples ~seed ~dir n =
  let spawn i =
    let path = Filename.concat dir (Printf.sprintf "example%d.txt" i) in
    let opt k v = [ "--" ^ k; string_of_int v ] in
    let args =
      Array.of_list
        ((!Report.scenario_gen :: opt "seed" (Parallel.Seed.derive seed i))
        @ opt "rows" (param "rows")
        @ opt "pi-corresp" (param "pi_corresp")
        @ opt "pi-errors" (param "pi_errors")
        @ opt "pi-unexplained" (param "pi_unexplained")
        @ [ "-o"; path ])
    in
    let t0 = Report.now () in
    (Unix.create_process !Report.scenario_gen args Unix.stdin Unix.stderr Unix.stderr, (i, path, t0))
  in
  let examples = Array.make n None and running = Hashtbl.create 2 and next = ref 0 in
  let refs = ref [] in
  let rec loop () =
    while !next < n && Hashtbl.length running < param "jobs" do
      let pid, job = spawn !next in
      Hashtbl.replace running pid job;
      incr next
    done;
    if Hashtbl.length running > 0 then begin
      let c0 = Report.children_cpu () in
      let pid, status = Unix.wait () in
      let gen_cpu_s = Report.children_cpu () -. c0 in
      let i, path, t0 = Hashtbl.find running pid in
      Hashtbl.remove running pid;
      let gen_ms = (Report.now () -. t0) *. 1e3 in
      if status <> Unix.WEXITED 0 then failwith (Printf.sprintf "scenario_gen failed on example %d" i);
      let text, tuples = read_example path in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      examples.(i) <- Some { text; path; tuples; gen_ms; gen_cpu_s };
      (* the reference work, here while the other generator still runs *)
      refs := Calib.reference () :: !refs;
      loop ()
    end
  in
  loop ();
  (Array.map Option.get examples, Array.of_list !refs)

let parse text =
  match Serialize.Parser.parse text with
  | Ok doc -> doc
  | Error e -> failwith (Format.asprintf "parse: %a" Serialize.Parser.pp_error e)

(* The timed path. With a recorder, each layer call gets its own span. *)
let pipeline tr text =
  let doc = Span.opt tr "serialize.parse" (fun () -> parse text) in
  let open Serialize.Document in
  let candidates =
    Span.opt tr "candgen.generate" (fun () ->
        Candgen.Generate.generate ~source:doc.source ~target:doc.target
          ~src_fkeys:doc.src_fkeys ~tgt_fkeys:doc.tgt_fkeys
          ~corrs:doc.correspondences)
  in
  let problem =
    Span.opt tr "problem.make" (fun () ->
        Core.Problem.make ~source:doc.instance_i ~j:doc.instance_j candidates)
  in
  let selection = Span.opt tr "core.cmd_solve" (fun () -> Layers.solve_cmd problem) in
  let b =
    Span.opt tr "objective.breakdown" (fun () -> Core.Objective.breakdown problem selection)
  in
  (doc, candidates, problem, selection, b.Core.Objective.total)

(* Digest and selection of each example, checked against the goldens of
   the seed the examples are made from and against the example's first
   run. *)
let checker ~example_seed examples =
  let goldens = Goldens.load name ~seed:example_seed in
  let first = Array.make (Array.length examples) None in
  fun k got ->
    let same_as_first =
      match first.(k) with
      | None ->
        first.(k) <- Some got;
        true
      | Some prev -> prev = got
    in
    same_as_first && Goldens.matches goldens k got

(* The end-to-end run times each example in a fresh process of this
   executable ([main.exe --example PATH]), as a [cmd_select --file] run
   would: in one long-lived process the heap an example starts from
   depends on the examples run before it (OCaml 5.1 never compacts), and
   that moved an example's CPU time by up to 30% with the order. The child
   reads the document (untimed), runs the reference work, the timed path
   and the reference work again, and prints the path's CPU time, its wall
   time, the reference's mean CPU time, digest, selection, objective check
   and peak RSS, one a line. *)
let child path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let ref0 = Calib.reference () in
  let ((_, _, problem, selection, total), cpu), wall =
    Report.timed (fun () -> Report.cpu_timed (fun () -> pipeline None text))
  in
  let ref1 = Calib.reference () in
  Printf.printf "%.6f\n%.6f\n%.6f\n%s\n%s\n%b\n%f\n" cpu wall ((ref0 +. ref1) /. 2.)
    (Core.Problem.digest problem) (Layers.selection_string selection)
    (Layers.objective_ok problem selection total)
    (Report.peak_rss_mb "self")

type child_result = {
  cpu_s : float;
  wall_s : float;
  ref_s : float;  (** the reference work's CPU time around it *)
  got : string * string;  (** digest, selection *)
  objective_ok : bool;
  rss_mb : float;
}

let in_child ex =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    match Unix.create_process exe [| exe; "--example"; ex.path |] Unix.stdin w Unix.stderr with
    | pid -> pid
    | exception e ->
      Unix.close r;
      Unix.close w;
      raise e
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  match (snd (Unix.waitpid [] pid), String.split_on_char '\n' out) with
  | Unix.WEXITED 0, cpu :: wall :: ref_s :: digest :: selection :: ok :: rss :: _ ->
    {
      cpu_s = float_of_string cpu;
      wall_s = float_of_string wall;
      ref_s = float_of_string ref_s;
      got = (digest, selection);
      objective_ok = ok = "true";
      rss_mb = float_of_string rss;
    }
  | _ -> failwith "the example process failed"

(* Every example runs at least once, traced or not, so the set measured
   never depends on how fast the program is and every median over the
   examples rests on all of them; the run's seed sets their order. Returns
   how many runs were made. *)
let loop ~seconds ~order f =
  let n = Array.length order in
  let op = ref 0 in
  let deadline = Report.now () +. seconds in
  while !op < n || Report.now () < deadline do
    f !op order.(!op mod n);
    incr op
  done;
  !op

(* every example weighs the same, however many times it ran *)
let per_example times =
  Array.of_list
    (List.filter_map
       (fun l -> if l = [] then None else Some (Stat.median (Array.of_list l)))
       (Array.to_list times))

let show a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") a))

let run_plain ~seconds ~examples ~order ~setup_s ~check =
  let n = Array.length examples in
  let tally = Stat.tally () in
  let lat_ms = Array.make n [] and cpu_ms = Array.make n [] and scaled_ms = Array.make n [] in
  let refs = ref [] and rss_mb = ref 0. in
  let ops =
    loop ~seconds ~order (fun op k ->
        match in_child examples.(k) with
        | c ->
          lat_ms.(k) <- (c.wall_s *. 1e3) :: lat_ms.(k);
          cpu_ms.(k) <- (c.cpu_s *. 1e3) :: cpu_ms.(k);
          (* scaled by the reference runs around it in its own process *)
          scaled_ms.(k) <- Calib.scale ~ref_s:c.ref_s (c.cpu_s *. 1e3) :: scaled_ms.(k);
          refs := c.ref_s :: !refs;
          rss_mb := Float.max !rss_mb c.rss_mb;
          let ok = c.objective_ok && check k c.got in
          if not ok then Report.log "%s: op %d (example %d): output check failed" name op k;
          Stat.record tally ~ok
        | exception e ->
          Report.log "%s: op %d (example %d): %s" name op k (Printexc.to_string e);
          Stat.record tally ~ok:false)
  in
  let example_cpu_ms = per_example cpu_ms in
  Report.log "%s: %d runs; median per example: %s ms (CPU %s ms); median CPU %.1f ms, reference %.1f ms"
    name ops (show (per_example lat_ms)) (show example_cpu_ms) (Stat.median example_cpu_ms)
    (Stat.median (Array.of_list !refs) *. 1e3);
  let metrics =
    [
      ("setup_s", setup_s);
      (* per example, not pooled: one slow example among twenty would
         otherwise set the figure *)
      ("scaled_cpu_ms", Stat.reported 50. (per_example scaled_ms));
      (* the largest of the example processes' peaks *)
      ("peak_rss_mb", !rss_mb);
    ]
  in
  { Report.tally; metrics }

(* The traced run stays in this process, one example after another, each
   from a collected heap: an untraced pipeline, then the traced one, then
   the traced decompositions of [Problem.make] and CMD. *)
let run_traced ~seed ~examples ~order ~check =
  (* one untimed pass first, so the heap has grown to its working size *)
  ignore (pipeline None examples.(order.(0)).text);
  let tally = Stat.tally () in
  let spans = ref [] and counts = ref [] and untraced_ms = ref [] in
  let start = Report.now () in
  (* every example once: each per-layer median rests on all twenty *)
  let _ : int =
    loop ~seconds:0. ~order (fun op k ->
        let ex = examples.(k) in
        let tr = Span.create ~req:op () in
        let collect () = Span.record tr "bench.gc" Gc.full_major in
        Stat.attempt tally;
        (match
           collect ();
           let _, u =
             Report.timed (fun () ->
                 Span.record tr "bench.untraced" (fun () -> pipeline None ex.text))
           in
           untraced_ms := (u *. 1e3) :: !untraced_ms;
           collect ();
           let doc, candidates, problem, selection, total =
             Span.record tr "select.example" (fun () -> pipeline (Some tr) ex.text)
           in
           let c = Layers.counts () in
           counts := c :: !counts;
           let decomposed =
             let open Serialize.Document in
             Layers.decomposed_problem tr c ~source:doc.instance_i ~j:doc.instance_j candidates
           in
           Layers.decomposed_cmd tr c problem;
           Span.record tr "bench.check" (fun () ->
               Core.Problem.digest decomposed = Core.Problem.digest problem
               && Layers.objective_ok problem selection total
               && check k (Core.Problem.digest problem, Layers.selection_string selection))
         with
        | true -> ()
        | false ->
          Report.log "%s: op %d (example %d): output check failed" name op k;
          Stat.fail tally
        | exception e ->
          Report.log "%s: op %d (example %d): %s" name op k (Printexc.to_string e);
          Stat.fail tally);
        spans := Span.spans tr @ !spans)
  in
  let wall_s = Report.now () -. start in
  let spans = !spans in
  Layers.write_trace ~workload:name ~seed spans;
  let ix = Span.index spans in
  let metrics =
    Layers.layer_metrics ix !counts
    @ [
        ("ibench.generate_ms", Stat.reported 50. (Array.map (fun e -> e.gen_ms) examples));
        ("wall.latency_ms", Stat.reported 50. (Array.of_list !untraced_ms));
        ("trace.unattributed_frac", Layers.unattributed_frac spans ~wall_s);
        ( "trace.overhead_pct",
          Layers.overhead_pct
            ~traced:(Span.per_req_ms ~self:false ix "select.example")
            ~untraced:(Array.of_list !untraced_ms) );
        ("ops_failed_frac", Stat.failed_frac tally);
      ]
  in
  { Report.tally; metrics }

let run ~seed ~seconds ~trace =
  let example_seed = param "example_seed" in
  let dir = Filename.concat Report.run_dir (string_of_int (Unix.getpid ())) in
  Report.mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> Report.remove_run_dir dir)
    (fun () ->
      let examples, setup_refs = generate_examples ~seed:example_seed ~dir (param "examples") in
      let n = Array.length examples in
      Report.log "%s: %d examples, |J| = %s" name n
        (String.concat " " (Array.to_list (Array.map (fun e -> string_of_int e.tuples) examples)));
      let order = Array.init n Fun.id in
      let rng = Random.State.make [| seed |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let check = checker ~example_seed examples in
      if trace then run_traced ~seed ~examples ~order ~check
      else
        let gen_cpu_s = Stat.reported 50. (Array.map (fun e -> e.gen_cpu_s) examples) in
        let ref_s = Stat.median setup_refs in
        Report.log "%s: set-up: median %.3f s CPU an example, reference %.1f ms" name gen_cpu_s
          (ref_s *. 1e3);
        run_plain ~seconds ~examples ~order ~check ~setup_s:(Calib.scale ~ref_s gen_cpu_s))
