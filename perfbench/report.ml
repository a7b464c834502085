(* Shared plumbing of the workloads: the run configuration, the clock,
   memory readings and the final result line. Metric names and units come
   from BENCHMARK.json, so the benchmark's description and the metrics this
   program prints cannot drift apart. *)

module J = Util.Json

let workloads_file = "perfbench/workloads.json"
let benchmark_file = "BENCHMARK.json"
let trace_dir = ".perfbench-out"

(* The program's executables the workloads drive, as built by
   perfbench/run.sh. *)
let daemon_exe = ref "_build/default/bin/cmd_serve.exe"
let scenario_gen = ref "_build/default/bin/scenario_gen.exe"

(* Scratch files of a run live in run_dir/<pid>/ and are removed with it. *)
let run_dir = ".perfbench-run"

let load path =
  match J.load path with
  | Ok j -> j
  | Error msg -> failwith (Printf.sprintf "cannot read %s" msg)

let config = lazy (load workloads_file)

(* [param "select-large" "rows"] — a number from the workload's entry. *)
let param workload key =
  let ( let* ) = Option.bind in
  match
    let* w = J.member "workloads" (Lazy.force config) in
    let* w = J.member workload w in
    let* p = J.member "params" w in
    let* v = J.member key p in
    J.to_float v
  with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: no %s.params.%s" workloads_file workload key)

let int_param workload key = int_of_float (param workload key)

let default_seed workload =
  match
    Option.bind (J.member "workloads" (Lazy.force config)) (fun w ->
        Option.bind (J.member workload w) (fun w ->
            Option.bind (J.member "default_seed" w) J.to_int))
  with
  | Some s -> s
  | None -> failwith (Printf.sprintf "%s: no %s.default_seed" workloads_file workload)

let now () = Int64.to_float (Util.Timer.now_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU time, in seconds. The end-to-end timings are CPU time, not wall
   time: on a host whose cores are shared with other machines, wall time
   also counts the time the host gave this one's cores to others, and that
   share moves from run to run. The kernel leaves stolen time out of a
   task's run time (paravirtual steal accounting), so CPU time counts only
   the program's own work. *)

let read_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_line ic)

(* This process's CPU time (getrusage: the threads' run times summed, to
   the microsecond). Its timed work runs on one domain, so this is that
   work's time. /proc/thread-self/schedstat would be per thread, but it is
   only brought up to date at scheduler ticks (4 ms), too coarse for one
   operation. *)
let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_timed f =
  let t0 = self_cpu () in
  let r = f () in
  (r, self_cpu () -. t0)

(* The run time of another process: the sum over its threads of the first
   field of /proc/<pid>/task/<tid>/schedstat, up to date while the process
   waits. Threads that have ended no longer count, so this is for processes
   whose threads live as long as they do, as a daemon serving with one
   job. *)
let process_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_line (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | Some l -> acc +. Scanf.sscanf l "%Ld" (fun ns -> Int64.to_float ns /. 1e9)
      | None -> acc)
    0. (Sys.readdir dir)

(* CPU time of the children this process has waited for. *)
let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Minor-heap words the current domain allocates during [f], in millions. *)
let alloc_mwords f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, (Gc.minor_words () -. w0) /. 1e6)

(* VmHWM (peak resident set) of a process, in MB; [pid] "self" for this
   one. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let remove_run_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  if Array.length (Sys.readdir run_dir) = 0 then Sys.rmdir run_dir

(* A printed median: 0 where the layer did no work, otherwise it must rest
   on enough samples ([Stat.reported]). *)
let median_or_zero xs = if Array.length xs = 0 then 0. else Perfbench.Stat.reported 50. xs

(* What a workload hands back: its operation accounting and every metric
   it measured, by BENCHMARK.json name. *)
type result = { tally : Perfbench.Stat.tally; metrics : (string * float) list }

let metric_list section =
  match Option.bind (J.member section (load benchmark_file)) J.to_list with
  | Some l ->
    List.map
      (fun m ->
        match
          (Option.bind (J.member "name" m) J.to_str, Option.bind (J.member "unit" m) J.to_str)
        with
        | Some n, Some u -> (n, u)
        | _ -> failwith (benchmark_file ^ ": metric without name or unit"))
      l
  | None -> failwith (Printf.sprintf "%s: no %s list" benchmark_file section)

(* Prints the result line. End-to-end metrics must all be measured; a
   per-layer metric the workload does not exercise reads 0 (that layer does
   no work there). A missing end-to-end metric is a benchmark bug: no
   result is printed and the run fails. *)
let print ~trace (r : result) =
  let section = if trace then "per_layer" else "end_to_end" in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name r.metrics with
          | Some v when Float.is_finite v -> v
          | Some _ -> failwith (Printf.sprintf "metric %s is not finite" name)
          | None when trace -> 0.
          | None -> failwith (Printf.sprintf "end-to-end metric %s was not measured" name)
        in
        (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]))
      (metric_list section)
  in
  let failed = Perfbench.Stat.failed r.tally in
  let attempted = Perfbench.Stat.attempted r.tally in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0 && attempted > 0));
            ("attempted", J.Num (float_of_int (max 1 attempted)));
            ("failed", J.Num (float_of_int (if attempted = 0 then 1 else failed)));
            ("metrics", J.Obj metrics);
          ]))

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
