(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (select-large, sweep or serve-mix) on inputs made from
   the seed, for about S seconds, checks every output, and prints one JSON
   line last: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are BENCHMARK.json's end-to-end list, measured with no spans
   recorded; with --trace 1 they are its per-layer list, from spans the
   benchmark records around its own calls into each layer (written to
   .perfbench-out/). Run it from the repository root, through
   perfbench/run.sh, which builds it first.

     main.exe --example PATH

   is how select-large runs one example in a fresh process (see
   select_large.ml). *)

let workloads =
  [
    (Select_large.name, Select_large.run);
    (Sweep.name, Sweep.run);
    (Serve_mix.name, Serve_mix.run);
  ]

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let example = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed (default: the workload's)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--daemon", Arg.Set_string Report.daemon_exe, "PATH cmd_serve executable (serve-mix)");
      ("--scenario-gen", Arg.Set_string Report.scenario_gen, "PATH scenario_gen executable (select-large)");
      ("--example", Arg.Set_string example, "PATH run one select-large example and print its figures");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | _ when !example <> "" -> Select_large.child !example
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "--trace must be 0 or 1";
    exit 2
  | Some run ->
    let seed = Option.value !seed ~default:(Report.default_seed !workload) in
    let result = run ~seed ~seconds:!seconds ~trace:(!trace = 1) in
    Report.print ~trace:(!trace = 1) result
