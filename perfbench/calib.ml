(* The reference work the end-to-end CPU times are scaled by.

   On a host whose cores are shared with other machines, the speed of a
   core moves by a quarter within seconds, and CPU time follows it: one
   select-large example, run 30 times in fresh processes on an idle guest,
   took 0.70 to 1.14 s of CPU (quartiles 23% apart). A fixed piece of work
   the benchmark owns, timed right before and after the program's in the
   same process, moves with it (correlation 0.87 on those runs, quartiles
   of the ratio 11% apart). The program cannot change the reference, so a
   faster program shows in full.

   The work mixes what the program's hot paths do: hash tables keyed by
   small tuples, strings, a float sort and a list sort, about 85 ms on a
   core of the 2-core VM the benchmark was sized on. *)

let kernel () =
  let n = 60_000 in
  let h = Hashtbl.create 16 in
  for i = 0 to n do
    Hashtbl.replace h ((i * 7919) mod 1_000_003, i land 1023) (string_of_int i)
  done;
  let s = ref 0 in
  for i = 0 to n do
    match Hashtbl.find_opt h ((i * 7919) mod 1_000_003, i land 1023) with
    | Some v -> s := !s + String.length v
    | None -> ()
  done;
  let a = Array.init n (fun i -> float_of_int ((i * 7919) mod 100_003)) in
  Array.sort Float.compare a;
  let l = List.sort compare (List.init (n * 2 / 3) (fun i -> (i * 31) mod 997)) in
  !s + List.length l + int_of_float a.(0)

(* CPU seconds of one run of the reference work in this process. *)
let reference () = snd (Report.cpu_timed (fun () -> ignore (Sys.opaque_identity (kernel ()))))

(* The reference's CPU time on an ordinary core (workloads.json). *)
let nominal_ms () =
  match Option.bind (Util.Json.member "calibration" (Lazy.force Report.config)) (fun c ->
            Option.bind (Util.Json.member "nominal_ms" c) Util.Json.to_float)
  with
  | Some v -> v
  | None -> failwith (Report.workloads_file ^ ": no calibration.nominal_ms")

(* A CPU time [t] of the program's (in any unit) over the CPU time [ref_s]
   of reference work run next to it, times the nominal reference: the time
   [t] would be on the nominal core, in the unit it came in. *)
let scale ~ref_s t = t /. ref_s *. nominal_ms () /. 1e3
