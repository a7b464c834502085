(* The benchmark's own statistics, on synthetic inputs: nearest-rank
   percentiles and the ten-samples-beyond rule, failure accounting, and
   open-loop schedules with their lateness. *)

open Perfbench

let flt = Alcotest.float 1e-12

let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  (* 1..100: the p-th percentile is p itself *)
  let xs = one_to 100 in
  List.iter
    (fun p -> Alcotest.check flt (Printf.sprintf "p%g" p) p (Stat.percentile p xs))
    [ 1.; 50.; 90.; 99.; 100. ];
  (* ceil(p n / 100): p50 of 1..5 is 3, p90 of 1..5 is 5, p20 is 1 *)
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check flt "p50 of 5" 3. (Stat.percentile 50. xs);
  Alcotest.check flt "p90 of 5" 5. (Stat.percentile 90. xs);
  Alcotest.check flt "p20 of 5" 1. (Stat.percentile 20. xs);
  Alcotest.check flt "median of even" 2. (Stat.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check flt "singleton" 7. (Stat.percentile 99. [| 7. |]);
  Alcotest.(check bool) "input untouched" true (xs = [| 5.; 1.; 4.; 2.; 3. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stat.percentile: no samples")
    (fun () -> ignore (Stat.percentile 50. [||]));
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Stat: percentile 0 outside (0, 100]")
    (fun () -> ignore (Stat.nearest_rank 0. 10))

let test_tail_rule () =
  Alcotest.(check int) "beyond p90 of 100" 10 (Stat.beyond 90. 100);
  Alcotest.(check bool) "p90 of 100 supported" true (Stat.supported 90. 100);
  Alcotest.(check bool) "p90 of 99 not supported" false (Stat.supported 90. 99);
  Alcotest.(check bool) "p99 of 1000" true (Stat.supported 99. 1000);
  Alcotest.(check bool) "p99 of 999" false (Stat.supported 99. 999);
  Alcotest.(check bool) "p50 of 20" true (Stat.supported 50. 20);
  Alcotest.(check bool) "p50 of 19" false (Stat.supported 50. 19);
  (* supported exactly when ten or more samples lie above the rank *)
  for n = 1 to 300 do
    List.iter
      (fun p ->
        let xs = one_to n in
        let v = Stat.percentile p xs in
        let above = Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 xs in
        Alcotest.(check bool) (Printf.sprintf "p%g of %d" p n) (above >= 10) (Stat.supported p n))
      [ 50.; 75.; 90.; 95.; 99. ]
  done;
  (* a printed percentile is the plain one when supported, refused when not *)
  Alcotest.check flt "reported p90 of 100" 90. (Stat.reported 90. (one_to 100));
  Alcotest.check_raises "reported p90 of 99"
    (Invalid_argument "Stat.reported: p90 over 99 samples leaves 9 beyond it, fewer than 10")
    (fun () -> ignore (Stat.reported 90. (one_to 99)));
  Alcotest.check_raises "reported of nothing"
    (Invalid_argument "Stat.reported: p50 over 0 samples leaves 0 beyond it, fewer than 10")
    (fun () -> ignore (Stat.reported 50. [||]))

let test_failures () =
  let t = Stat.tally () in
  Alcotest.check flt "nothing attempted" 0. (Stat.failed_frac t);
  for i = 1 to 40 do
    Stat.record t ~ok:(i mod 8 <> 0)
  done;
  Alcotest.(check int) "attempted" 40 (Stat.attempted t);
  Alcotest.(check int) "failed" 5 (Stat.failed t);
  Alcotest.check flt "frac" 0.125 (Stat.failed_frac t);
  (* a refused or missing reply found after the fact *)
  Stat.attempt t;
  Stat.fail t;
  Alcotest.(check int) "attempted after late failure" 41 (Stat.attempted t);
  Alcotest.(check int) "failed after late failure" 6 (Stat.failed t);
  Alcotest.check flt "frac after late failure" (6. /. 41.) (Stat.failed_frac t)

let test_schedule () =
  let rng () = Random.State.make [| 7 |] in
  let s = Stat.arrival_schedule (rng ()) ~rate:40. ~duration:5. in
  Alcotest.(check int) "count" 200 (Array.length s);
  Alcotest.(check bool) "sorted, in range" true
    (Array.for_all (fun t -> t >= 0. && t < 5.) s
    && Array.for_all Fun.id (Array.init (Array.length s - 1) (fun i -> s.(i) <= s.(i + 1))));
  Alcotest.(check bool) "same seed, same schedule" true
    (s = Stat.arrival_schedule (rng ()) ~rate:40. ~duration:5.);
  (* a generator that stalls 0.5 s at the 100th call: every later call is
     late by what is left of the stall, and latency counts from the due
     time, not the send time *)
  let due = Array.init 200 (fun i -> float_of_int i *. 0.01) in
  let stall_end = due.(100) +. 0.5 in
  let sent = Array.map (fun d -> if d >= due.(100) then Float.max d stall_end else d) due in
  let late = Stat.lateness ~due ~sent in
  Alcotest.check flt "on time before" 0. late.(99);
  Alcotest.check flt "stalled call" 0.5 late.(100);
  Alcotest.check (Alcotest.float 1e-9) "later call" 0.4 late.(110);
  (* 150 calls on time, then 0.01 .. 0.50: rank 180 is the 30th late one *)
  Alcotest.check (Alcotest.float 1e-9) "p90 lateness" 0.30 (Stat.percentile 90. late);
  Alcotest.check flt "median lateness" 0. (Stat.median late);
  Alcotest.check (Alcotest.float 1e-9) "latency from due" 0.45
    (Stat.latency_from_due ~due:due.(110) ~completed:(sent.(110) +. 0.05));
  Alcotest.check_raises "lengths" (Invalid_argument "Stat.lateness: due and sent differ in length")
    (fun () -> ignore (Stat.lateness ~due ~sent:[| 0. |]))

let test_backlog () =
  let steady = Array.init 100 (fun i -> 10. +. float_of_int (i mod 7)) in
  Alcotest.(check bool) "steady" false (Stat.growing_backlog ~slack:50. steady);
  let growing = Array.init 100 (fun i -> 10. +. (5. *. float_of_int i)) in
  Alcotest.(check bool) "growing" true (Stat.growing_backlog ~slack:50. growing);
  Alcotest.(check bool) "too few" false (Stat.growing_backlog ~slack:0. [| 1.; 100.; 1000. |])

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "failure accounting" `Quick test_failures;
          Alcotest.test_case "open-loop schedule lateness" `Quick test_schedule;
          Alcotest.test_case "growing backlog" `Quick test_backlog;
        ] );
    ]
