let check_p p =
  if not (p > 0. && p <= 100.) then
    invalid_arg (Printf.sprintf "Stat: percentile %g outside (0, 100]" p)

(* The rank [Util.Stats.percentile] reads: ceil (p n / 100), clamped to
   [1, n]. *)
let nearest_rank p n =
  check_p p;
  if n < 1 then invalid_arg "Stat.nearest_rank: no samples";
  let r = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  max 1 (min n r)

let percentile p xs =
  check_p p;
  if Array.length xs = 0 then invalid_arg "Stat.percentile: no samples";
  Util.Stats.percentile p (Array.to_list xs)

let median xs = percentile 50. xs

let beyond p n = n - nearest_rank p n

let min_tail = 10

let supported p n = n >= 1 && beyond p n >= min_tail

let reported p xs =
  let n = Array.length xs in
  if not (supported p n) then
    invalid_arg
      (Printf.sprintf "Stat.reported: p%g over %d samples leaves %d beyond it, fewer than %d" p n
         (if n = 0 then 0 else beyond p n)
         min_tail);
  percentile p xs

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }
let attempt t = t.attempted <- t.attempted + 1
let fail t = t.failed <- t.failed + 1

let record t ~ok =
  attempt t;
  if not ok then fail t

let attempted t = t.attempted
let failed t = t.failed

let failed_frac t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted

let arrival_schedule rng ~rate ~duration =
  if rate <= 0. || duration <= 0. then
    invalid_arg "Stat.arrival_schedule: rate and duration must be positive";
  let n = int_of_float (Float.round (rate *. duration)) in
  let due = Array.init n (fun _ -> Random.State.float rng duration) in
  Array.sort Float.compare due;
  due

let lateness ~due ~sent =
  if Array.length due <> Array.length sent then
    invalid_arg "Stat.lateness: due and sent differ in length";
  Array.mapi (fun i d -> sent.(i) -. d) due

let latency_from_due ~due ~completed = completed -. due

let growing_backlog ~slack lat =
  let n = Array.length lat in
  if n < 8 then false
  else
    let q = n / 4 in
    let first = median (Array.sub lat 0 q) in
    let last = median (Array.sub lat (n - q) q) in
    last > (2. *. first) +. slack
