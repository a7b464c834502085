(* serve-mix: NDJSON calls to [cmd_serve --cache mem] over a Unix socket,
   mixing cache reads (a warmed hot set of documents), never-seen documents
   and [compose] calls on 3-hop chains stored as server-side .scn files.
   Set-up (start the daemon, warm the hot set) runs [setups] times for its
   median; the last daemon then serves every step in order, so its cache
   and stats carry over from step to step. The end-to-end run has one
   step: a closed loop, one call in flight, of whole rounds in which every
   chain is composed once; the daemon's CPU time per call is its cost. The
   traced run has instead an open loop at three fixed rates (low, mid,
   high) and a mid-rate step with progress frames. Every response body is
   checked against a fresh, uncached, in-process [Server.Engine.handle].
   Here the server, cache, serialize and algebra layers do their work. *)

open Perfbench
module J = Util.Json
module P = Server.Protocol

let name = "serve-mix"
let param = Report.param name
let iparam = Report.int_param name

type kind = Hit | Miss | Compose

let kind_label = function Hit -> "hit" | Miss -> "miss" | Compose -> "compose"

(* What a response body may depend on; equal contents get equal bodies. *)
type content = { meth : string; scenario : P.scenario }

let doc_text ~rows ~seed =
  Layers.document_text
    (Ibench.Generator.generate
       {
         Ibench.Config.default with
         Ibench.Config.rows_per_relation = rows;
         pi_corresp = iparam "doc_pi_corresp";
         pi_errors = iparam "doc_pi_errors";
         pi_unexplained = iparam "doc_pi_unexplained";
         seed;
       })

(* The i-th document of a set has rows cycling through [doc_rows_min,
   doc_rows_max] in steps of 16, so each set mixes the sizes evenly. *)
let doc_rows i =
  let lo = iparam "doc_rows_min" and hi = iparam "doc_rows_max" in
  lo + (16 * (i mod (((hi - lo) / 16) + 1)))

let chain ~seed =
  Ibench.Multihop.generate
    {
      Ibench.Multihop.relations = iparam "chain_relations";
      arity = iparam "chain_arity";
      rows = iparam "chain_rows";
      hops = 3;
      pi_corresp = iparam "chain_pi_corresp";
      pi_errors = 0;
      pi_unexplained = 0;
      seed;
    }

let save_chain ~dir ~seed m =
  let payload =
    Fuzz.Case.Multihop
      {
        Fuzz.Case.initial = m.Ibench.Multihop.source;
        hops = List.map (fun h -> (h.Ibench.Multihop.tgds, h.Ibench.Multihop.observed)) m.Ibench.Multihop.hops;
        hop_weights = Core.Problem.default_weights;
      }
  in
  Fuzz.Corpus.save ~dir
    { Fuzz.Corpus.oracle = "chain"; detail = ""; case = { Fuzz.Case.seed; tag = "serve-mix"; payload } }

let solve_params ~progress scenario =
  { P.scenario; solver = "cmd"; seed = None; weights = None; deadline_ms = None; progress }

let frame ~id ~progress c =
  let scenario =
    match c.scenario with
    | P.Inline text -> ("scenario", J.Str text)
    | P.File path -> ("file", J.Str path)
    | P.Case_seed s -> ("case_seed", J.Num (float_of_int s))
  in
  let params =
    [ scenario; ("solver", J.Str "cmd") ] @ if progress then [ ("progress", J.Bool true) ] else []
  in
  J.to_string (J.Obj [ ("id", J.Str id); ("method", J.Str c.meth); ("params", J.Obj params) ])

let control_frame ~id meth = J.to_string (J.Obj [ ("id", J.Str id); ("method", J.Str meth) ])

(* --- the client --------------------------------------------------------- *)

(* Client-side timestamps of one call (seconds on the monotonic clock; nan
   until seen) and its response line. *)
type obs = {
  mutable sent : float;
  mutable started : float;  (** [started] progress frame received *)
  mutable done_at : float;  (** [done] progress frame received *)
  mutable finished : float;  (** response received *)
  mutable line : string option;
}

type client = {
  fds : Unix.file_descr array;
  lock : Mutex.t;
  table : (string, obs) Hashtbl.t;
  mutable replies : int;  (** responses received, under [lock] *)
  mutable readers : Thread.t list;
}

let obs_of c id =
  match Hashtbl.find_opt c.table id with
  | Some o -> o
  | None ->
    let o = { sent = nan; started = nan; done_at = nan; finished = nan; line = None } in
    Hashtbl.replace c.table id o;
    o

(* Frames start {"id":"<id>", then "progress":{"event":"<e>" or the reply;
   reading that prefix keeps JSON parsing off the receive path. *)
let split_frame line =
  let pre = "{\"id\":\"" in
  let lp = String.length pre in
  if String.length line <= lp || String.sub line 0 lp <> pre then None
  else
    match String.index_from_opt line lp '"' with
    | None -> None
    | Some q ->
      let id = String.sub line lp (q - lp) in
      let ev = ",\"progress\":{\"event\":\"" in
      let le = String.length ev in
      let rest = q + 1 in
      if String.length line > rest + le && String.sub line rest le = ev then
        match String.index_from_opt line (rest + le) '"' with
        | Some e -> Some (id, Some (String.sub line (rest + le) (e - rest - le)))
        | None -> None
      else Some (id, None)

let reader c fd =
  let ic = Unix.in_channel_of_descr fd in
  try
    while true do
      let line = input_line ic in
      let t = Report.now () in
      match split_frame line with
      | None -> Report.log "%s: unrecognised frame %S" name line
      | Some (id, event) ->
        Mutex.lock c.lock;
        let o = obs_of c id in
        (match event with
        | Some "started" -> o.started <- t
        | Some "done" -> o.done_at <- t
        | Some _ -> ()
        | None ->
          o.line <- Some line;
          o.finished <- t;
          c.replies <- c.replies + 1);
        Mutex.unlock c.lock
    done
  with End_of_file | Sys_error _ | Unix.Unix_error _ -> ()

let connect path =
  let rec attempt tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      attempt (tries - 1)
  in
  attempt 1500

let client path conns =
  let c =
    {
      fds = Array.init conns (fun _ -> connect path);
      lock = Mutex.create ();
      table = Hashtbl.create 1024;
      replies = 0;
      readers = [];
    }
  in
  c.readers <- Array.to_list (Array.map (fun fd -> Thread.create (reader c) fd) c.fds);
  c

let send c ~conn ~id line =
  Mutex.lock c.lock;
  let o = obs_of c id in
  Mutex.unlock c.lock;
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fds.(conn) b off (Bytes.length b - off))
  in
  go 0;
  o.sent <- Report.now ()

(* Waits until every id has a response or the deadline passes. *)
let await c ids ~until =
  let pending () =
    Mutex.lock c.lock;
    let n = List.length (List.filter (fun id -> (obs_of c id).line = None) ids) in
    Mutex.unlock c.lock;
    n
  in
  while pending () > 0 && Report.now () < until do
    Unix.sleepf 0.002
  done

let reply c id =
  Mutex.lock c.lock;
  let o = obs_of c id in
  Mutex.unlock c.lock;
  o

let call c id meth =
  send c ~conn:0 ~id (control_frame ~id meth);
  await c [ id ] ~until:(Report.now () +. 30.);
  match (reply c id).line with
  | Some l -> Option.bind (Result.to_option (J.parse l)) (J.member "result")
  | None -> None

(* --- the daemon ---------------------------------------------------------- *)

type daemon = { pid : int; client : client; mutable status : Unix.process_status option }

let start_daemon ~exe ~sock =
  let args =
    [| exe; "--socket"; sock; "--jobs"; string_of_int (iparam "jobs"); "--cache"; "mem" |]
  in
  let pid = Unix.create_process exe args Unix.stdin Unix.stderr Unix.stderr in
  match client sock (iparam "connections") with
  | c -> { pid; client = c; status = None }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

(* Waits up to [secs] for the daemon to exit, then kills it. *)
let reap d ~secs =
  let until = Report.now () +. secs in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Report.now () < until ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      d.status <- Some (snd (Unix.waitpid [] d.pid))
    | _, status -> d.status <- Some status
  in
  if d.status = None then go ()

(* A [shutdown] call, then the daemon must exit with status 0. *)
let stop_daemon d =
  let answered = call d.client "bye" "shutdown" <> None in
  reap d ~secs:30.;
  let c = d.client in
  Array.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) c.fds;
  List.iter Thread.join c.readers;
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fds;
  answered && d.status = Some (Unix.WEXITED 0)

let kill_daemon d = reap d ~secs:0.

(* --- the steps ------------------------------------------------------------ *)

(* A step's calls: the class of each and its index into the run's
   contents. An open-loop step sends each call at its due time (seconds
   from the step's start); the closed loop ([p_rate = None]) sends each
   call when the one before it has its reply. *)
type plan = {
  p_label : string;
  p_rate : float option;
  p_due : float array;
  p_kinds : kind array;
  p_content : int array;
  p_progress : bool;  (** calls stream [started]/[done] frames *)
}

type step = {
  label : string;
  rate : float option;
  kinds : kind array;
  due : float array;  (** absolute due times; the send times in the closed loop *)
  ids : string array;
  content_of : int array;  (** per call, index into the run's contents *)
  obs : obs array;
  t0 : float;  (** start of the schedule; the first send in the closed loop *)
  stats0 : J.t option;  (** daemon [stats] before the step *)
  stats1 : J.t option;  (** and after *)
  blocks : (float * float list) list;
      (** closed loop: per block of ten calls, the daemon's CPU time and
          the reference work's before and after it *)
}

(* Fisher-Yates over a.(lo) .. a.(hi - 1). *)
let shuffle rng a ~lo ~hi =
  for i = hi - 1 downto lo + 1 do
    let j = lo + Random.State.int rng (i - lo + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The mix in blocks of ten calls: [hit_pct / 10] hits, [miss_pct / 10]
   misses and the rest compose calls, in a seeded order within each block
   (a last, partial block keeps the block's first classes). Every step of a
   size has the same mix, and compose calls, which cost up to a hundred
   times a hit, spread evenly over the step instead of bunching up by
   chance. *)
let block () =
  let h = iparam "hit_pct" and m = iparam "miss_pct" in
  if h mod 10 <> 0 || m mod 10 <> 0 || h + m > 100 then
    failwith "serve-mix: hit_pct and miss_pct must be multiples of 10 summing to at most 100";
  Array.init 10 (fun i -> if i < h / 10 then Hit else if i < (h + m) / 10 then Miss else Compose)

let mix rng n =
  let b = block () in
  let a = Array.init n (fun i -> b.(i mod 10)) in
  for k = 0 to (n - 1) / 10 do
    shuffle rng a ~lo:(10 * k) ~hi:(min n ((10 * k) + 10))
  done;
  a

let count k kinds = Array.fold_left (fun n k' -> if k' = k then n + 1 else n) 0 kinds

(* Hits, misses and compose calls among [n]: fixed by [n] alone. *)
let class_counts n =
  let a = mix (Random.State.make [| 0 |]) n in
  (count Hit a, count Miss a, count Compose a)

(* The fewest calls for which a step's printed percentiles all rest on
   enough samples: [p] over every call and, with [by_class], the median of
   each class. *)
let min_calls ~p ~by_class =
  let ok n =
    Stat.supported p n
    && ((not by_class)
       ||
       let h, m, c = class_counts n in
       List.for_all (fun k -> Stat.supported 50. k) [ h; m; c ])
  in
  let rec up n = if ok n then n else up (n + 1) in
  up 1

(* Hits draw from the hot set; compose calls go round a seeded order of
   the chains, so each chain is called equally often (each round of the
   closed loop calls every chain once); misses take the next never-seen
   document. *)
let plan_step rng ~n_hot ~n_chains ~next_miss ~label ~rate ~calls ~progress =
  let p_kinds = mix rng calls in
  let order = Array.init n_chains Fun.id in
  shuffle rng order ~lo:0 ~hi:n_chains;
  let composes = ref 0 in
  let p_content =
    Array.map
      (function
        | Hit -> Random.State.int rng n_hot
        | Compose ->
          incr composes;
          n_hot + order.((!composes - 1) mod n_chains)
        | Miss ->
          incr next_miss;
          !next_miss - 1)
      p_kinds
  in
  let p_due =
    match rate with
    | Some r -> Stat.arrival_schedule rng ~rate:r ~duration:(float_of_int calls /. r)
    | None -> [||]
  in
  { p_label = label; p_rate = rate; p_due; p_kinds; p_content; p_progress = progress }

let run_step d ~contents p =
  let c = d.client in
  let conns = Array.length c.fds in
  let stats0 = call c (p.p_label ^ "-stats0") "stats" in
  let ids = Array.mapi (fun i _ -> Printf.sprintf "%s-%d" p.p_label i) p.p_kinds in
  let frames = Array.mapi (fun i k -> frame ~id:ids.(i) ~progress:p.p_progress contents.(k)) p.p_content in
  let t0 = Report.now () +. 0.01 in
  let blocks = ref [] in
  (match p.p_rate with
  | Some _ ->
    (* the open loop: each call goes out when due, whatever is in flight *)
    Array.iteri
      (fun i at ->
        let wait = t0 +. at -. Report.now () in
        if wait > 0. then Unix.sleepf wait;
        send c ~conn:(i mod conns) ~id:ids.(i) frames.(i))
      p.p_due
  | None ->
    (* the closed loop: one call in flight, in the mix's blocks of ten; the
       reference work (Calib) runs here before and after each block, while
       the daemon waits, and the block's daemon CPU time is read from /proc
       around it *)
    let n = Array.length frames in
    let rec block i =
      if i < n then begin
        let hi = min n (i + 10) in
        let ref0 = Calib.reference () in
        let cpu0 = Report.process_cpu d.pid in
        for j = i to hi - 1 do
          send c ~conn:(j mod conns) ~id:ids.(j) frames.(j);
          await c [ ids.(j) ] ~until:(Report.now () +. param "drain_s")
        done;
        let cpu_s = Report.process_cpu d.pid -. cpu0 in
        blocks := (cpu_s, [ ref0; Calib.reference () ]) :: !blocks;
        block hi
      end
    in
    block 0);
  await c (Array.to_list ids) ~until:(Report.now () +. param "drain_s");
  let stats1 = call c (p.p_label ^ "-stats1") "stats" in
  let obs = Array.map (reply c) ids in
  let due, t0 =
    match p.p_rate with
    | Some _ -> (Array.map (fun d -> t0 +. d) p.p_due, t0)
    | None ->
      let sent = Array.map (fun o -> o.sent) obs in
      (sent, Array.fold_left Float.min infinity sent)
  in
  { label = p.p_label; rate = p.p_rate; kinds = p.p_kinds; due; ids; content_of = p.p_content; obs; t0; stats0; stats1; blocks = List.rev !blocks }

(* --- checks and metrics -------------------------------------------------- *)

(* The body a fresh, uncached engine returns for this content. *)
let expected_body content =
  let params = solve_params ~progress:false content.scenario in
  let call = if content.meth = "compose" then P.Compose params else P.Solve params in
  match Server.Engine.handle (Server.Engine.create ()) { P.id = J.Str "expected"; call } with
  | P.Result { body; _ } -> Some body
  | P.Error { message; _ } ->
    Report.log "%s: in-process engine refused a request: %s" name message;
    None

let expected_line body id = P.render_response (P.Result { id = J.Str id; body })

let stat_delta s path =
  let get j =
    Option.bind j (fun j ->
        Option.bind
          (List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path)
          J.to_float)
  in
  match (get s.stats0, get s.stats1) with Some a, Some b -> b -. a | _ -> nan

let ms x = x *. 1e3

(* In-process layer costs on the run's own inputs: parsing and candidate
   generation of its documents, composition of its chains. *)
let in_process_layers tr contents =
  Array.to_list contents
  |> List.filter_map (fun c ->
         match c.scenario with
         | P.Inline text ->
           (match Span.record tr "serialize.parse" (fun () -> Serialize.Parser.parse text) with
           | Ok d ->
             let open Serialize.Document in
             ignore
               (Span.record tr "candgen.generate" (fun () ->
                    Candgen.Generate.generate ~source:d.source ~target:d.target
                      ~src_fkeys:d.src_fkeys ~tgt_fkeys:d.tgt_fkeys ~corrs:d.correspondences))
           | Error _ -> ());
           None
         | P.File path -> (
           match Fuzz.Corpus.load path with
           | Ok { Fuzz.Corpus.case = { Fuzz.Case.payload = Fuzz.Case.Multihop mh; _ }; _ } ->
             let pools = List.map fst mh.Fuzz.Case.hops in
             Some (List.length (Span.record tr "algebra.compose" (fun () -> Algebra.compose_all pools)))
           | _ -> None)
         | P.Case_seed _ -> None)

let open_loop = [ "low"; "mid"; "high" ]

let run ~seed ~seconds ~trace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.concat Report.run_dir (string_of_int (Unix.getpid ())) in
  Report.mkdir_p dir;
  let limit_ms = param "p90_limit_ms" in
  let rates = List.map (fun l -> (l, param ("rate_" ^ l))) open_loop in
  let n_hot = iparam "hot_docs" and n_chains = iparam "chains" in
  (* the closed loop runs whole rounds of ten calls per chain, as many as
     fit the run's seconds at [round_s] each: every chain is composed
     equally often, and the calls made do not depend on how fast the
     program is *)
  let rounds = max 1 (int_of_float (Float.round (seconds /. param "round_s"))) in
  let closed_calls = 10 * n_chains * rounds in
  (* the traced run splits the seconds so that every rate gets the same
     number of calls, and each step is at least as long as its printed
     percentiles need: each rate's p90 and, at mid, each class's median *)
  let inv_sum = List.fold_left (fun acc (_, r) -> acc +. (1. /. r)) 0. rates in
  let calls_per_rate = int_of_float (Float.round (seconds /. inv_sum)) in
  let calls label = max calls_per_rate (min_calls ~p:90. ~by_class:(label = "mid")) in
  let tally = Stat.tally () in
  let local = Span.create ~req:(-1) () in
  let rng = Random.State.make [| seed |] in
  let steps, composed, bodies, setups, hwm_mb =
    Fun.protect
      ~finally:(fun () -> Report.remove_run_dir dir)
      (fun () ->
        (* inputs: the hot set, the chains, then every step's never-seen
           documents, one fixed set for every seed (from [doc_seed] and
           [chain_seed]): a chain's compose cost differs more than tenfold
           from another's and a document's solve cost severalfold, and the
           cost per call must not move with which inputs a seed draws. The
           seed orders the calls. *)
        let hot =
          Array.init n_hot (fun i ->
              let s = Parallel.Seed.derive (iparam "doc_seed") (i + 1) in
              { meth = "solve"; scenario = P.Inline (doc_text ~rows:(doc_rows i) ~seed:s) })
        in
        let chains =
          Array.init n_chains (fun i ->
              let s = Parallel.Seed.derive (iparam "chain_seed") (1000 + i) in
              { meth = "compose"; scenario = P.File (save_chain ~dir ~seed:s (chain ~seed:s)) })
        in
        (* the traced run's open loop ends with a mid step whose calls
           stream progress frames (queue wait, service time, tracing
           overhead) *)
        let next_miss = ref (n_hot + n_chains) in
        let plans =
          List.map
            (fun (label, rate, progress) ->
              plan_step rng ~n_hot ~n_chains ~next_miss ~label ~rate
                ~calls:(match rate with Some _ -> calls label | None -> closed_calls)
                ~progress)
            (if trace then
               List.map (fun (l, r) -> (l, Some r, false)) rates
               @ [ ("mid-traced", Some (List.assoc "mid" rates), true) ]
             else [ ("closed", None, false) ])
        in
        let fresh =
          Array.init (!next_miss - n_hot - n_chains) (fun i ->
              let s = Parallel.Seed.derive (iparam "doc_seed") (100_000 + i) in
              { meth = "solve"; scenario = P.Inline (doc_text ~rows:(doc_rows i) ~seed:s) })
        in
        let contents = Array.concat [ hot; chains; fresh ] in
        (* set-up, several times: start the daemon and warm the hot set, so
           that later hits are cache reads; the last daemon serves the
           steps. Chains stay cold: [compose_all] is not cached anyway.
           Its cost is the daemon's CPU time from its start to the last
           warm reply. *)
        let sock = Filename.concat dir "d.sock" in
        let n_setups = iparam "setups" in
        let rec setups i acc =
          let t = Report.now () in
          let ref0 = Calib.reference () in
          let d = start_daemon ~exe:!Report.daemon_exe ~sock in
          match
            let warm = List.init n_hot (fun k -> (Printf.sprintf "w%d-%d" i k, k)) in
            List.iteri
              (fun j (id, k) ->
                send d.client ~conn:(j mod Array.length d.client.fds) ~id
                  (frame ~id ~progress:false contents.(k)))
              warm;
            await d.client (List.map fst warm) ~until:(Report.now () +. 120.);
            let cpu = Report.process_cpu d.pid in
            let wall = Report.now () -. t in
            (* scaled by the reference runs before the daemon starts and
               after the warm-up, here while the daemon waits *)
            let s = Calib.scale ~ref_s:((ref0 +. Calib.reference ()) /. 2.) cpu in
            Report.log "%s: set-up %d: %.3f s CPU, %.3f s scaled, %.2f s wall" name i cpu s wall;
            (s, List.map (fun (id, k) -> (id, k, reply d.client id)) warm)
          with
          | s, warm ->
            let acc = (s, warm) :: acc in
            if i + 1 < n_setups then begin
              Stat.record tally ~ok:(stop_daemon d);
              setups (i + 1) acc
            end
            else (d, List.rev acc)
          | exception e ->
            kill_daemon d;
            raise e
        in
        let d, setups = setups 0 [] in
        Fun.protect
          ~finally:(fun () -> kill_daemon d)
          (fun () ->
            let steps =
              List.map
                (fun p ->
                  let s = run_step d ~contents p in
                  Report.log "%s: %s step: %d calls" name s.label (Array.length s.due);
                  s)
                plans
            in
            let hwm_mb = Report.peak_rss_mb (string_of_int d.pid) in
            Stat.record tally ~ok:(stop_daemon d);
            let composed = if trace then in_process_layers local contents else [] in
            (* every body against a fresh in-process engine, outside the
               timed loop and while the chain files still exist *)
            let bodies =
              Parallel.Pool.with_pool ~jobs:(iparam "check_jobs") (fun pool ->
                  Parallel.Pool.parallel_map pool expected_body contents)
            in
            (steps, composed, bodies, setups, hwm_mb)))
  in
  let check id k (o : obs) =
    match (bodies.(k), o.line) with
    | Some body, Some l -> l = expected_line body id
    | _ -> false
  in
  List.iter (fun (_, warm) -> List.iter (fun (id, k, o) -> Stat.record tally ~ok:(check id k o)) warm) setups;
  let checked =
    List.map
      (fun s ->
        let ok = Array.mapi (fun i o -> check s.ids.(i) s.content_of.(i) o) s.obs in
        Array.iteri
          (fun i ok ->
            if not ok then
              Report.log "%s: call %s (%s): %s" name s.ids.(i) (kind_label s.kinds.(i))
                (match s.obs.(i).line with
                | None -> "no response"
                | Some l -> if String.length l > 200 then String.sub l 0 200 else l);
            Stat.record tally ~ok)
          ok;
        (s, ok))
      steps
  in
  (* latency from the due time, successful calls only, in due order *)
  let latencies ?kind (s, ok) =
    List.init (Array.length s.obs) Fun.id
    |> List.filter_map (fun i ->
           if ok.(i) && Option.fold ~none:true ~some:(( = ) s.kinds.(i)) kind then
             Some (ms (Stat.latency_from_due ~due:s.due.(i) ~completed:s.obs.(i).finished))
           else None)
    |> Array.of_list
  in
  let step label = List.find (fun (s, _) -> s.label = label) checked in
  let failures (_, ok) = Array.fold_left (fun n ok -> if ok then n else n + 1) 0 ok in
  let last_reply s =
    Array.fold_left
      (fun m o -> if Float.is_nan o.finished then m else Float.max m o.finished)
      s.t0 s.obs
  in
  let backlog st = Stat.growing_backlog ~slack:(limit_ms /. 2.) (latencies st) in
  (* successful calls per second, from the step's start to its last reply *)
  let completed ((s, _) as st) =
    let span = last_reply s -. s.t0 in
    if span > 0. then float_of_int (Array.length (latencies st)) /. span else 0.
  in
  (* the log reads percentiles of any sample size; printed metrics go
     through [Stat.reported] *)
  let logged p xs = if Array.length xs = 0 then nan else Stat.percentile p xs in
  List.iter
    (fun ((s, _) as st) ->
      let lat = latencies st in
      Report.log "%s: %s: p25 %.1f, p50 %.1f, p90 %.1f ms over %d calls; hit p25 %.1f p50 %.1f; %d failed, backlog %b, completed %.2f/s"
        name s.label (logged 25. lat) (logged 50. lat) (logged 90. lat) (Array.length lat)
        (logged 25. (latencies ~kind:Hit st)) (logged 50. (latencies ~kind:Hit st))
        (failures st) (backlog st) (completed st))
    checked;
  let setup_s = Stat.median (Array.of_list (List.map fst setups)) in
  let metrics =
    if not trace then
      let closed, _ = step "closed" in
      let calls = float_of_int (Array.length closed.obs) in
      let cpu_s = List.fold_left (fun acc (c, _) -> acc +. c) 0. closed.blocks /. calls in
      let ref_s = Stat.median (Array.of_list (List.concat_map snd closed.blocks)) in
      Report.log "%s: closed loop: daemon CPU %.2f ms a call, reference %.1f ms" name (cpu_s *. 1e3)
        (ref_s *. 1e3);
      [
        ("setup_s", setup_s);
        (* the daemon's CPU time per call of the mix: hits (parse, cache
           lookups, framing), misses (the full pipeline and cache writes)
           and compose calls ([Algebra.compose_all] and the selection over
           the composed pool) all weigh in *)
        (* the reference runs in this process, not the daemon's, so it
           shares only the run's overall speed with the daemon: the daemon's
           time is scaled by the median of all of them *)
        ("scaled_cpu_ms", Calib.scale ~ref_s (cpu_s *. 1e3));
        ("peak_rss_mb", hwm_mb);
      ]
    else begin
      let plain = List.map step open_loop in
      (* one span per call, split by its progress frames where it asked
         for them; request ids number the calls of all steps *)
      let ns t = Int64.of_float (t *. 1e9) in
      let req = ref 0 in
      let spans =
        List.concat_map
          (fun (s, _) ->
            List.concat
              (Array.to_list
                 (Array.mapi
                    (fun i o ->
                      let tr = Span.create ~req:!req () in
                      incr req;
                      if Float.is_finite o.sent && Float.is_finite o.finished then begin
                        let top =
                          Span.add tr ("serve." ^ kind_label s.kinds.(i)) ~start_ns:(ns o.sent)
                            ~stop_ns:(ns o.finished)
                        in
                        if Float.is_finite o.started then
                          ignore
                            (Span.add tr ~parent:top "server.queue_wait" ~start_ns:(ns o.sent)
                               ~stop_ns:(ns o.started));
                        if Float.is_finite o.started && Float.is_finite o.done_at then
                          ignore
                            (Span.add tr ~parent:top "server.service" ~start_ns:(ns o.started)
                               ~stop_ns:(ns o.done_at))
                      end;
                      Span.spans tr)
                    s.obs)))
          checked
      in
      let local_spans = Span.spans local in
      Layers.write_trace ~workload:name ~seed (spans @ local_spans);
      let ix = Span.index spans in
      let pooled name = Span.per_req_ms ix name in
      let local name = Report.median_or_zero (Span.durations_ms local_spans name) in
      let wall_s = List.fold_left (fun acc (s, _) -> acc +. (last_reply s -. s.t0)) 0. checked in
      let mid = step "mid" in
      let delta path = stat_delta (fst mid) path in
      let hits = delta [ "cache"; "hits" ] and misses = delta [ "cache"; "misses" ] in
      let max_rps =
        List.fold_left
          (fun m ((s, _) as st) ->
            let lat = latencies st in
            if Array.length lat > 0 && Stat.reported 90. lat <= limit_ms && (not (backlog st)) && failures st = 0
            then Float.max m (Option.get s.rate)
            else m)
          0. plain
      in
      let shed =
        List.fold_left
          (fun n (s, _) ->
            Array.fold_left
              (fun n o ->
                match o.line with
                | Some l when Util.Json.(
                    Option.bind (Result.to_option (parse l)) (fun j ->
                        Option.bind (member "error" j) (fun e -> Option.bind (member "kind" e) to_str)))
                    = Some "overloaded" -> n + 1
                | _ -> n)
              n s.obs)
          0 checked
      in
      let lag =
        List.concat_map
          (fun (s, _) ->
            Array.to_list
              (Array.map ms (Stat.lateness ~due:s.due ~sent:(Array.map (fun o -> o.sent) s.obs))))
          plain
      in
      let p50_mid = Stat.reported 50. (latencies mid) in
      [
        ("serialize.parse_ms", local "serialize.parse");
        ("candgen.generate_ms", local "candgen.generate");
        ("algebra.compose_ms", local "algebra.compose");
        ( "algebra.composed_candidates",
          Report.median_or_zero (Array.of_list (List.map float_of_int composed)) );
        ("cache.hits", hits);
        ("cache.misses", misses);
        ("cache.evictions", delta [ "cache"; "evictions" ]);
        ("cache.hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        ("server.solves", delta [ "solves" ]);
        ("server.coalesced", delta [ "coalesced" ]);
        ("server.shed", float_of_int shed);
        ("server.queue_wait_ms.p50", Stat.reported 50. (pooled "server.queue_wait"));
        ("server.queue_wait_ms.p90", Stat.reported 90. (pooled "server.queue_wait"));
        ("server.service_ms.p50", Stat.reported 50. (pooled "server.service"));
        ("server.service_ms.p90", Stat.reported 90. (pooled "server.service"));
        ("serve.hit.p50_ms", Stat.reported 50. (latencies ~kind:Hit mid));
        ("serve.miss.p50_ms", Stat.reported 50. (latencies ~kind:Miss mid));
        ("serve.compose.p50_ms", Stat.reported 50. (latencies ~kind:Compose mid));
        ("serve.max_rps", max_rps);
        ("wall.latency_ms", p50_mid);
        ("serve.gen_lag_ms.p90", Stat.reported 90. (Array.of_list lag));
        ( "trace.unattributed_frac",
          if wall_s > 0. then
            Float.max 0. (1. -. (Int64.to_float (Span.top_level_union_ns spans) /. 1e9 /. wall_s))
          else 0. );
        ( "trace.overhead_pct",
          if p50_mid > 0. then
            100. *. (Stat.reported 50. (latencies (step "mid-traced")) -. p50_mid) /. p50_mid
          else 0. );
        ("ops_failed_frac", Stat.failed_frac tally);
      ]
      @ List.concat_map
          (fun label ->
            let lat = latencies (step label) in
            [
              (Printf.sprintf "serve.%s.p50_ms" label, Stat.reported 50. lat);
              (Printf.sprintf "serve.%s.p90_ms" label, Stat.reported 90. lat);
            ])
          open_loop
    end
  in
  { Report.tally; metrics }
