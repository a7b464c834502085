(* The evaluation cache: LRU bookkeeping, single-flight accounting, disk
   persistence, and — the contract everything else leans on — bit-identity
   of the cached pipeline with the uncached one, per registered solver. *)

open Core

(* --- helpers ------------------------------------------------------------ *)

let appendix_candidates = [ Fixtures.theta1; Fixtures.theta3 ]

let make_problem ?cache () =
  Problem.make ?cache ~source:Fixtures.instance_i ~j:Fixtures.instance_j
    appendix_candidates

(* A distinct selection key per index; the compute closure records calls. *)
let probe cache calls ~key =
  Cache.selection cache ~solver:"probe" ~seed:None ~problem_key:key (fun () ->
      incr calls;
      [| true |])

(* Per-test cache directories under the build sandbox; wiped up front so a
   previous run's files can't satisfy (or confuse) this run's lookups. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "cache-test-dir-%d" !n in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    dir

(* --- accounting and LRU ------------------------------------------------- *)

let test_hit_miss_accounting () =
  let cache = Cache.create () in
  let calls = ref 0 in
  for _ = 1 to 5 do
    ignore (probe cache calls ~key:"k1")
  done;
  let s = Cache.stats cache in
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "four hits" 4 s.Cache.hits;
  Alcotest.(check int) "no evictions" 0 s.Cache.evictions

let test_lru_eviction_order () =
  let cache = Cache.create ~capacity:2 () in
  let calls = ref 0 in
  ignore (probe cache calls ~key:"k1");
  ignore (probe cache calls ~key:"k2");
  (* touch k1 so k2 becomes the least recently used *)
  ignore (probe cache calls ~key:"k1");
  ignore (probe cache calls ~key:"k3");
  Alcotest.(check int) "one eviction" 1 (Cache.stats cache).Cache.evictions;
  let before = !calls in
  ignore (probe cache calls ~key:"k1");
  ignore (probe cache calls ~key:"k3");
  Alcotest.(check int) "k1 and k3 still cached" before !calls;
  ignore (probe cache calls ~key:"k2");
  Alcotest.(check int) "k2 was the victim" (before + 1) !calls

let test_single_flight_parallel () =
  (* 48 lookups of 6 distinct keys hammered from several domains: misses
     must equal the distinct keys and hits the rest, for any pool size —
     the jobs-invariance contract. *)
  let run jobs =
    let cache = Cache.create () in
    let calls = Atomic.make 0 in
    let task i =
      let key = Printf.sprintf "k%d" (i mod 6) in
      Cache.selection cache ~solver:"probe" ~seed:None ~problem_key:key
        (fun () ->
          Atomic.incr calls;
          [| i mod 6 = 0 |])
    in
    let results =
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Pool.parallel_map pool task (Array.init 48 Fun.id))
    in
    Array.iteri
      (fun i sel ->
        Alcotest.(check bool)
          (Printf.sprintf "result %d correct under jobs=%d" i jobs)
          (i mod 6 = 0) sel.(0))
      results;
    (Cache.stats cache, Atomic.get calls)
  in
  List.iter
    (fun jobs ->
      let s, calls = run jobs in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: misses = distinct keys" jobs)
        6 s.Cache.misses;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: one computation per distinct key" jobs)
        6 calls;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: hits = the rest" jobs)
        42 s.Cache.hits)
    [ 1; 4 ]

(* --- problem construction through the cache ----------------------------- *)

let test_problem_bit_identity () =
  let plain = make_problem () in
  let cache = Cache.create () in
  let cold = make_problem ~cache () in
  let warm = make_problem ~cache () in
  let key = Problem.digest plain in
  Alcotest.(check string) "cold digest" key (Problem.digest cold);
  Alcotest.(check string) "warm digest" key (Problem.digest warm);
  let s = Cache.stats cache in
  (* cold build: one stats analysis plus one chase-tier entry per candidate *)
  Alcotest.(check int)
    "one analysis + one chase per candidate"
    (2 * List.length appendix_candidates)
    s.Cache.misses;
  Alcotest.(check int)
    "warm rebuild all hits" (List.length appendix_candidates)
    s.Cache.hits

let test_reindexing () =
  (* One cached analysis serves a candidate at any list position. *)
  let cache = Cache.create () in
  ignore (make_problem ~cache ());
  let swapped =
    Problem.make ~cache ~source:Fixtures.instance_i ~j:Fixtures.instance_j
      [ Fixtures.theta3; Fixtures.theta1 ]
  in
  (* 2 stats + 2 chase-tier misses from the first build; the swapped
     rebuild recomputes nothing *)
  Alcotest.(check int)
    "swapped order is all hits" 4 (Cache.stats cache).Cache.misses;
  Array.iteri
    (fun i (s : Cover.tgd_stats) ->
      Alcotest.(check int) (Printf.sprintf "stats %d re-indexed" i) i
        s.Cover.index)
    swapped.Problem.stats;
  Alcotest.(check string) "swapped labels follow the list"
    Fixtures.theta3.Logic.Tgd.label
    swapped.Problem.candidates.(0).Logic.Tgd.label

(* Per-solver cache-on/off bit-identity (cold and warm, every registry
   entry) is pinned declaratively by expect/e1_appendix.rtest's
   cached-registry test and the expect/cache_identity.rtest corpus replays. *)

let test_cached_selection_is_a_copy () =
  let cache = Cache.create () in
  let sel =
    Cache.selection cache ~solver:"probe" ~seed:None ~problem_key:"k"
      (fun () -> [| true; false |])
  in
  sel.(0) <- false;
  let again =
    Cache.selection cache ~solver:"probe" ~seed:None ~problem_key:"k"
      (fun () -> Alcotest.fail "recomputed despite a warm cache")
  in
  Alcotest.(check (array bool)) "mutation did not reach the cache"
    [| true; false |] again

(* --- disk persistence --------------------------------------------------- *)

let test_disk_reload_stats () =
  let dir = fresh_dir () in
  let plain = make_problem () in
  let cache = Cache.create ~dir () in
  ignore (make_problem ~cache ());
  (* a fresh cache over the same directory: no recomputation, same bits *)
  let reloaded = Cache.create ~dir () in
  let relit = make_problem ~cache:reloaded () in
  let s = Cache.stats reloaded in
  Alcotest.(check int) "all served from disk" 0 s.Cache.misses;
  Alcotest.(check int)
    "disk reads count as hits" (List.length appendix_candidates)
    s.Cache.hits;
  Alcotest.(check string) "reloaded problem bit-identical"
    (Problem.digest plain) (Problem.digest relit)

let test_disk_reload_selection () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let calls = ref 0 in
  let expected = probe cache calls ~key:"pk" in
  let reloaded = Cache.create ~dir () in
  let got =
    Cache.selection reloaded ~solver:"probe" ~seed:None ~problem_key:"pk"
      (fun () -> Alcotest.fail "recomputed despite the disk tier")
  in
  Alcotest.(check (array bool)) "selection reloaded from disk" expected got

let test_disk_corruption_recomputes () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let calls = ref 0 in
  ignore (probe cache calls ~key:"pk");
  (* clobber every cache file, then reload: decode fails, computes again *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".cache" then
        Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
            Out_channel.output_string oc "garbage"))
    (Sys.readdir dir);
  let reloaded = Cache.create ~dir () in
  let got = probe reloaded calls ~key:"pk" in
  Alcotest.(check int) "recomputed once" 2 !calls;
  Alcotest.(check (array bool)) "correct result after corruption" [| true |] got;
  Alcotest.(check int)
    "corrupt file is a miss" 1 (Cache.stats reloaded).Cache.misses

(* --- experiments plumbing ----------------------------------------------- *)

let test_experiments_cache_identity () =
  let scenario =
    Ibench.Generator.generate
      (Experiments.Common.noise_config ~seed:3 ~pi_corresp:20 ~pi_errors:10
         ~pi_unexplained:10 ())
  in
  let solve ctx =
    let p = Experiments.Common.problem_of_scenario ctx scenario in
    ( p,
      Experiments.Common.run_solver ctx Experiments.Common.Greedy_solver
        scenario p )
  in
  let plain, out_plain = Experiments.Common.Ctx.with_ctx ~jobs:1 solve in
  let cache = Cache.create () in
  let cached, out_cached =
    Experiments.Common.Ctx.with_ctx ~cache ~jobs:1 solve
  in
  Alcotest.(check string) "problem identical through Common"
    (Problem.digest plain) (Problem.digest cached);
  Alcotest.(check (array bool))
    "selection identical through Common" out_plain.Experiments.Common.selection
    out_cached.Experiments.Common.selection;
  Alcotest.(check bool)
    "cache was exercised" true
    ((Cache.stats cache).Cache.misses > 0)

(* --- key derivation ------------------------------------------------------ *)

(* Keys recorded before key rendering moved to buffer appends and a reused
   digest buffer: disk tiers written earlier must stay valid, so the change
   has to leave every key byte-identical. [odd] holds every encoding case:
   spaces, commas, '%', control bytes, UTF-8, an empty constant, and null
   labels that are zero, negative, [min_int] and [max_int]. *)
let odd =
  Relational.(
    Instance.of_tuples
      [
        Tuple.make "R el"
          [ Value.Const "a b"; Value.Null 12; Value.Const "%x,y"; Value.Null (-3) ];
        Tuple.make "R el"
          [ Value.Const ""; Value.Null 0; Value.Const "\xc3\xa9t\xc3\xa9"; Value.Null max_int ];
        Tuple.make "S" [ Value.Const "plain_.~-09AZaz"; Value.Null min_int ];
        Tuple.make "S" [ Value.Const "tab\tnew\nline"; Value.Null 7 ];
      ])

let single = Relational.(Instance.of_tuples [ Tuple.make "S" [ Value.Const "k" ] ])

let test_key_pins () =
  let check = Alcotest.(check string) in
  let pair = Alcotest.(check (pair string string)) in
  pair "example_keys odd/single"
    ("5747b6e582193085b16aa5860fab30d6", "d55a3d616ad55b9f656c339df11425df")
    (Cache.example_keys ~source:odd ~j:single);
  pair "example_keys single/odd"
    ("3494bf9a391e502dc19d3272c0647e4b", "c0b5a84352837d452c7861eb6180be57")
    (Cache.example_keys ~source:single ~j:odd);
  check "data_key odd/odd" "5ce912e1f5074a4bccdb5c158e60e12b"
    (Cache.data_key ~source:odd ~j:odd);
  check "source_key odd" "5747b6e582193085b16aa5860fab30d6"
    (Cache.source_key ~source:odd);
  check "source_key empty" "7191dbb36685b6178cfb149bcb833d01"
    (Cache.source_key ~source:Relational.Instance.empty);
  check "data_key empty" "1e25891fcb47f454aeb0ee951329553b"
    (Cache.data_key ~source:Relational.Instance.empty
       ~j:Relational.Instance.empty);
  check "digest of a list" "3ad9ce84e78d70cfcd84d1a640603430"
    (Cache.Key.digest [ "a"; ""; "b c"; String.make 123 'x' ]);
  check "digest of no parts" "d41d8cd98f00b204e9800998ecf8427e"
    (Cache.Key.digest []);
  check "instance rendering"
    "RR%20el Ca%20b N12 C%25x%2Cy N-3,RR%20el C N0 C%C3%A9t%C3%A9 \
     N4611686018427387903,RS Ctab%09new%0Aline N7,RS Cplain_.~-09AZaz \
     N-4611686018427387904"
    (Cache.Key.instance odd);
  List.iter2
    (fun expected f ->
      let buf = Buffer.create 8 in
      Cache.Key.add_frac buf f;
      check "frac" expected (Buffer.contents buf))
    [ "-7/3"; "0/1"; "6/5" ]
    Util.Frac.[ make (-7) 3; zero; make 12 10 ];
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
  pair "example_keys iBench rows 128 seed 3"
    ("39d5b25f411794692481e3ba7b9cc98f", "8bf7062c6f91e0b9ac760cab43d93b54")
    (Cache.example_keys ~source:s.Ibench.Scenario.instance_i
       ~j:s.Ibench.Scenario.instance_j);
  (* a coverage entry outside J and non-default weights: the digest's
     general path, which [of_stats] problems can reach *)
  let p0 =
    Problem.make ~source:s.Ibench.Scenario.instance_i
      ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates
  in
  let t c = Relational.Tuple.make "T" [ Relational.Value.Const c ] in
  let covers =
    Relational.Tuple.Map.(
      empty |> add (t "a") (Util.Frac.make 1 2) |> add (t "zz") Util.Frac.one)
  in
  let stats =
    {
      p0.Problem.stats.(0) with
      Cover.covers;
      error_tuples = [ Relational.Tuple.make "E" [ Relational.Value.Null 5 ] ];
    }
  in
  let p =
    Problem.of_stats
      ~weights:{ Problem.w_unexplained = 2; w_errors = 3; w_size = 5 }
      ~j:(Relational.Instance.of_tuples [ t "a"; t "b" ])
      [| stats |]
  in
  check "digest with a cover outside J" "1ac58cae7f5e4c60bdc21f66e5643182"
    (Problem.digest p)

(* The renderings against their definitions, spelled with [Printf] and
   string concatenation, on arbitrary bytes and integers. *)
let spec_enc s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '~' | '-' ->
           String.make 1 c
         | _ -> Printf.sprintf "%%%02X" (Char.code c))
       (List.of_seq (String.to_seq s)))

let spec_value = function
  | Relational.Value.Const s -> "C" ^ spec_enc s
  | Relational.Value.Null n -> "N" ^ string_of_int n

let spec_tuple (t : Relational.Tuple.t) =
  String.concat " "
    (("R" ^ spec_enc t.Relational.Tuple.rel)
    :: List.map spec_value (Array.to_list t.Relational.Tuple.values))

let spec_digest parts =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun p -> Printf.sprintf "%d:%s" (String.length p) p) parts)))

let qcheck_key_spec =
  let open QCheck2 in
  let int_gen =
    Gen.oneof [ Gen.int; Gen.small_signed_int; Gen.oneofl [ 0; min_int; max_int ] ]
  in
  let value_gen =
    Gen.oneof
      [
        Gen.map (fun s -> Relational.Value.Const s) Gen.(string_size (0 -- 6));
        Gen.map (fun n -> Relational.Value.Null n) int_gen;
      ]
  in
  let tuple_gen =
    Gen.map2 Relational.Tuple.make
      Gen.(string_size (0 -- 4))
      Gen.(list_size (0 -- 4) value_gen)
  in
  let gen = Gen.(pair (list_size (0 -- 6) tuple_gen) (pair int_gen int_gen)) in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:500 ~name:"renderings and digests match their definitions"
       gen (fun (tuples, (a, b)) ->
         let rendered = List.map Cache.Key.tuple tuples in
         let inst = Relational.Instance.of_tuples tuples in
         let nested = ref "" in
         let outer =
           Cache.Key.digest_with (fun p ->
               List.iter
                 (fun t ->
                   Cache.Key.add_part p (fun buf ->
                       (* a digest taken while another is under way *)
                       nested := Cache.Key.digest rendered;
                       Cache.Key.add_tuple buf t))
                 tuples)
         in
         let frac_num = if b = 0 then a else b in
         List.for_all2 (fun t r -> r = spec_tuple t) tuples rendered
         && outer = spec_digest (List.map spec_tuple tuples)
         && (tuples = [] || !nested = spec_digest rendered)
         && Cache.Key.digest rendered = spec_digest rendered
         && Cache.Key.instance inst
            = String.concat ","
                (List.map spec_tuple (Relational.Instance.tuples inst))
         &&
         let f = Util.Frac.make frac_num 1 in
         let buf = Buffer.create 8 in
         Cache.Key.add_frac buf f;
         Buffer.contents buf
         = Printf.sprintf "%d/%d" (Util.Frac.num f) (Util.Frac.den f)))

let () =
  Alcotest.run "cache"
    [
      ( "accounting",
        [
          Alcotest.test_case "misses count computations, hits the rest" `Quick
            test_hit_miss_accounting;
          Alcotest.test_case "LRU evicts the least recently used" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "single-flight totals are jobs-invariant" `Quick
            test_single_flight_parallel;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "cached problem equals uncached" `Quick
            test_problem_bit_identity;
          Alcotest.test_case "cached stats re-index per candidate list" `Quick
            test_reindexing;
          Alcotest.test_case "returned selections are private copies" `Quick
            test_cached_selection_is_a_copy;
          Alcotest.test_case "Experiments.Common honours the shared cache"
            `Quick test_experiments_cache_identity;
        ] );
      ( "keys",
        [
          Alcotest.test_case "keys byte-identical to recorded values" `Quick
            test_key_pins;
          qcheck_key_spec;
        ] );
      ( "disk",
        [
          Alcotest.test_case "candidate stats reload from disk" `Quick
            test_disk_reload_stats;
          Alcotest.test_case "selections reload from disk" `Quick
            test_disk_reload_selection;
          Alcotest.test_case "corrupt files recompute and self-heal" `Quick
            test_disk_corruption_recomputes;
        ] );
    ]
