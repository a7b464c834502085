open Relational
open Util

type weights = {
  w_unexplained : int;
  w_errors : int;
  w_size : int;
}

let default_weights = { w_unexplained = 1; w_errors = 1; w_size = 1 }

type t = {
  candidates : Logic.Tgd.t array;
  stats : Cover.tgd_stats array;
  tuples : Tuple.t array;
  covers : (int * Frac.t) array array;
  cand_cost : Frac.t array;
  weights : weights;
}

let check_weights w =
  if w.w_unexplained <= 0 || w.w_errors <= 0 || w.w_size <= 0 then
    invalid_arg "Problem: weights must be positive"

let of_stats ?(weights = default_weights) ~j stats =
  check_weights weights;
  let tuples = Array.of_list (Instance.tuples j) in
  let tuple_index = Hashtbl.create (Array.length tuples) in
  Array.iteri (fun i t -> Hashtbl.replace tuple_index t i) tuples;
  let covers =
    Array.map
      (fun s ->
        Tuple.Map.fold
          (fun t d acc ->
            match Hashtbl.find_opt tuple_index t with
            | Some i -> (i, d) :: acc
            | None -> acc)
          s.Cover.covers []
        |> List.rev |> Array.of_list)
      stats
  in
  let cand_cost =
    Array.map
      (fun s ->
        Frac.of_int
          ((weights.w_errors * Cover.error_count s)
          + (weights.w_size * s.Cover.size)))
      stats
  in
  {
    candidates = Array.map (fun s -> s.Cover.tgd) stats;
    stats;
    tuples;
    covers;
    cand_cost;
    weights;
  }

let with_weights t weights =
  check_weights weights;
  let cand_cost =
    Array.map
      (fun s ->
        Frac.of_int
          ((weights.w_errors * Cover.error_count s) + (weights.w_size * s.Cover.size)))
      t.stats
  in
  { t with cand_cost; weights }

let make ?weights ?semantics ?(core = false) ?cache ~source ~j candidates =
  let stats =
    match cache with
    | None -> Cover.analyze ?semantics ~core ~source ~j candidates
    | Some cache ->
      (* Same per-candidate derivation as [Cover.analyze], each candidate
         memoized separately: one shared columnar source (or row-major
         index on the mixed-arity fallback), a fresh chase per tgd. The
         chase restarts its null labels per run, so the cached stats are
         position-independent and [Cache.tgd_stats] can re-index them for
         this candidate list. The data digest is computed once, the chase
         fixture and the J index lazily — a fully warm build touches
         neither the chase nor the data beyond this one rendering. *)
      let source_key, data_key = Cache.example_keys ~source ~j in
      let chase =
        lazy
          (match Relational.Columnar.of_instance source with
          | col -> fun tgd -> Chase.run_columnar col [ tgd ]
          | exception Invalid_argument _ ->
            let index = Logic.Cq.Index.build source in
            fun tgd -> Chase.run ~index source [ tgd ])
      in
      (* The chase tier sits under the stats tier: a stats miss whose chase
         was already run for another target instance (a neighbouring sweep
         point) redoes only the coverage fold. *)
      let chase tgd =
        Cache.chase cache ~source_key tgd (fun () -> (Lazy.force chase) tgd)
      in
      (* J is indexed once, on the first stats miss *)
      let j_index = lazy (Cover.J_index.build j) in
      Array.of_list
        (List.mapi
           (fun index tgd ->
             Cache.tgd_stats cache ?semantics ~core ~data_key ~index tgd
               (fun () ->
                 Cover.stats_of_result ?semantics ~core
                   ~j_index:(Lazy.force j_index) ~j ~index tgd (chase tgd)))
           candidates)
  in
  of_stats ?weights ~j stats

(* The digested text renders every coverage entry's tuple, and those are
   J tuples, most of them covered by several candidates: each J tuple is
   rendered once and its text reused. [t.covers.(i)] keeps, in map order,
   the entries of [stats.(i).covers] whose tuple is in J, so when its length
   is the map's cardinal it lists exactly the map's entries. *)
let digest t =
  let rendered = Array.map Cache.Key.tuple t.tuples in
  Cache.Key.digest_with @@ fun p ->
  let add_string s = Cache.Key.add_part p (fun buf -> Buffer.add_string buf s) in
  add_string "problem";
  add_string
    (Printf.sprintf "w %d %d %d" t.weights.w_unexplained t.weights.w_errors
       t.weights.w_size);
  Array.iter add_string rendered;
  Array.iteri
    (fun i (s : Cover.tgd_stats) ->
      Cache.Key.add_part p (fun buf ->
          let add_cover tuple d =
            Buffer.add_string buf "|cover ";
            tuple buf;
            Buffer.add_char buf ' ';
            Cache.Key.add_frac buf d
          in
          Buffer.add_string buf (Cache.Key.tgd s.Cover.tgd);
          Buffer.add_string buf "|cost ";
          Cache.Key.add_frac buf t.cand_cost.(s.Cover.index);
          if Array.length t.covers.(i) = Tuple.Map.cardinal s.Cover.covers then
            Array.iter
              (fun (k, d) ->
                add_cover (fun buf -> Buffer.add_string buf rendered.(k)) d)
              t.covers.(i)
          else
            Tuple.Map.iter
              (fun tu d -> add_cover (fun buf -> Cache.Key.add_tuple buf tu) d)
              s.Cover.covers;
          List.iter
            (fun tu ->
              Buffer.add_string buf "|error ";
              Cache.Key.add_tuple buf tu)
            s.Cover.error_tuples;
          Buffer.add_string buf "|produced ";
          Cache.Key.add_int buf s.Cover.produced;
          Buffer.add_string buf "|size ";
          Cache.Key.add_int buf s.Cover.size))
    t.stats

let num_candidates t = Array.length t.candidates

let num_tuples t = Array.length t.tuples

let selection_of_indices t indices =
  let sel = Array.make (num_candidates t) false in
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length sel then
        invalid_arg "Problem.selection_of_indices: index out of range";
      sel.(i) <- true)
    indices;
  sel

let indices_of_selection sel =
  Array.to_list (Array.mapi (fun i b -> (i, b)) sel)
  |> List.filter_map (fun (i, b) -> if b then Some i else None)
