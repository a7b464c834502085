open Relational
open Logic
open Util

type semantics =
  | Corroborated
  | Strict
  | Generous

type tgd_stats = {
  index : int;
  tgd : Tgd.t;
  covers : Frac.t Tuple.Map.t;
  error_tuples : Tuple.t list;
  produced : int;
  size : int;
}

let covers stats t =
  match Tuple.Map.find_opt t stats.covers with None -> Frac.zero | Some d -> d

let error_count stats = List.length stats.error_tuples

let covered_targets stats = Tuple.Map.bindings stats.covers |> List.map fst

(* --- tuple pattern matching ------------------------------------------- *)

(* Extend a null assignment so that [pattern] maps onto the ground tuple
   [t]; [None] on conflict. *)
let match_with ~assignment ~(pattern : Tuple.t) (t : Tuple.t) =
  if not (String.equal pattern.Tuple.rel t.Tuple.rel) then None
  else if Array.length pattern.values <> Array.length t.values then None
  else
    let n = Array.length pattern.values in
    let rec loop i asg =
      if i >= n then Some asg
      else
        match pattern.values.(i) with
        | Value.Const _ as c ->
          if Value.equal c t.values.(i) then loop (i + 1) asg else None
        | Value.Null _ as nul -> (
          match Value.Map.find_opt nul asg with
          | Some bound ->
            if Value.equal bound t.values.(i) then loop (i + 1) asg else None
          | None -> loop (i + 1) (Value.Map.add nul t.values.(i) asg))
    in
    loop 0 assignment

let matches ~pattern t =
  match match_with ~assignment:Value.Map.empty ~pattern t with
  | Some _ -> true
  | None -> false

let maps_into pattern inst =
  Tuple.Set.exists (fun t -> matches ~pattern t) (Instance.tuples_of inst pattern.Tuple.rel)

(* --- the J index ---------------------------------------------------------- *)

(* J indexed once per analysis ([analyze] builds it for all candidates;
   other callers pass it as [~j_index]): per relation, the tuples in
   canonical order plus [(position, value) -> ascending row ids]
   postings. A probe under a partial null assignment walks the shortest
   posting list among the pattern's constants and bound nulls (every row
   when it has neither) and checks each row with [match_with], so options
   come out in canonical J order. The homomorphism searches below and the
   iBench noise step share this one structure instead of scanning a
   relation per probe. *)
module J_index = struct
  type rel = {
    rows : Tuple.t array;
    postings : (Value.t, int array) Hashtbl.t array;  (* one per position *)
  }

  type t = (string, rel) Hashtbl.t

  let build_rel tuples =
    let rows = Array.of_list (Tuple.Set.elements tuples) in
    let width = Array.fold_left (fun w t -> max w (Tuple.arity t)) 0 rows in
    let lists = Array.init width (fun _ -> Hashtbl.create 64) in
    (* descending row order, so the consed lists come out ascending *)
    for row = Array.length rows - 1 downto 0 do
      Array.iteri
        (fun pos v ->
          match Hashtbl.find_opt lists.(pos) v with
          | Some ids -> ids := row :: !ids
          | None -> Hashtbl.add lists.(pos) v (ref [ row ]))
        rows.(row).Tuple.values
    done;
    let postings =
      Array.map
        (fun tbl ->
          let out = Hashtbl.create (Hashtbl.length tbl) in
          Hashtbl.iter (fun v ids -> Hashtbl.replace out v (Array.of_list !ids)) tbl;
          out)
        lists
    in
    { rows; postings }

  let build j : t =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun rel -> Hashtbl.replace tbl rel (build_rel (Instance.tuples_of j rel)))
      (Instance.relations j);
    tbl

  let no_rel = { rows = [||]; postings = [||] }

  let rel_of (jx : t) name = Option.value ~default:no_rel (Hashtbl.find_opt jx name)

  (* The shortest posting list among [pattern]'s constants and the nulls
     [assignment] binds; [None] when there is no such key (every row is a
     candidate). A key absent from J gives the empty list. *)
  let candidates r ~assignment (pattern : Tuple.t) =
    let best = ref None in
    Array.iteri
      (fun pos v ->
        let key =
          match v with
          | Value.Const _ -> Some v
          | Value.Null _ -> Value.Map.find_opt v assignment
        in
        match key with
        | None -> ()
        | Some key ->
          let ids =
            if pos >= Array.length r.postings then [||]
            else Option.value ~default:[||] (Hashtbl.find_opt r.postings.(pos) key)
          in
          (match !best with
          | Some b when Array.length b <= Array.length ids -> ()
          | _ -> best := Some ids))
      pattern.Tuple.values;
    !best

  (* [p t asg] over the options of [pattern] under [assignment] — the J
     tuples [t] it maps onto, each with its extended assignment [asg] — in
     canonical J order, stopping at the first [true]. *)
  let exists jx ~assignment (pattern : Tuple.t) p =
    let r = rel_of jx pattern.Tuple.rel in
    let check row =
      let t = r.rows.(row) in
      match match_with ~assignment ~pattern t with
      | None -> false
      | Some asg -> p t asg
    in
    match candidates r ~assignment pattern with
    | Some ids -> Array.exists check ids
    | None ->
      let n = Array.length r.rows in
      let rec go row = row < n && (check row || go (row + 1)) in
      go 0

  let iter jx ~assignment pattern f =
    ignore (exists jx ~assignment pattern (fun t asg -> f t asg; false))

  let matches jx pattern =
    let acc = ref [] in
    iter jx ~assignment:Value.Map.empty pattern (fun t _ -> acc := t :: !acc);
    List.rev !acc

  let maps_into jx pattern =
    exists jx ~assignment:Value.Map.empty pattern (fun _ _ -> true)
end

(* --- per-trigger-group analysis ----------------------------------------- *)

(* Eq. 9 over one trigger group, folded into the per-target maximum.

   The degree of group tuple [k] matched onto [t] counts its constants and,
   under [Corroborated], each null position whose null some matched
   sibling (another tuple of the group) also carries. It depends only on
   which siblings sharing one of [k]'s nulls are matched, and matching more
   of them never lowers it; [Strict] and [Generous] ignore siblings
   altogether. So the best degree of [k] on [t] is reached by matching [k]
   onto [t], leaving every sibling that shares no null with [k] unmatched,
   and matching as many null-sharing siblings as can be matched together
   consistently with [k]'s assignment: a search over [k]'s siblings per
   option of [k], not over every configuration of the group. *)

let carries (t : Tuple.t) v = Array.exists (Value.equal v) t.Tuple.values

let nulls_of (t : Tuple.t) =
  List.sort_uniq Value.compare (List.filter Value.is_null (Array.to_list t.Tuple.values))

(* [record t covered] for every option [t] of group tuple [k] under
   [Corroborated], with [covered] the most null positions of [k] that a
   consistent matching of its siblings corroborates. [false] when no
   sibling shares a null with [k], so the degree is its constants alone. *)
let corroborated_options ~jx group k record =
  let pattern = group.(k) in
  let others = List.filteri (fun i _ -> i <> k) (Array.to_list group) in
  (* [k]'s nulls some sibling carries, one bit each, weighted by the
     positions of [k] holding them *)
  let shared =
    List.filter (fun v -> List.exists (fun s -> carries s v) others) (nulls_of pattern)
    |> Array.of_list
  in
  if Array.length shared > Sys.int_size - 2 then
    invalid_arg "Cover: a chase tuple shares too many nulls with its siblings";
  let bits t =
    let m = ref 0 in
    Array.iteri (fun b v -> if carries t v then m := !m lor (1 lsl b)) shared;
    !m
  in
  let weights =
    Array.map
      (fun v ->
        Array.fold_left
          (fun w v' -> if Value.equal v v' then w + 1 else w)
          0 pattern.Tuple.values)
      shared
  in
  let weight mask =
    let w = ref 0 in
    Array.iteri (fun b wb -> if mask land (1 lsl b) <> 0 then w := !w + wb) weights;
    !w
  in
  let full = weight ((1 lsl Array.length shared) - 1) in
  (* the null-sharing siblings in group order, with their bits *)
  let sibs =
    List.filter_map (fun s -> match bits s with 0 -> None | m -> Some (s, m)) others
    |> Array.of_list
  in
  let m = Array.length sibs in
  if m = 0 then false
  else begin
    let later a = Array.to_list (Array.sub sibs (a + 1) (m - a - 1)) |> List.map fst in
    let read_later a v = List.exists (fun s' -> carries s' v) (later a) in
    (* per sibling, its nulls that a later sibling also carries *)
    let links = Array.mapi (fun a (s, _) -> List.filter (read_later a) (nulls_of s)) sibs in
    (* per sibling, the bits it and the later ones can still add *)
    let reach = Array.make (m + 1) 0 in
    for a = m - 1 downto 0 do
      reach.(a) <- reach.(a + 1) lor snd sibs.(a)
    done;
    (* the most weight reachable by matching siblings [a..] consistently
       with [asg] on top of [covered]; stops early at [full] *)
    let rec search a asg covered =
      let w = weight covered in
      if w = full || a >= m then w
      else
        let s, mask = sibs.(a) in
        if mask land lnot covered = 0 then search (a + 1) asg covered
        else
          let best = ref 0 and with_s = covered lor mask in
          (* when [s] binds no null a later sibling reads, every option of
             [s] leaves the same search behind it: one suffices *)
          if List.for_all (fun v -> Value.Map.mem v asg) links.(a) then begin
            if J_index.exists jx ~assignment:asg s (fun _ _ -> true) then
              best := search (a + 1) asg with_s
          end
          else
            ignore
              (J_index.exists jx ~assignment:asg s (fun _ asg' ->
                   best := max !best (search (a + 1) asg' with_s);
                   !best = full));
          (* leaving [s] unmatched can add at most the later siblings' bits *)
          if !best = full || weight (covered lor reach.(a + 1)) <= !best then !best
          else max !best (search (a + 1) asg covered)
    in
    if Array.exists Value.is_const pattern.Tuple.values then begin
      (* walk [k]'s indexed options; the siblings see only the values of
         the shared nulls, so the search is memoised on them *)
      let memo = Hashtbl.create 16 in
      J_index.iter jx ~assignment:Value.Map.empty pattern (fun t asg ->
          let key = Array.map (fun v -> Value.Map.find v asg) shared in
          let w =
            match Hashtbl.find_opt memo key with
            | Some w -> w
            | None ->
              let w = search 0 asg 0 in
              Hashtbl.add memo key w;
              w
          in
          record t w)
    end
    else begin
      (* no constant: an option of [k] scores only through a matched
         sibling, and probing [k] unbound would meet every tuple of its
         relation. So take each sibling [a] as the first one matched (the
         earlier ones unmatched), walk its options, probe [k] under the
         bindings each fixes, then search the later siblings. An option of
         [a] whose values are already seen on the nulls [k] and the later
         siblings read repeats an earlier probe and is skipped. *)
      let seen = Hashtbl.create 16 in
      for a = 0 to m - 1 do
        let s, mask = sibs.(a) in
        let read = List.filter (fun v -> carries pattern v || read_later a v) (nulls_of s) in
        J_index.iter jx ~assignment:Value.Map.empty s (fun _ asg_s ->
            let key = (a, List.map (fun v -> Value.Map.find v asg_s) read) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              J_index.iter jx ~assignment:asg_s pattern (fun t asg ->
                  record t (search (a + 1) asg mask))
            end)
      done
    end;
    true
  end

let fold_group_covers ~semantics ~jx group acc =
  let acc = ref acc in
  Array.iteri
    (fun k (pattern : Tuple.t) ->
      let arity = Array.length pattern.Tuple.values in
      let consts =
        Array.fold_left
          (fun c v -> if Value.is_const v then c + 1 else c)
          0 pattern.Tuple.values
      in
      let record t covered =
        let d = Frac.make (consts + covered) arity in
        if not (Frac.is_zero d) then
          acc :=
            Tuple.Map.update t
              (function None -> Some d | Some d' -> Some (Frac.max d d'))
              !acc
      in
      (* a degree independent of the siblings: skip the walk when it is
         zero (a nullary tuple still fails [Frac.make], as it always did) *)
      let flat covered =
        if consts + covered > 0 || arity = 0 then
          J_index.iter jx ~assignment:Value.Map.empty pattern (fun t _ ->
              record t covered)
      in
      match semantics with
      | Strict -> flat 0
      | Generous -> flat (arity - consts)
      | Corroborated -> if not (corroborated_options ~jx group k record) then flat 0)
    group;
  !acc

let stats_of_triggers ?(semantics = Corroborated) ?j_index ~j ~index tgd triggers =
  let jx = match j_index with Some jx -> jx | None -> J_index.build j in
  let covers, errors, produced =
    List.fold_left
      (fun (covers, errors, produced) (tr : Chase.Trigger.t) ->
        let group = Array.of_list tr.Chase.Trigger.tuples in
        let covers = fold_group_covers ~semantics ~jx group covers in
        let errors =
          Array.fold_left
            (fun errs pattern ->
              if J_index.maps_into jx pattern then errs else pattern :: errs)
            errors group
        in
        (covers, errors, produced + Array.length group))
      (Tuple.Map.empty, [], 0)
      triggers
  in
  { index; tgd; covers; error_tuples = List.rev errors; produced; size = Tgd.size tgd }

(* Keep only the trigger tuples that survive into the core of the chased
   target; a trigger whose whole group was retracted away disappears. With
   coring on, coverage and errors are computed against the core universal
   solution, so redundant chase tuples stop inflating [K_M] (and stop
   counting as errors) — which is why cored stats are cached under their
   own key and pinned by their own goldens. *)
let core_triggers (result : Chase.result) =
  let c = Chase.Core_solution.core result.Chase.solution in
  if Instance.equal c result.Chase.solution then result.Chase.triggers
  else
    List.filter_map
      (fun (tr : Chase.Trigger.t) ->
        match List.filter (fun t -> Instance.mem t c) tr.Chase.Trigger.tuples with
        | [] -> None
        | tuples -> Some { tr with Chase.Trigger.tuples })
      result.Chase.triggers

let triggers_of_result ?(core = false) result =
  if core then core_triggers result else result.Chase.triggers

let stats_of_result ?semantics ?core ?j_index ~j ~index tgd result =
  stats_of_triggers ?semantics ?j_index ~j ~index tgd (triggers_of_result ?core result)

let analyze ?semantics ?(core = false) ~source ~j tgds =
  (* the columnar chase is bit-identical to the row-major one; only a
     mixed-arity relation (expressible row-major, not columnar) falls back *)
  let chase =
    match Columnar.of_instance source with
    | col -> fun tgd -> Chase.run_columnar col [ tgd ]
    | exception Invalid_argument _ ->
      let source_index = Logic.Cq.Index.build source in
      fun tgd -> Chase.run ~index:source_index source [ tgd ]
  in
  let j_index = J_index.build j in
  let stats_of index tgd =
    stats_of_result ?semantics ~core ~j_index ~j ~index tgd (chase tgd)
  in
  Array.of_list (List.mapi stats_of tgds)

let explains stats t =
  List.fold_left (fun acc s -> Frac.max acc (covers s t)) Frac.zero stats

let uncovered_targets stats j =
  Instance.fold
    (fun t acc ->
      let covered =
        Array.exists (fun s -> not (Frac.is_zero (covers s t))) stats
      in
      if covered then acc else Tuple.Set.add t acc)
    j Tuple.Set.empty
