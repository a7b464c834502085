open Relational
open Logic
open Util
open Core

type ctx = {
  case : Case.t;
  problem : Problem.t option Lazy.t;
}

let make_ctx ?cache case =
  {
    case;
    problem =
      lazy
        (match case.Case.payload with
        | Case.Mapping m -> Some (Case.problem ?cache m)
        | Case.Setcover _ -> None
        | Case.Multihop mh -> Some (Case.multihop_problem ?cache mh));
  }

type verdict =
  | Pass
  | Skip
  | Fail of string

type t = {
  name : string;
  doc : string;
  check : ctx -> verdict;
}

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

(* Auxiliary randomness, a pure function of (case seed, oracle salt). *)
let rng_of ctx salt = Random.State.make [| 0x0f4c; ctx.case.Case.seed; salt |]

(* Selections to probe: exhaustive up to 6 candidates, 40 random masks
   beyond. Always includes the empty and the full selection. *)
let probe_selections rng m =
  if m <= 6 then
    List.init (1 lsl m) (fun mask ->
        Array.init m (fun i -> (mask lsr i) land 1 = 1))
  else
    Array.make m false :: Array.make m true
    :: List.init 38 (fun _ -> Array.init m (fun _ -> Random.State.bool rng))

let breakdown_equal (a : Objective.breakdown) (b : Objective.breakdown) =
  Frac.equal a.Objective.unexplained b.Objective.unexplained
  && a.Objective.errors = b.Objective.errors
  && a.Objective.size = b.Objective.size
  && Frac.equal a.Objective.total b.Objective.total

let selection_to_string sel =
  String.concat ""
    (Array.to_list (Array.map (fun b -> if b then "1" else "0") sel))

(* --- eq4-eq9: the Full fast path vs the general evaluator -------------- *)

let check_eq4_eq9 ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m when not (List.for_all Tgd.is_full m.Case.candidates) ->
    Skip
  | Case.Mapping _ -> (
    let p = Option.get (Lazy.force ctx.problem) in
    match Full.of_problem p with
    | Error e -> failf "Full.of_problem rejected a full-tgd problem: %s" e
    | Ok fp ->
      let rng = rng_of ctx 1 in
      let n = Problem.num_candidates p in
      let mismatch =
        List.find_map
          (fun sel ->
            let v4 = Full.value fp sel in
            let v9 = Objective.value p sel in
            if Frac.equal v4 v9 then None
            else
              Some
                (Format.asprintf "Eq.4 gives %a, Eq.9 gives %a on %s" Frac.pp
                   v4 Frac.pp v9 (selection_to_string sel)))
          (probe_selections rng n)
      in
      (match mismatch with
      | Some msg -> Fail msg
      | None ->
        if n <= 8 then
          let v_full = Objective.value p (Full.exact fp) in
          let v_gen = Objective.value p (Exact.solve p) in
          if Frac.equal v_full v_gen then Pass
          else
            Fail
              (Format.asprintf "Full.exact finds %a but Exact.solve finds %a"
                 Frac.pp v_full Frac.pp v_gen)
        else Pass))

(* --- incremental: delta engine vs the naive evaluator ------------------ *)

(* [expected_tweak] is a hook for fault injection: the real oracle adds
   nothing; the broken variant perturbs the expected delta of candidates
   covering at least two tuples, simulating a delta-computation bug. *)
let incremental_check ~expected_tweak ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping _ ->
    let p = Option.get (Lazy.force ctx.problem) in
    let m = Problem.num_candidates p in
    let rng = rng_of ctx 2 in
    let sel = Array.init m (fun _ -> Random.State.bool rng) in
    let st = Incremental.create p sel in
    let steps = (2 * m) + 6 in
    let rec drive step =
      if step >= steps then
        match Incremental.self_check st with
        | Ok () -> Pass
        | Error msg -> failf "self_check after %d flips: %s" steps msg
      else
        let cur = Incremental.selection st in
        let value_now = Objective.value p cur in
        (* probe every candidate's delta against the naive evaluator *)
        let bad_probe =
          List.find_map
            (fun c ->
              cur.(c) <- not cur.(c);
              let naive = Frac.sub (Objective.value p cur) value_now in
              cur.(c) <- not cur.(c);
              let expected = Frac.add naive (expected_tweak p c) in
              let got = Incremental.flip_delta st c in
              if Frac.equal expected got then None
              else
                Some
                  (Format.asprintf
                     "flip_delta of candidate %d at step %d: expected %a, \
                      got %a"
                     c step Frac.pp expected Frac.pp got))
            (List.init m Fun.id)
        in
        match bad_probe with
        | Some msg -> Fail msg
        | None ->
          if m = 0 then
            if Frac.equal (Incremental.value st) value_now then Pass
            else Fail "value drifted on the empty candidate set"
          else begin
            let c = Random.State.int rng m in
            Incremental.flip st c;
            let now = Incremental.selection st in
            if
              not
                (breakdown_equal
                   (Objective.breakdown p now)
                   (Incremental.breakdown st))
            then
              failf "breakdown diverged after flipping candidate %d at step %d"
                c step
            else drive (step + 1)
          end
    in
    drive 0

let check_incremental = incremental_check ~expected_tweak:(fun _ _ -> Frac.zero)

(* --- solver-order: exact optimum bounds every registered solver -------- *)

let check_solver_order ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping _ ->
    let p = Option.get (Lazy.force ctx.problem) in
    if Problem.num_candidates p > 8 || Problem.num_tuples p > 40 then Skip
    else
      let seed = ctx.case.Case.seed land 0xFFFFFF in
      (* every solver in the registry, so a newly registered solver is
         bounded by the exact optimum without touching this oracle *)
      let values =
        List.map
          (fun impl ->
            ( Solver.name impl,
              Objective.value p (Solver.solve impl ~seed p).Solver.selection ))
          Solver.all
      in
      let v name = List.assoc name values in
      let v_exact = v "exact" in
      let v_empty = Objective.empty_value p in
      let checks =
        List.filter_map
          (fun (name, value) ->
            if String.equal name "exact" then None
            else Some (Printf.sprintf "exact <= %s" name, v_exact, value))
          values
        @ [
            ("local <= greedy", v "local", v "greedy");
            ("greedy <= F({})", v "greedy", v_empty);
            ("anneal <= F({})", v "anneal", v_empty);
          ]
      in
      (match
         List.find_map
           (fun (name, lo, hi) ->
             if Frac.(lo <= hi) then None
             else
               Some
                 (Format.asprintf "%s violated: %a > %a" name Frac.pp lo
                    Frac.pp hi))
           checks
       with
      | Some msg -> Fail msg
      | None -> Pass)

(* --- setcover: the Theorem 1 closed form ------------------------------- *)

(* [slope] is the coefficient of the uncovered-element term; the proof says
   [m + 1]. The [closed-form] fault lowers it to [m]. *)
let setcover_check ~slope ctx =
  match ctx.case.Case.payload with
  | Case.Mapping _ | Case.Multihop _ -> Skip
  | Case.Setcover inst -> (
    match Setcover.validate inst with
    | Error e -> failf "invalid SET COVER instance: %s" e
    | Ok () ->
      let red = Setcover.reduce inst in
      let n = Array.length red.Setcover.set_names in
      let rng = rng_of ctx 4 in
      let universe =
        List.sort_uniq String.compare inst.Setcover.universe
      in
      let mismatch =
        List.find_map
          (fun sel ->
            let selected = Setcover.cover_of_selection red sel in
            let covered =
              List.concat_map
                (fun (name, elems) ->
                  if List.mem name selected then elems else [])
                inst.Setcover.sets
              |> List.sort_uniq String.compare
            in
            let expected =
              Frac.of_int
                ((slope red.Setcover.m
                 * (List.length universe - List.length covered))
                + (2 * List.length selected))
            in
            let got = Objective.value red.Setcover.problem sel in
            if Frac.equal expected got then None
            else
              Some
                (Format.asprintf
                   "closed form predicts %a, Eq.9 evaluator gives %a for \
                    selection %s"
                   Frac.pp expected Frac.pp got (selection_to_string sel)))
          (probe_selections rng n)
      in
      (match mismatch with Some msg -> Fail msg | None -> Pass))

let check_setcover = setcover_check ~slope:(fun m -> m + 1)

(* --- cq-index: indexed vs unindexed CQ evaluation ---------------------- *)

let check_cq_index ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m ->
    let rng = rng_of ctx 5 in
    let check_inst inst queries =
      let index = Cq.Index.build inst in
      let norm answers = List.sort_uniq Subst.compare answers in
      List.find_map
        (fun q ->
          let plain = norm (Cq.answers inst q) in
          let indexed = norm (Cq.answers_indexed index q) in
          let lazily = norm (List.of_seq (Cq.answers_seq inst q)) in
          if not (List.equal Subst.equal plain indexed) then
            Some
              (Printf.sprintf
                 "indexed evaluator differs on a %d-atom query (%d vs %d \
                  answers)"
                 (List.length q) (List.length plain) (List.length indexed))
          else if not (List.equal Subst.equal plain lazily) then
            Some "answers_seq differs from answers"
          else
            (* extend a partial substitution binding a random variable *)
            let vars =
              List.fold_left
                (fun acc a -> String_set.union acc (Atom.vars a))
                String_set.empty q
              |> String_set.elements
            in
            match vars, Value.Set.elements (Instance.constants inst) with
            | [], _ | _, [] -> None
            | vs, consts ->
              let x = List.nth vs (Random.State.int rng (List.length vs)) in
              let value =
                List.nth consts (Random.State.int rng (List.length consts))
              in
              let s = Subst.singleton x value in
              let plain_ext = norm (Cq.extensions inst s q) in
              let indexed_ext = norm (Cq.extensions_indexed index s q) in
              if List.equal Subst.equal plain_ext indexed_ext then None
              else Some "extensions_indexed differs from extensions")
        queries
    in
    let bodies = List.map (fun (t : Tgd.t) -> t.Tgd.body) m.Case.candidates in
    let heads = List.map (fun (t : Tgd.t) -> t.Tgd.head) m.Case.candidates in
    (match check_inst m.Case.source bodies with
    | Some msg -> failf "on the source instance: %s" msg
    | None -> (
      match check_inst m.Case.j heads with
      | Some msg -> failf "on the target instance: %s" msg
      | None -> Pass))

(* --- chase-determinism: permutation invariance and internal checks ----- *)

let shuffle rng l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let triggers_equal (a : Chase.Trigger.t) (b : Chase.Trigger.t) =
  a.Chase.Trigger.tgd_index = b.Chase.Trigger.tgd_index
  && Subst.equal a.Chase.Trigger.subst b.Chase.Trigger.subst
  && List.equal Tuple.equal a.Chase.Trigger.tuples b.Chase.Trigger.tuples
  && Value.Set.equal a.Chase.Trigger.nulls b.Chase.Trigger.nulls

let results_equal (a : Chase.result) (b : Chase.result) =
  Instance.equal a.Chase.solution b.Chase.solution
  && List.length a.Chase.triggers = List.length b.Chase.triggers
  && List.for_all2 triggers_equal a.Chase.triggers b.Chase.triggers

let check_chase_determinism ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m ->
    let rng = rng_of ctx 6 in
    let source2 =
      Instance.of_tuples (shuffle rng (Instance.tuples m.Case.source))
    in
    if not (Instance.equal m.Case.source source2) then
      Fail "instances are not canonical under tuple permutation"
    else
      let r1 = Chase.run m.Case.source m.Case.candidates in
      let r2 = Chase.run source2 m.Case.candidates in
      let r3 =
        Chase.run
          ~index:(Cq.Index.build m.Case.source)
          m.Case.source m.Case.candidates
      in
      if not (results_equal r1 r2) then
        Fail "chase differs after permuting the source tuples"
      else if not (results_equal r1 r3) then
        Fail "chase differs with a prebuilt index"
      else (
        match Chase.check_result ~source:m.Case.source r1 with
        | Error msg -> failf "chase invariant violated: %s" msg
        | Ok () ->
          let n = List.length m.Case.candidates in
          if n = 0 || n > 10 then Pass
          else
            let order = shuffle rng (List.init n Fun.id) in
            let permuted =
              List.map (fun i -> List.nth m.Case.candidates i) order
            in
            let p = Option.get (Lazy.force ctx.problem) in
            let p' =
              Problem.make ~weights:m.Case.weights ~source:m.Case.source
                ~j:m.Case.j permuted
            in
            let order = Array.of_list order in
            let mismatch =
              List.find_map
                (fun sel ->
                  let sel' = Array.init n (fun k -> sel.(order.(k))) in
                  let v = Objective.value p sel in
                  let v' = Objective.value p' sel' in
                  if Frac.equal v v' then None
                  else
                    Some
                      (Format.asprintf
                         "objective not invariant under candidate \
                          permutation: %a vs %a on %s"
                         Frac.pp v Frac.pp v' (selection_to_string sel)))
                (probe_selections rng n)
            in
            (match mismatch with Some msg -> Fail msg | None -> Pass))

(* --- cache-identity: cached evaluation is bit-identical to uncached ----- *)

(* The differential oracle behind the cache's central contract: building a
   problem through a cache — cold or warm — and solving through a cache must
   be byte-for-byte what the uncached pipeline produces. Runs against a
   private cache so the verdict is independent of any campaign-level
   cache. *)
let check_cache_identity ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m -> (
    let cache = Cache.create ~capacity:1024 () in
    let p_plain = Option.get (Lazy.force ctx.problem) in
    let p_cold = Case.problem ~cache m in
    let after_cold = (Cache.stats cache).Cache.misses in
    let p_warm = Case.problem ~cache m in
    let after_warm = (Cache.stats cache).Cache.misses in
    let key = Problem.digest p_plain in
    if Problem.digest p_cold <> key then
      Fail "cold cached problem differs from the uncached problem"
    else if Problem.digest p_warm <> key then
      Fail "warm cached problem differs from the uncached problem"
    else if after_warm <> after_cold then
      failf "warm rebuild recomputed %d candidate analyses"
        (after_warm - after_cold)
    else
      let solvers =
        if Problem.num_candidates p_plain <= 6 then [ "greedy"; "local" ]
        else [ "greedy" ]
      in
      let seed = ctx.case.Case.seed land 0xFFFFFF in
      let mismatch =
        List.find_map
          (fun name ->
            let impl = Option.get (Solver.find name) in
            let plain = (Solver.solve impl ~seed p_plain).Solver.selection in
            let cold =
              (Solver.solve impl ~seed ~cache p_cold).Solver.selection
            in
            let warm =
              (Solver.solve impl ~seed ~cache p_warm).Solver.selection
            in
            if plain <> cold then
              Some (name ^ ": cold cached selection differs")
            else if plain <> warm then
              Some (name ^ ": warm cached selection differs")
            else None)
          solvers
      in
      match mismatch with Some msg -> Fail msg | None -> Pass)

(* --- columnar-identity: the column store is bit-identical to row-major -- *)

(* The differential oracle behind the columnar kernel's contract: the
   dictionary-encoded store round-trips losslessly, and the columnar CQ
   evaluator and chase return exactly — list order, null labels and all —
   what the row-major indexed pipeline returns. The metamorph rebuilds the
   store from a permuted tuple list: interning order must not show through,
   because row ids follow the canonical tuple order, not insertion order. *)
let check_columnar_identity ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m -> (
    match
      (Columnar.of_instance m.Case.source, Columnar.of_instance m.Case.j)
    with
    | exception Invalid_argument _ -> Skip (* mixed-arity: row-major only *)
    | col_src, col_j ->
      let rng = rng_of ctx 7 in
      let check_inst tag inst col queries =
        if not (Instance.equal (Columnar.to_instance col) inst) then
          Some (tag ^ ": to_instance (of_instance i) <> i")
        else
          let index = Cq.Index.build inst in
          let col' =
            Columnar.of_instance
              (Instance.of_tuples (shuffle rng (Instance.tuples inst)))
          in
          List.find_map
            (fun q ->
              let indexed = Cq.answers_indexed index q in
              let columnar = Cq.Columnar.answers col q in
              if not (List.equal Subst.equal indexed columnar) then
                Some
                  (Printf.sprintf
                     "%s: columnar answers differ from indexed on a %d-atom \
                      query (%d vs %d answers)"
                     tag (List.length q) (List.length indexed)
                     (List.length columnar))
              else if
                not
                  (List.equal Subst.equal indexed (Cq.Columnar.answers col' q))
              then
                Some
                  (tag
                 ^ ": columnar answers change when the store is rebuilt from \
                    permuted tuples")
              else
                let vars =
                  List.fold_left
                    (fun acc a -> String_set.union acc (Atom.vars a))
                    String_set.empty q
                  |> String_set.elements
                in
                match
                  (vars, Value.Set.elements (Instance.constants inst))
                with
                | [], _ | _, [] -> None
                | vs, consts ->
                  let x =
                    List.nth vs (Random.State.int rng (List.length vs))
                  in
                  let value =
                    List.nth consts (Random.State.int rng (List.length consts))
                  in
                  let s = Subst.singleton x value in
                  let indexed_ext = Cq.extensions_indexed index s q in
                  let columnar_ext = Cq.Columnar.extensions col s q in
                  if List.equal Subst.equal indexed_ext columnar_ext then None
                  else
                    Some
                      (tag
                     ^ ": columnar extensions differ from extensions_indexed"))
            queries
      in
      let bodies =
        List.map (fun (t : Tgd.t) -> t.Tgd.body) m.Case.candidates
      in
      let heads = List.map (fun (t : Tgd.t) -> t.Tgd.head) m.Case.candidates in
      (match check_inst "source" m.Case.source col_src bodies with
      | Some msg -> Fail msg
      | None -> (
        match check_inst "target" m.Case.j col_j heads with
        | Some msg -> Fail msg
        | None ->
          let r_row = Chase.run m.Case.source m.Case.candidates in
          let r_col = Chase.run_columnar col_src m.Case.candidates in
          let col_src' =
            Columnar.of_instance
              (Instance.of_tuples (shuffle rng (Instance.tuples m.Case.source)))
          in
          let r_col' = Chase.run_columnar col_src' m.Case.candidates in
          if not (results_equal r_row r_col) then
            Fail "columnar chase differs from the row-major chase"
          else if not (results_equal r_row r_col') then
            Fail "columnar chase differs on a store built from permuted tuples"
          else Pass)))

(* --- core-solution: the core is a minimal homomorphic retract ----------- *)

let tuple_is_ground (t : Tuple.t) =
  Array.for_all
    (function Value.Const _ -> true | Value.Null _ -> false)
    t.Tuple.values

let check_core_solution ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m ->
    let jc = (Chase.run m.Case.source m.Case.candidates).Chase.solution in
    (* the endomorphism search is worst-case exponential in a
       null-connected component; bound the instance like solver-order
       bounds the problem *)
    if Instance.cardinal jc > 40 then Skip
    else
      let c = Chase.Core_solution.core jc in
      if not (Instance.subset c jc) then
        Fail "core is not a sub-instance of the chased target"
      else if
        not
          (List.for_all
             (fun t -> (not (tuple_is_ground t)) || Instance.mem t c)
             (Instance.tuples jc))
      then Fail "core dropped a ground tuple"
      else if not (Chase.Core_solution.hom_exists ~from:jc ~into:c) then
        Fail "no homomorphism from the chased target into its core"
      else if not (Chase.Core_solution.hom_exists ~from:c ~into:jc) then
        Fail "no homomorphism from the core into the chased target"
      else if not (Instance.equal (Chase.Core_solution.core c) c) then
        Fail "core is not idempotent"
      else if not (Chase.Core_solution.is_core c) then
        Fail "core still admits a proper endomorphism"
      else if List.length m.Case.candidates > 6 then Pass
      else
        (* coring can only retract chase tuples away, never add them *)
        let produced stats =
          Array.fold_left (fun n s -> n + s.Cover.produced) 0 stats
        in
        let plain =
          produced
            (Cover.analyze ~source:m.Case.source ~j:m.Case.j m.Case.candidates)
        in
        let cored =
          produced
            (Cover.analyze ~core:true ~source:m.Case.source ~j:m.Case.j
               m.Case.candidates)
        in
        if cored <= plain then Pass
        else
          failf "coring grew K_M: %d produced tuples uncored, %d cored" plain
            cored

(* --- warm-start: warm solves are bit-identical to cold ------------------ *)

(* The sweep machinery re-serves a point from its own ADMM state
   (Common.run_solver's warm_key) and the portfolio races the registry
   roster; both are only sound if (a) a warm-started CMD solve returns
   exactly the cold selection — on the same problem, where the state is
   applied, and on a neighbouring one, where the partial Grounding.delta
   must make Cmd fall back to the cold start — and (b) a portfolio race is
   a pure function of (problem, seed). *)
let check_warm_start ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m ->
    let p = Option.get (Lazy.force ctx.problem) in
    (* portfolio runs exact too; bound the problem like solver-order *)
    if Problem.num_candidates p > 8 || Problem.num_tuples p > 40 then Skip
    else
      let cold = Cmd.solve p in
      let self = Cmd.solve ~warm:cold.Cmd.warm_out p in
      if self.Cmd.selection <> cold.Cmd.selection then
        failf "self-warm-started CMD differs from cold: %s vs %s"
          (selection_to_string self.Cmd.selection)
          (selection_to_string cold.Cmd.selection)
      else
        let neighbour_mismatch =
          match List.rev m.Case.candidates with
          | [] | [ _ ] -> None (* no neighbouring problem to derive *)
          | _ :: rest ->
            let q = Case.problem { m with Case.candidates = List.rev rest } in
            let q_cold = Cmd.solve q in
            let q_warm = Cmd.solve ~warm:cold.Cmd.warm_out q in
            if q_warm.Cmd.selection <> q_cold.Cmd.selection then
              Some
                (Printf.sprintf
                   "neighbour warm-started CMD differs from cold: %s vs %s"
                   (selection_to_string q_warm.Cmd.selection)
                   (selection_to_string q_cold.Cmd.selection))
            else None
        in
        (match neighbour_mismatch with
        | Some msg -> Fail msg
        | None -> (
          let impl = Option.get (Solver.find "portfolio") in
          let seed = ctx.case.Case.seed land 0xFFFFFF in
          let r1 = (Solver.solve impl ~seed p).Solver.selection in
          let r2 = (Solver.solve impl ~seed p).Solver.selection in
          if r1 <> r2 then
            Fail "portfolio race is not deterministic in (problem, seed)"
          else
            (* the race returns the best (or a provably optimal) roster
               result, so no individually-run roster member may beat it *)
            let vp = Objective.value p r1 in
            let beaten name sel =
              if Frac.compare vp (Objective.value p sel) <= 0 then None
              else
                Some
                  (Printf.sprintf "portfolio (F = %s) beaten by %s"
                     (Frac.to_string vp) name)
            in
            match beaten "cmd" cold.Cmd.selection with
            | Some msg -> Fail msg
            | None -> (
              match beaten "greedy" (Greedy.solve p) with
              | Some msg -> Fail msg
              | None -> Pass)))

(* --- algebra: the homomorphism checkers and the mapping algebra --------- *)

let take n l = List.filteri (fun i _ -> i < n) l

let ground_tuples inst =
  List.filter tuple_is_ground (Instance.tuples inst) |> List.sort compare

(* On single-mapping cases the oracle holds the checkers to their semantic
   contracts on the case's own data — a syntactically-confused [implies] or
   [contained_in] (the frozen-constant capture bug) shows up as a verdict
   the instance refutes. On multi-hop cases it holds composition to its
   defining property: chasing once with the composed mapping is sound
   against chasing hop by hop with identical ground facts, and fully
   hom-equivalent whenever every hop before the last is full (the fragment
   where first-order composition is complete). *)
let check_algebra ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ -> Skip
  | Case.Mapping m ->
    let cands = take 4 m.Case.candidates in
    let indexed = List.mapi (fun i c -> (i, c)) cands in
    let pairs =
      List.concat_map
        (fun (i, a) ->
          List.filter_map
            (fun (j, b) -> if i = j then None else Some (a, b))
            indexed)
        indexed
    in
    let implication_unsound =
      List.find_map
        (fun ((a : Tgd.t), (b : Tgd.t)) ->
          if not (Chase.Implication.implies a b) then None
          else
            (* (I, chase(I, [a])) satisfies a by universality, so a ⊨ b
               promises it satisfies b too *)
            let target = (Chase.run m.Case.source [ a ]).Chase.solution in
            if Chase.satisfies ~source:m.Case.source ~target b then None
            else
              Some
                (Printf.sprintf
                   "implies %s %s holds but (I, chase(I, [%s])) violates %s"
                   a.Tgd.label b.Tgd.label a.Tgd.label b.Tgd.label))
        pairs
    in
    (match implication_unsound with
    | Some msg -> Fail msg
    | None -> (
      let containment_unsound =
        List.find_map
          (fun ((a : Tgd.t), (b : Tgd.t)) ->
            if not (Containment.contained_in a.Tgd.body b.Tgd.body) then None
            else if
              Cq.holds m.Case.source a.Tgd.body
              && not (Cq.holds m.Case.source b.Tgd.body)
            then
              Some
                (Printf.sprintf
                   "body(%s) ⊆ body(%s) as boolean queries, but only the \
                    former holds on I"
                   a.Tgd.label b.Tgd.label)
            else None)
          pairs
      in
      match containment_unsound with
      | Some msg -> Fail msg
      | None -> (
        let minimize_broken =
          List.find_map
            (fun (c : Tgd.t) ->
              let small = Chase.Implication.minimize_tgd c in
              if not (Chase.Implication.equivalent small c) then
                Some
                  (Printf.sprintf "minimize_tgd changed the meaning of %s"
                     c.Tgd.label)
              else
                match c.Tgd.body with
                | [] -> None
                | a :: _ ->
                  (* duplicating an atom never changes the minimal core *)
                  let minimized = Containment.minimize (c.Tgd.body @ [ a ]) in
                  if Containment.equivalent minimized c.Tgd.body then None
                  else
                    Some
                      (Printf.sprintf
                         "Containment.minimize broke a duplicated body of %s"
                         c.Tgd.label))
            cands
        in
        match minimize_broken with Some msg -> Fail msg | None -> Pass)))
  | Case.Multihop mh ->
    if mh.Case.hops = [] then Skip
    else
      let maps = List.map fst mh.Case.hops in
      let k_hop = Algebra.chase_through mh.Case.initial maps in
      if
        Instance.cardinal k_hop > 40
        || Case.num_tuples ctx.case > 60
        || Case.num_candidates ctx.case > 12
      then Skip
      else
        let composed = Algebra.compose_all maps in
        let k_comp = Algebra.chase_through mh.Case.initial [ composed ] in
        (* Completeness of first-order composition is only promised when no
           intermediate existential can be consumed downstream: a hop-1 null
           shared by two hop-2 facts is a correlation no tgd set expresses
           (that is SO-tgd territory, Fagin et al.), so the hop-by-hop chase
           need not map into the composed one. Ground facts are exempt —
           each comes from a single derivation tree, which unfolding does
           capture — so their sets must always agree. *)
        let intermediate_full =
          match List.rev maps with
          | [] -> true
          | _last :: earlier -> List.for_all (List.for_all Tgd.is_full) earlier
        in
        if not (Chase.Core_solution.hom_exists ~from:k_comp ~into:k_hop) then
          Fail "no homomorphism from the composed chase into the hop-by-hop one"
        else if
          intermediate_full
          && not (Chase.Core_solution.hom_exists ~from:k_hop ~into:k_comp)
        then
          Fail
            "intermediate hops are full but the hop-by-hop chase does not \
             map into the composed one"
        else if ground_tuples k_comp <> ground_tuples k_hop then
          failf "ground facts differ: %d composed vs %d hop-by-hop"
            (List.length (ground_tuples k_comp))
            (List.length (ground_tuples k_hop))
        else if not (Algebra.contained_in composed composed) then
          Fail "containment is not reflexive on the composed mapping"
        else (
          match maps with
          | [ m1; m2; m3 ] ->
            let left = Algebra.compose (Algebra.compose m1 m2) m3 in
            let right = Algebra.compose m1 (Algebra.compose m2 m3) in
            if Algebra.equivalent left right then Pass
            else Fail "composition is not associative up to equivalence"
          | _ -> Pass)

(* --- cover-reference: the indexed Eq. 9 cover vs full enumeration -------- *)

(* The Eq. 9 cover fold as first written, kept as the reference: every
   consistent configuration of a trigger group — each tuple matched onto a
   J tuple of its relation (scanned, no index) or left unmatched — is
   enumerated, and each matched tuple's degree under that configuration is
   folded into the per-target maximum. Exponential in the group, which is
   why {!Cover} searches siblings over an index instead. *)

let ref_match_with ~assignment ~(pattern : Tuple.t) (t : Tuple.t) =
  if not (String.equal pattern.Tuple.rel t.Tuple.rel) then None
  else if Array.length pattern.Tuple.values <> Array.length t.Tuple.values then None
  else
    let n = Array.length pattern.Tuple.values in
    let rec loop i asg =
      if i >= n then Some asg
      else
        match pattern.Tuple.values.(i) with
        | Value.Const _ as c ->
          if Value.equal c t.Tuple.values.(i) then loop (i + 1) asg else None
        | Value.Null _ as nul -> (
          match Value.Map.find_opt nul asg with
          | Some bound ->
            if Value.equal bound t.Tuple.values.(i) then loop (i + 1) asg else None
          | None -> loop (i + 1) (Value.Map.add nul t.Tuple.values.(i) asg))
    in
    loop 0 assignment

let ref_options ~j (pattern : Tuple.t) =
  Tuple.Set.fold
    (fun t acc ->
      match ref_match_with ~assignment:Value.Map.empty ~pattern t with
      | None -> acc
      | Some asg -> (t, asg) :: acc)
    (Instance.tuples_of j pattern.Tuple.rel)
    []
  |> List.rev

let ref_merge a b =
  Value.Map.fold
    (fun k v acc ->
      match acc with
      | None -> None
      | Some m -> (
        match Value.Map.find_opt k m with
        | None -> Some (Value.Map.add k v m)
        | Some v' -> if Value.equal v v' then acc else None))
    b (Some a)

let ref_degree ~semantics ~group ~matched i =
  let pattern = group.(i) in
  let arity = Array.length pattern.Tuple.values in
  let corroborated nul =
    let contains_null (t : Tuple.t) = Array.exists (Value.equal nul) t.Tuple.values in
    List.exists (fun k -> k <> i && contains_null group.(k)) matched
  in
  let counts v =
    match semantics with
    | Cover.Corroborated -> corroborated v
    | Cover.Strict -> false
    | Cover.Generous -> true
  in
  let covered =
    Array.fold_left
      (fun n v ->
        match v with
        | Value.Const _ -> n + 1
        | Value.Null _ -> if counts v then n + 1 else n)
      0 pattern.Tuple.values
  in
  Frac.make covered arity

let ref_fold_group ~semantics ~j group acc =
  let n = Array.length group in
  let options = Array.map (ref_options ~j) group in
  let best = ref [] in
  let choices = Array.make n None in
  let rec explore i assignment =
    if i >= n then begin
      let matched = List.filter (fun k -> choices.(k) <> None) (List.init n Fun.id) in
      List.iter
        (fun k ->
          match choices.(k) with
          | None -> ()
          | Some t -> best := (t, ref_degree ~semantics ~group ~matched k) :: !best)
        matched
    end
    else begin
      choices.(i) <- None;
      explore (i + 1) assignment;
      List.iter
        (fun (t, asg) ->
          match ref_merge assignment asg with
          | None -> ()
          | Some merged ->
            choices.(i) <- Some t;
            explore (i + 1) merged;
            choices.(i) <- None)
        options.(i)
    end
  in
  explore 0 Value.Map.empty;
  List.fold_left
    (fun acc (t, d) ->
      if Frac.is_zero d then acc
      else
        Tuple.Map.update t
          (function None -> Some d | Some d' -> Some (Frac.max d d'))
          acc)
    acc !best

let reference_stats_of_triggers ?(semantics = Cover.Corroborated) ~j ~index tgd
    triggers =
  let covers, errors, produced =
    List.fold_left
      (fun (covers, errors, produced) (tr : Chase.Trigger.t) ->
        let group = Array.of_list tr.Chase.Trigger.tuples in
        let covers = ref_fold_group ~semantics ~j group covers in
        let errors =
          Array.fold_left
            (fun errs pattern ->
              if ref_options ~j pattern = [] then pattern :: errs else errs)
            errors group
        in
        (covers, errors, produced + Array.length group))
      (Tuple.Map.empty, [], 0) triggers
  in
  {
    Cover.index;
    tgd;
    covers;
    error_tuples = List.rev errors;
    produced;
    size = Tgd.size tgd;
  }

let stats_difference (a : Cover.tgd_stats) (b : Cover.tgd_stats) =
  let tuples l = String.concat " " (List.map Tuple.to_string l) in
  let covers s =
    String.concat " "
      (List.map
         (fun (t, d) -> Tuple.to_string t ^ "=" ^ Frac.to_string d)
         (Tuple.Map.bindings s.Cover.covers))
  in
  if a.Cover.index <> b.Cover.index then
    Some (Printf.sprintf "index %d vs %d" a.Cover.index b.Cover.index)
  else if not (Tgd.equal a.Cover.tgd b.Cover.tgd) then Some "tgd differs"
  else if not (Tuple.Map.equal Frac.equal a.Cover.covers b.Cover.covers) then
    Some (Printf.sprintf "covers {%s} vs {%s}" (covers a) (covers b))
  else if not (List.equal Tuple.equal a.Cover.error_tuples b.Cover.error_tuples)
  then
    Some
      (Printf.sprintf "error tuples [%s] vs [%s]" (tuples a.Cover.error_tuples)
         (tuples b.Cover.error_tuples))
  else if a.Cover.produced <> b.Cover.produced then
    Some (Printf.sprintf "produced %d vs %d" a.Cover.produced b.Cover.produced)
  else if a.Cover.size <> b.Cover.size then
    Some (Printf.sprintf "size %d vs %d" a.Cover.size b.Cover.size)
  else None

let semantics_name = function
  | Cover.Corroborated -> "corroborated"
  | Cover.Strict -> "strict"
  | Cover.Generous -> "generous"

let check_cover_reference ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m ->
    let source = m.Case.source and j = m.Case.j in
    let results = List.map (fun tgd -> Chase.run source [ tgd ]) m.Case.candidates in
    let mismatch =
      List.find_map
        (fun (semantics, core) ->
          let stats = Cover.analyze ~semantics ~core ~source ~j m.Case.candidates in
          List.find_map
            (fun (index, (tgd, result)) ->
              let expected =
                reference_stats_of_triggers ~semantics ~j ~index tgd
                  (Cover.triggers_of_result ~core result)
              in
              Option.map
                (Printf.sprintf "%s, core %b, candidate %d (%s): %s"
                   (semantics_name semantics) core index tgd.Tgd.label)
                (stats_difference stats.(index) expected))
            (List.mapi (fun i x -> (i, x)) (List.combine m.Case.candidates results)))
        (List.concat_map
           (fun semantics -> [ (semantics, false); (semantics, true) ])
           [ Cover.Corroborated; Cover.Strict; Cover.Generous ])
    in
    (match mismatch with None -> Pass | Some msg -> Fail msg)

(* --- admm-reference: the flat ADMM loop vs the per-factor solver -------- *)

(* Consensus ADMM as first written, kept as the reference for
   {!Psl.Admm.solve}: a list of per-factor records, each with its own local
   copy and dual, walked through closures. Every floating-point operation
   happens in the same order as in the flat solver, so the two outcomes
   must agree bit for bit. *)

type ref_step =
  | Ref_linear of { weight : float }
  | Ref_hinge of { weight : float; squared : bool }
  | Ref_leq
  | Ref_eq

type ref_factor = {
  step : ref_step;
  vars : int array;
  coeffs : float array;
  constant : float;
  norm2 : float;
  x : float array;
  y : float array;
}

let ref_factor_of_expr step expr =
  let pairs = expr.Psl.Linexpr.coeffs in
  let n = List.length pairs in
  let vars = Array.make n 0 and coeffs = Array.make n 0. in
  List.iteri
    (fun k (i, c) ->
      vars.(k) <- i;
      coeffs.(k) <- c)
    pairs;
  {
    step;
    vars;
    coeffs;
    constant = expr.Psl.Linexpr.constant;
    norm2 = Psl.Linexpr.norm2 expr;
    x = Array.make n 0.;
    y = Array.make n 0.;
  }

let ref_factors_of_model model =
  let of_potential = function
    | Psl.Hlmrf.Hinge { weight; expr; squared } ->
      if expr.Psl.Linexpr.coeffs = [] || weight = 0. then None
      else Some (ref_factor_of_expr (Ref_hinge { weight; squared }) expr)
    | Psl.Hlmrf.Linear { weight; expr } ->
      if expr.Psl.Linexpr.coeffs = [] || weight = 0. then None
      else Some (ref_factor_of_expr (Ref_linear { weight }) expr)
  in
  let of_constraint = function
    | Psl.Hlmrf.Leq e ->
      if e.Psl.Linexpr.coeffs = [] then None else Some (ref_factor_of_expr Ref_leq e)
    | Psl.Hlmrf.Eq e ->
      if e.Psl.Linexpr.coeffs = [] then None else Some (ref_factor_of_expr Ref_eq e)
  in
  List.filter_map of_potential (Psl.Hlmrf.potentials model)
  @ List.filter_map of_constraint (Psl.Hlmrf.constraints model)

let ref_dot f v =
  let acc = ref f.constant in
  Array.iteri (fun k c -> acc := !acc +. (c *. v.(k))) f.coeffs;
  !acc

let ref_axpy f v t = Array.iteri (fun k c -> f.x.(k) <- v.(k) +. (t *. c)) f.coeffs

let ref_project_hyperplane f v =
  if f.norm2 = 0. then Array.blit v 0 f.x 0 (Array.length v)
  else ref_axpy f v (-.ref_dot f v /. f.norm2)

let ref_local_solve ~rho f v =
  match f.step with
  | Ref_linear { weight } -> ref_axpy f v (-.weight /. rho)
  | Ref_hinge { weight; squared = false } ->
    if ref_dot f v <= 0. then Array.blit v 0 f.x 0 (Array.length v)
    else begin
      ref_axpy f v (-.weight /. rho);
      if ref_dot f f.x < 0. then ref_project_hyperplane f v
    end
  | Ref_hinge { weight; squared = true } ->
    let margin = ref_dot f v in
    if margin <= 0. then Array.blit v 0 f.x 0 (Array.length v)
    else ref_axpy f v (-.(2. *. weight *. margin) /. (rho +. (2. *. weight *. f.norm2)))
  | Ref_leq ->
    if ref_dot f v <= 0. then Array.blit v 0 f.x 0 (Array.length v)
    else ref_project_hyperplane f v
  | Ref_eq -> ref_project_hyperplane f v

let reference_admm ?(options = Psl.Admm.default_options) ?warm model =
  let n = Psl.Hlmrf.num_vars model in
  let factors = ref_factors_of_model model in
  let z = Array.make n 0. in
  (match warm with
  | None -> ()
  | Some w ->
    if Array.length w.Psl.Admm.consensus = n then Array.blit w.Psl.Admm.consensus 0 z 0 n;
    let num_factors = List.length factors in
    if Array.length w.Psl.Admm.duals = num_factors then
      List.iteri
        (fun idx f ->
          let src = w.Psl.Admm.duals.(idx) in
          let d = Array.length f.y in
          if Array.length src = d then Array.blit src 0 f.y 0 d)
        factors);
  let counts = Array.make n 0 in
  List.iter (fun f -> Array.iter (fun i -> counts.(i) <- counts.(i) + 1) f.vars) factors;
  let rho = options.Psl.Admm.rho in
  let total_copies = List.fold_left (fun acc f -> acc + Array.length f.vars) 0 factors in
  let v_buf =
    Array.make (List.fold_left (fun m f -> max m (Array.length f.vars)) 1 factors) 0.
  in
  let sums = Array.make n 0. in
  let iterations = ref 0 in
  let converged = ref false in
  (try
     for iter = 1 to options.Psl.Admm.max_iter do
       iterations := iter;
       List.iter
         (fun f ->
           let d = Array.length f.vars in
           for k = 0 to d - 1 do
             v_buf.(k) <- z.(f.vars.(k)) -. (f.y.(k) /. rho)
           done;
           ref_local_solve ~rho f (Array.sub v_buf 0 d))
         factors;
       Array.fill sums 0 n 0.;
       List.iter
         (fun f ->
           Array.iteri
             (fun k i -> sums.(i) <- sums.(i) +. f.x.(k) +. (f.y.(k) /. rho))
             f.vars)
         factors;
       let dual_sq = ref 0. in
       for i = 0 to n - 1 do
         if counts.(i) > 0 then begin
           let znew = Float.max 0. (Float.min 1. (sums.(i) /. float_of_int counts.(i))) in
           let dz = znew -. z.(i) in
           dual_sq := !dual_sq +. (float_of_int counts.(i) *. dz *. dz);
           z.(i) <- znew
         end
       done;
       let primal_sq = ref 0. in
       let x_sq = ref 0. and z_sq = ref 0. and y_sq = ref 0. in
       List.iter
         (fun f ->
           Array.iteri
             (fun k i ->
               let r = f.x.(k) -. z.(i) in
               f.y.(k) <- f.y.(k) +. (rho *. r);
               primal_sq := !primal_sq +. (r *. r);
               x_sq := !x_sq +. (f.x.(k) *. f.x.(k));
               z_sq := !z_sq +. (z.(i) *. z.(i));
               y_sq := !y_sq +. (f.y.(k) *. f.y.(k)))
             f.vars)
         factors;
       let sqn = sqrt (float_of_int (max 1 total_copies)) in
       let eps_pri =
         (sqn *. options.Psl.Admm.eps_abs)
         +. (options.Psl.Admm.eps_rel *. Float.max (sqrt !x_sq) (sqrt !z_sq))
       in
       let eps_dual =
         (sqn *. options.Psl.Admm.eps_abs) +. (options.Psl.Admm.eps_rel *. sqrt !y_sq)
       in
       if sqrt !primal_sq <= eps_pri && rho *. sqrt !dual_sq <= eps_dual then begin
         converged := true;
         raise Exit
       end
     done
   with Exit -> ());
  let state =
    {
      Psl.Admm.consensus = Array.copy z;
      duals = Array.of_list (List.map (fun f -> Array.copy f.y) factors);
    }
  in
  {
    Psl.Admm.solution = z;
    iterations = !iterations;
    converged = !converged;
    energy = Psl.Hlmrf.energy model z;
    state;
  }

let outcome_difference (a : Psl.Admm.outcome) (b : Psl.Admm.outcome) =
  let bits = Int64.bits_of_float in
  let rows (o : Psl.Admm.outcome) =
    ("solution", o.Psl.Admm.solution)
    :: ("consensus", o.Psl.Admm.state.Psl.Admm.consensus)
    :: List.mapi
         (fun f row -> (Printf.sprintf "dual row %d" f, row))
         (Array.to_list o.Psl.Admm.state.Psl.Admm.duals)
  in
  let row_difference ((what, ra), (_, rb)) =
    if Array.length ra <> Array.length rb then
      Some (Printf.sprintf "%s: length %d vs %d" what (Array.length ra) (Array.length rb))
    else
      Seq.find_map
        (fun k ->
          if bits ra.(k) = bits rb.(k) then None
          else Some (Printf.sprintf "%s[%d]: %h vs %h" what k ra.(k) rb.(k)))
        (Seq.init (Array.length ra) Fun.id)
  in
  let ra = rows a and rb = rows b in
  if a.Psl.Admm.iterations <> b.Psl.Admm.iterations then
    Some (Printf.sprintf "iterations %d vs %d" a.Psl.Admm.iterations b.Psl.Admm.iterations)
  else if a.Psl.Admm.converged <> b.Psl.Admm.converged then
    Some (Printf.sprintf "converged %b vs %b" a.Psl.Admm.converged b.Psl.Admm.converged)
  else if bits a.Psl.Admm.energy <> bits b.Psl.Admm.energy then
    Some (Printf.sprintf "energy %h vs %h" a.Psl.Admm.energy b.Psl.Admm.energy)
  else if List.length ra <> List.length rb then
    Some (Printf.sprintf "dual rows %d vs %d" (List.length ra - 2) (List.length rb - 2))
  else List.find_map row_difference (List.combine ra rb)

let check_admm_reference ctx =
  match Lazy.force ctx.problem with
  | None -> Skip
  | Some p -> (
    let reduced = (Preprocess.run p).Preprocess.problem in
    let mismatch squared =
      let model = Cmd.build_model ~squared reduced in
      let label = if squared then "squared" else "linear" in
      let cold = Psl.Admm.solve model in
      match outcome_difference cold (reference_admm model) with
      | Some msg -> Some (Printf.sprintf "%s, cold: %s" label msg)
      | None ->
        let warm = cold.Psl.Admm.state in
        Option.map
          (Printf.sprintf "%s, warm: %s" label)
          (outcome_difference (Psl.Admm.solve ~warm model) (reference_admm ~warm model))
    in
    match List.find_map mismatch [ false; true ] with None -> Pass | Some msg -> Fail msg)

(* --- registry ----------------------------------------------------------- *)

let all =
  [
    {
      name = "eq4-eq9";
      doc = "Full (Eq. 4) fast path agrees with the Eq. 9 evaluator";
      check = check_eq4_eq9;
    };
    {
      name = "incremental";
      doc = "Core.Incremental matches the naive objective on flip sequences";
      check = check_incremental;
    };
    {
      name = "solver-order";
      doc = "exact bounds every registered solver; local <= greedy <= F({})";
      check = check_solver_order;
    };
    {
      name = "setcover";
      doc = "Theorem 1 closed form equals the evaluator on reductions";
      check = check_setcover;
    };
    {
      name = "cq-index";
      doc = "indexed CQ evaluation agrees with the unindexed evaluator";
      check = check_cq_index;
    };
    {
      name = "chase-determinism";
      doc = "chase invariant under permutation, indexing, and self-checks";
      check = check_chase_determinism;
    };
    {
      name = "cache-identity";
      doc = "cached problems and selections are bit-identical to uncached";
      check = check_cache_identity;
    };
    {
      name = "columnar-identity";
      doc = "columnar CQ evaluation and chase are bit-identical to row-major";
      check = check_columnar_identity;
    };
    {
      name = "core-solution";
      doc = "the core is a sub-instance, equivalent both ways, idempotent";
      check = check_core_solution;
    };
    {
      name = "warm-start";
      doc = "warm-started CMD equals cold; portfolio races deterministically";
      check = check_warm_start;
    };
    {
      name = "algebra";
      doc =
        "implication/containment verdicts hold semantically; composed chase \
         sound vs hop-by-hop, exact on full intermediate hops";
      check = check_algebra;
    };
    {
      name = "cover-reference";
      doc =
        "indexed Eq. 9 cover equals full configuration enumeration, all \
         semantics, core off and on";
      check = check_cover_reference;
    };
    {
      name = "admm-reference";
      doc =
        "flat consensus ADMM is bit-identical to the per-factor reference on \
         CMD models, linear and squared, cold and warm";
      check = check_admm_reference;
    };
  ]

let names = List.map (fun o -> o.name) all

let find name = List.find_opt (fun o -> o.name = name) all

let run ?cache o case =
  match o.check (make_ctx ?cache case) with
  | verdict -> verdict
  | exception e ->
    Fail (Printf.sprintf "exception: %s" (Printexc.to_string e))

let is_failure ?cache o case =
  match run ?cache o case with Fail _ -> true | Pass | Skip -> false

let faults =
  [
    ( "flip-delta",
      {
        name = "incremental";
        doc = "BROKEN: perturbs the flip delta of multi-cover candidates";
        check =
          incremental_check ~expected_tweak:(fun p c ->
              if Array.length p.Problem.covers.(c) >= 2 then Frac.one
              else Frac.zero);
      } );
    ( "closed-form",
      {
        name = "setcover";
        doc = "BROKEN: drops the +1 from the closed-form slope";
        check = setcover_check ~slope:(fun m -> m);
      } );
  ]
