(** The oracle library: every mechanically checkable invariant the paper's
    appendix (and the engine's own contracts) pin down, as named checks over
    fuzz cases.

    The thirteen families:

    - [eq4-eq9] — on full-tgd scenarios the Eq. 4 bitset fast path
      ({!Core.Full}) and the general Eq. 9 evaluator agree on every probed
      selection, and their exact solvers find equal optima;
    - [incremental] — {!Core.Incremental} matches the naive
      {!Core.Objective} after every flip of a random flip sequence, every
      probed [flip_delta] is exact, and the internal state passes
      {!Core.Incremental.self_check};
    - [solver-order] — [F(exact) <= F(local-search) <= F(greedy) <= F({})]
      and [F(exact) <= F(anneal) <= F({})] on small problems;
    - [setcover] — the Theorem 1 closed form
      [F(M) = (m+1)(|U| - |∪ R_i|) + 2|M|] equals the Eq. 9 evaluator on
      the reduced problem for every probed selection;
    - [cq-index] — {!Logic.Cq.answers_indexed} (and the indexed extension
      evaluator) agree with the unindexed evaluator on the case's tgd bodies
      and heads;
    - [chase-determinism] — the chase is invariant under permutation of the
      source tuples, with and without a prebuilt index, passes
      {!Chase.check_result}, and the objective is invariant under
      permutation of the candidate list;
    - [cache-identity] — building the problem through a private
      {!Cache.t} (cold and warm) and solving through it yields problems
      and selections byte-identical to the uncached pipeline, and a warm
      rebuild recomputes nothing;
    - [columnar-identity] — {!Relational.Columnar.of_instance} round-trips
      losslessly, {!Logic.Cq.Columnar} returns exactly the indexed
      row-major answer lists (order included) on bodies and heads, with
      and without a seeded partial substitution, {!Chase.run_columnar}
      equals {!Chase.run} trigger for trigger, and none of it changes when
      the store is rebuilt from a permuted tuple list;
    - [core-solution] — the core of the chased target is a sub-instance
      retaining every ground tuple, homomorphically equivalent to it in
      both directions, idempotent, and coring never grows the produced
      [K_M];
    - [warm-start] — a {!Core.Cmd} solve warm-started from a previous
      solve's ADMM state ({!Core.Cmd.warm}) returns the cold selection
      bit-for-bit, both on the same problem (exact model match, state
      applied) and on a neighbouring one (last candidate dropped — the
      {!Psl.Grounding.delta} mismatch makes Cmd fall back to the cold
      start); and a sequential {!Core.Portfolio} race is deterministic in
      [(problem, seed)] and never beaten by an individually-run roster
      member;
    - [algebra] — implication and containment verdicts hold semantically,
      and a composed mapping's chase is sound against the hop-by-hop chase
      (exact when the intermediate hops are full);
    - [cover-reference] — {!Cover.analyze}'s indexed Eq. 9 cover returns
      exactly the statistics of the configuration-enumeration fold
      ({!reference_stats_of_triggers}): covers, ordered error tuples and
      [produced], per candidate, under all three semantics, with [core]
      off and on;
    - [admm-reference] — {!Psl.Admm.solve}'s flat consensus ADMM returns
      exactly the outcome of the per-factor solver it replaced
      ({!reference_admm}) on the case's preprocessed CMD model, linear and
      squared, cold and warm-started from the cold run's final state:
      iterations, convergence, and the IEEE bits of the solution, the
      energy, the consensus vector and every dual row.

    Checks are deterministic functions of the case: auxiliary randomness
    (probed selections, flip sequences, permutations) is derived from the
    case seed, so a failing case replays identically from the corpus. *)

type ctx
(** A case plus its lazily shared precomputation ({!Core.Problem.make}
    chases once per candidate; the oracles share one problem per case). *)

val make_ctx : ?cache : Cache.t -> Case.t -> ctx
(** [cache] is used for the context's shared problem construction — results
    are identical with or without it. *)

type verdict =
  | Pass
  | Skip  (** the oracle does not apply to this case shape *)
  | Fail of string  (** invariant violated; the payload describes how *)

type t = {
  name : string;
  doc : string;
  check : ctx -> verdict;
}

val all : t list
(** The thirteen families, in the order above. *)

val names : string list

val find : string -> t option

val run : ?cache : Cache.t -> t -> Case.t -> verdict
(** [check] on a fresh context (built with [cache] when given), with
    exceptions converted to [Fail]. *)

val is_failure : ?cache : Cache.t -> t -> Case.t -> bool
(** The shrinking predicate: does the oracle fail (or raise) on this case? *)

val reference_stats_of_triggers :
  ?semantics : Cover.semantics ->
  j : Relational.Instance.t ->
  index : int ->
  Logic.Tgd.t ->
  Chase.Trigger.t list ->
  Cover.tgd_stats
(** The reference for {!Cover.stats_of_triggers}: the same statistics, by
    enumerating every consistent configuration of each trigger group (each
    tuple matched onto a scanned J tuple or left unmatched) and folding
    each matched tuple's degree into the per-target maximum. Exponential in
    the group size; for checking only. *)

val stats_difference : Cover.tgd_stats -> Cover.tgd_stats -> string option
(** [None] when the two statistics are equal field for field (covers,
    error tuples in order, produced, size, index, tgd); otherwise the
    first field that differs, with both values. *)

val reference_admm :
  ?options : Psl.Admm.options -> ?warm : Psl.Admm.state -> Psl.Hlmrf.t -> Psl.Admm.outcome
(** The reference for {!Psl.Admm.solve}: the same consensus ADMM over a list
    of per-factor records, each with its own local copy and dual, with
    every floating-point operation in the same order. For checking only. *)

val outcome_difference : Psl.Admm.outcome -> Psl.Admm.outcome -> string option
(** [None] when the two outcomes are bitwise equal — iterations,
    convergence, and the [Int64.bits_of_float] of the energy, the solution,
    the consensus vector and every dual row; otherwise the first field that
    differs, with both values. *)

val faults : (string * t) list
(** Deliberately broken oracle variants, keyed by fault name, for exercising
    the shrinking and corpus pipeline end to end: [flip-delta] perturbs the
    expected flip delta of candidates covering at least two tuples;
    [closed-form] drops the [+1] from the SET COVER closed form. Each is a
    drop-in replacement for the real oracle of the same [t.name]. *)
