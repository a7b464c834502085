(** Coverage and error degrees for st tgds — the Eq. 9 semantics.

    Given the target instance [J] of a data example and the chase triggers of
    a candidate tgd [θ], this module computes:

    - [covers(θ, t)] for every [t ∈ J]: the degree in [0,1] to which [θ]
      explains [t]. It is the maximum, over trigger groups of [θ] and
      consistent assignments [h] of the group's nulls to constants, of the
      fraction of [t]'s positions accounted for. A position is accounted for
      when the chase tuple carries an equal constant there, or carries a null
      [n] with [h n = t.(pos)] that is {e corroborated}: [n] also occurs in a
      different tuple of the same trigger group whose image under [h] lies in
      [J]. Corroboration is what distinguishes a join-carried value from an
      arbitrary placeholder; it reproduces the appendix's degrees (2/3 for a
      lone task tuple, 3/3 once a joined org tuple lands in [J]).

    - [error(θ, t')] for every trigger tuple [t']: 1 when no assignment of
      [t']'s nulls maps it onto a tuple of [J], else 0 (the appendix's
      [creates]).

    [explains(M, t)] for a mapping [M] is the maximum of [covers(θ, t)] over
    [θ ∈ M]. *)

(** How null positions of a matched chase tuple count towards coverage.
    [Corroborated] is the paper's Eq. 9 semantics and the default; the other
    two are ablation variants (experiment E11): [Strict] never credits an
    invented value, [Generous] always does. Only [Corroborated] reproduces
    the appendix's worked numbers. *)
type semantics =
  | Corroborated
      (** a null counts iff it also occurs in a sibling tuple of the trigger
          group whose image lies in [J] *)
  | Strict  (** nulls never count *)
  | Generous  (** a matched null always counts *)

type tgd_stats = {
  index : int;  (** position of the tgd in the candidate list *)
  tgd : Logic.Tgd.t;
  covers : Util.Frac.t Relational.Tuple.Map.t;
      (** per target tuple: best coverage degree; tuples with degree 0 are
          absent *)
  error_tuples : Relational.Tuple.t list;
      (** trigger tuples with error 1, with multiplicity across triggers *)
  produced : int;  (** total trigger tuples produced (with multiplicity) *)
  size : int;  (** [Tgd.size] of the tgd, cached *)
}

val covers : tgd_stats -> Relational.Tuple.t -> Util.Frac.t
(** Coverage degree of one target tuple (0 if absent). *)

val error_count : tgd_stats -> int
(** Number of error tuples, i.e. [Σ_{t'} error(θ, t')]. *)

val covered_targets : tgd_stats -> Relational.Tuple.t list
(** Target tuples with a strictly positive coverage degree. *)

(** An index of a target instance [J]: per relation, its tuples in
    canonical order and [(position, value)] posting lists of row ids. Built
    once per analysis and shared by every probe: a probe of a pattern walks
    the shortest posting list among its constants and already-bound nulls.
    Building it costs one pass over [J] and a few words per value. *)
module J_index : sig
  type t

  val build : Relational.Instance.t -> t

  val matches : t -> Relational.Tuple.t -> Relational.Tuple.t list
  (** [matches jx pattern]: the tuples of [J] that [pattern] maps onto
      (see {!val-matches}), in canonical order. *)

  val maps_into : t -> Relational.Tuple.t -> bool
  (** [maps_into jx pattern]: some tuple of [J] matches [pattern]. *)
end

val stats_of_triggers :
  ?semantics : semantics ->
  ?j_index : J_index.t ->
  j : Relational.Instance.t ->
  index : int ->
  Logic.Tgd.t ->
  Chase.Trigger.t list ->
  tgd_stats
(** Statistics of one tgd from its chase triggers. The triggers must all
    belong to the given tgd. [j_index] must index [j]; without it the index
    is built for this call, so a caller scoring many tgds against one [J]
    should build it once and pass it.

    Cost: one indexed probe per group tuple for its error flag, and per
    group tuple [k] a walk of [k]'s indexed options, each followed by a
    search over only the siblings sharing one of [k]'s nulls (memoised on
    the values those siblings can see). A tuple with no constant is probed
    only under the bindings of a matched sibling, so an all-null chase
    tuple no longer meets every tuple of its relation per trigger. *)

val triggers_of_result : ?core : bool -> Chase.result -> Chase.Trigger.t list
(** The trigger groups {!stats_of_result} scores: the result's triggers, or
    with [~core:true] those tuples of them that survive into the core of
    the chased target (a group left empty is dropped). *)

val stats_of_result :
  ?semantics : semantics ->
  ?core : bool ->
  ?j_index : J_index.t ->
  j : Relational.Instance.t ->
  index : int ->
  Logic.Tgd.t ->
  Chase.result ->
  tgd_stats
(** Statistics of one tgd from its chase result. With [~core:true] the
    chased target is first shrunk to its core universal solution
    ({!Chase.Core_solution}): trigger tuples retracted away by the core are
    dropped before coverage and errors are computed, so [produced] counts
    the cored [K_M]. The default ([false]) is {!stats_of_triggers} on the
    result's triggers, bit-identical to the historical pipeline. [j_index]
    is as for {!stats_of_triggers}. *)

val analyze :
  ?semantics : semantics ->
  ?core : bool ->
  source : Relational.Instance.t ->
  j : Relational.Instance.t ->
  Logic.Tgd.t list ->
  tgd_stats array
(** Chases [source] with each candidate separately and computes statistics
    for each; [analyze] is the precomputation step of the selection
    pipeline. The chase runs on the columnar kernel (bit-identical to the
    row-major chase; mixed-arity relations fall back to it), and
    [~core:true] applies the {!stats_of_result} core stage per candidate.
    [J] is indexed once ({!J_index}) for all candidates. *)

val explains : tgd_stats list -> Relational.Tuple.t -> Util.Frac.t
(** [explains stats t] is the maximum coverage degree of [t] over the given
    tgds — the Eq. 9 [explains(M, t)] for the mapping they form. *)

val matches : pattern : Relational.Tuple.t -> Relational.Tuple.t -> bool
(** [matches ~pattern t] is [true] iff [t] is an image of [pattern] under
    some assignment of [pattern]'s nulls (same relation, equal constants
    positionwise, nulls bound consistently within the tuple). [t] itself may
    contain nulls; a pattern null may map onto them. *)

val maps_into : Relational.Tuple.t -> Relational.Instance.t -> bool
(** [maps_into pattern inst]: some tuple of [inst] matches [pattern]. *)

val uncovered_targets :
  tgd_stats array -> Relational.Instance.t -> Relational.Tuple.Set.t
(** Target tuples of [J] that no candidate covers to any positive degree —
    the "certainly unexplained" tuples that preprocessing removes (each
    contributes a constant 1 to the objective regardless of the selection). *)
