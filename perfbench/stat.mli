(** Order statistics, failure accounting and open-loop schedules for the
    benchmark's reports. Everything here is pure and tested on synthetic
    inputs ([test_perfbench.ml]). *)

(** {2 Percentiles} *)

val nearest_rank : float -> int -> int
(** [nearest_rank p n] is the 1-based rank of the nearest-rank [p]-th
    percentile of [n] samples: [ceil (p / 100 * n)], clamped to [[1, n]].
    Raises [Invalid_argument] when [n < 1] or [p] is outside [(0, 100]]. *)

val percentile : float -> float array -> float
(** The nearest-rank [p]-th percentile ([Util.Stats.percentile], the
    sample at {!nearest_rank}), whatever the sample size. Raises
    [Invalid_argument] on an empty array. *)

val median : float array -> float
(** [percentile 50.]. *)

val beyond : float -> int -> int
(** [beyond p n]: how many of [n] samples lie strictly above the rank of
    the [p]-th percentile. *)

val min_tail : int
(** 10: a percentile is reported only when at least this many samples lie
    beyond it. *)

val supported : float -> int -> bool
(** [beyond p n >= min_tail]. *)

val reported : float -> float array -> float
(** The [p]-th percentile of a metric the benchmark prints. Raises
    [Invalid_argument] unless [supported p] holds for the sample size, so
    a metric read from too few samples is never printed as if valid. *)

(** {2 Failure accounting} *)

type tally
(** Operations attempted and failed. A failure is any operation that did
    not produce a checked, correct output: an error, a missing response, a
    refused call or an output mismatch. *)

val tally : unit -> tally
val attempt : tally -> unit
val fail : tally -> unit
(** Counts one failure of an already-attempted operation. *)

val record : tally -> ok:bool -> unit
(** [attempt] then, unless [ok], [fail]. *)

val attempted : tally -> int
val failed : tally -> int

val failed_frac : tally -> float
(** [failed / attempted]; [0.] when nothing was attempted. *)

(** {2 Open-loop schedules} *)

val arrival_schedule :
  Random.State.t -> rate:float -> duration:float -> float array
(** Due times (seconds from the schedule's start) of a Poisson arrival
    process at [rate] per second over [duration], conditioned on its
    expected count: [round (rate * duration)] independent uniform times in
    [[0, duration)], sorted. Fixing the count fixes the sample size every
    percentile is read from. *)

val lateness : due:float array -> sent:float array -> float array
(** Per call, how late the generator sent it: [sent.(i) - due.(i)]. A
    negative value means the call went out early, which a correct
    generator never does. Raises [Invalid_argument] on unequal lengths. *)

val latency_from_due : due:float -> completed:float -> float
(** The latency charged to a call: from when it was due to be sent, not
    from when it was sent, so a generator stall counts against the calls
    it delayed. *)

val growing_backlog : slack:float -> float array -> bool
(** [growing_backlog ~slack latencies], latencies in due order: the
    median of the last quarter exceeds twice the median of the first
    quarter plus [slack] (same unit as the latencies). A server that keeps
    up shows the same latencies early and late in a step; one that falls
    behind makes every call wait for the whole queue before it. Fewer than
    eight samples never count as a backlog. *)
