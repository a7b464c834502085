(** In-memory spans recorded by the benchmark around its calls into the
    program. A recorder is single-threaded: parallel work gives each task
    its own recorder and merges the spans afterwards. Nothing is written
    until {!write_jsonl} is called at the end of a run. *)

type span = {
  id : int;  (** unique within its recorder *)
  parent : int option;  (** the enclosing span of the same recorder *)
  req : int;  (** the request (example, point, call) the span serves *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type t

val create : req:int -> unit -> t
(** A recorder whose spans all carry request id [req]. *)

val record : t -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a span named [name], nested under the innermost
    open span of this recorder. The span is kept even when the thunk
    raises. *)

val add : t -> ?parent:int -> string -> start_ns:int64 -> stop_ns:int64 -> int
(** Records an already-closed span from timestamps taken elsewhere (e.g.
    a reply read on another thread); returns its id for use as a
    [parent]. *)

val opt : t option -> string -> (unit -> 'a) -> 'a
(** [record] when tracing, a plain call otherwise. *)

val spans : t -> span list
(** Closed spans, in start order. *)

type index
(** Spans with their children's durations summed, for self times. *)

val index : span list -> index

val per_req_ms : ?self:bool -> index -> string -> float array
(** Per request that has at least one span of that name, the summed self
    time of those spans in ms, in request order. A span's self time is its
    duration minus the part of its interval its direct children cover;
    [~self:false] sums full durations instead. *)

val durations_ms : span list -> string -> float array
(** The full duration of every span with that name, in ms, in start
    order. *)

val top_level_union_ns : span list -> int64
(** Wall time covered by at least one top-level span (overlaps across
    recorders counted once). *)

val write_jsonl : string -> span list -> unit
(** One JSON object per span, to an existing directory. *)
