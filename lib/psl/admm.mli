(** MAP inference for HL-MRFs by consensus ADMM.

    This is the standard PSL inference algorithm (Boyd-style consensus ADMM
    with analytic prox steps per potential, as in Bach et al., "Hinge-Loss
    Markov Random Fields and Probabilistic Soft Logic", JMLR 2017): every
    potential and hard constraint keeps a local copy of the variables it
    touches; local copies are updated by a closed-form proximal step, the
    consensus variables by averaging and clipping to [0,1], and scaled duals
    by the consensus gap. Convergence follows Boyd's combined
    absolute/relative criterion on the primal and dual residuals.

    {b Layout and cost.} A solve first lays the retained factors out flat,
    CSR-style: per factor its offset, prox kind, weight, constant and
    [‖a‖²]; per local copy (one per factor and variable it touches) the
    variable index, the coefficient, the local value [x] and the scaled
    dual [y], each an unboxed [float array] or [int array] indexed by copy.
    An iteration is a few plain loops over the copies and the variables:
    O(copies + variables) time and no allocation. Every floating-point sum
    runs in factor order, then copy order — the order of the per-factor
    solver this layout replaced, whose outcomes it reproduces bit for bit
    (fuzz family [admm-reference]). *)

type options = {
  rho : float;  (** ADMM step size; default 1.0 *)
  max_iter : int;  (** default 10_000 *)
  eps_abs : float;  (** absolute tolerance; default 1e-5 *)
  eps_rel : float;  (** relative tolerance; default 1e-4 *)
}

val default_options : options

type state = {
  consensus : float array;  (** the consensus vector [z] at exit *)
  duals : float array array;
      (** scaled dual [y] per retained factor, in factor order (potentials
          first, then hard constraints, each in model insertion order,
          skipping empty/zero-weight entries) *)
}
(** A snapshot of the solver's internal state, suitable for warm-starting a
    later run on the same model — or, after {!Grounding.transport}, on a
    structurally similar one. *)

type outcome = {
  solution : float array;  (** consensus assignment, inside the box *)
  iterations : int;
  converged : bool;  (** [false] iff stopped by [max_iter] *)
  energy : float;  (** {!Hlmrf.energy} of [solution] *)
  state : state;  (** final state, for warm-starting a neighbouring solve *)
}

type factor_view = {
  f_kind : string;  (** prox kind + weight, canonically rendered *)
  f_vars : int array;
  f_coeffs : float array;
  f_constant : float;
}
(** The shape of one retained factor, as the solver will build it. *)

val factor_views : Hlmrf.t -> factor_view list
(** The retained factors of a model, in solver order, read off the same
    flat layout {!solve} builds — so the filter, the order and the row
    order of {!state.duals} are one. This is what {!Grounding.delta}
    matches on; keeping it here means the retention filter cannot drift
    from the solver's. *)

val solve : ?options : options -> ?warm : state -> Hlmrf.t -> outcome
(** Minimises the HL-MRF energy over the box subject to its hard
    constraints. Deterministic. [warm] seeds the consensus vector and the
    per-factor duals from a previous state; components whose shapes do not
    match the model fall back to the cold zeros, and omitting [warm] is
    bit-identical to the historical cold start. *)
