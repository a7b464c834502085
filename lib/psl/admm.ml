type options = {
  rho : float;
  max_iter : int;
  eps_abs : float;
  eps_rel : float;
}

let default_options = { rho = 1.0; max_iter = 10_000; eps_abs = 1e-5; eps_rel = 1e-4 }

type state = {
  consensus : float array;
  duals : float array array;
}

type outcome = {
  solution : float array;
  iterations : int;
  converged : bool;
  energy : float;
  state : state;
}

(* The prox operation a factor performs on its local copy. *)
type kind =
  | Linear
  | Hinge
  | Hinge2  (* squared hinge *)
  | Leq
  | Eq

(* The retention filter: the potentials and hard constraints that take part
   in the solve, in solver order — potentials first, then constraints, each
   in insertion order, skipping empty and zero-weight entries. The layout,
   and through it [factor_views] and the rows of [state.duals], is built
   from this list alone. *)
let retained model =
  let of_potential = function
    | Hlmrf.Hinge { weight; expr; squared } ->
      if expr.Linexpr.coeffs = [] || weight = 0. then None
      else Some ((if squared then Hinge2 else Hinge), weight, expr)
    | Hlmrf.Linear { weight; expr } ->
      if expr.Linexpr.coeffs = [] || weight = 0. then None else Some (Linear, weight, expr)
  in
  let of_constraint = function
    | Hlmrf.Leq e -> if e.Linexpr.coeffs = [] then None else Some (Leq, 0., e)
    | Hlmrf.Eq e -> if e.Linexpr.coeffs = [] then None else Some (Eq, 0., e)
  in
  List.filter_map of_potential (Hlmrf.potentials model)
  @ List.filter_map of_constraint (Hlmrf.constraints model)

(* The retained factors, flattened CSR-style: factor [f] owns the copies
   [off.(f) .. off.(f+1) - 1], and every per-copy array is indexed by copy. *)
type layout = {
  off : int array;  (* length [num_factors + 1] *)
  kind : kind array;
  weight : float array;
  constant : float array;
  norm2 : float array;  (* ‖coeffs‖², summed in coefficient order *)
  vars : int array;  (* per copy: the global variable index *)
  coeffs : float array;  (* per copy: the coefficient *)
}

let num_factors l = Array.length l.kind

let layout model =
  let fs = Array.of_list (retained model) in
  let nf = Array.length fs in
  let off = Array.make (nf + 1) 0 in
  Array.iteri
    (fun f (_, _, e) -> off.(f + 1) <- off.(f) + List.length e.Linexpr.coeffs)
    fs;
  let vars = Array.make off.(nf) 0 and coeffs = Array.make off.(nf) 0. in
  Array.iteri
    (fun f (_, _, e) ->
      List.iteri
        (fun k (i, c) ->
          vars.(off.(f) + k) <- i;
          coeffs.(off.(f) + k) <- c)
        e.Linexpr.coeffs)
    fs;
  {
    off;
    kind = Array.map (fun (k, _, _) -> k) fs;
    weight = Array.map (fun (_, w, _) -> w) fs;
    constant = Array.map (fun (_, _, e) -> e.Linexpr.constant) fs;
    norm2 = Array.map (fun (_, _, e) -> Linexpr.norm2 e) fs;
    vars;
    coeffs;
  }

type factor_view = {
  f_kind : string;
  f_vars : int array;
  f_coeffs : float array;
  f_constant : float;
}

let factor_views model =
  let l = layout model in
  List.init (num_factors l) (fun f ->
      let w = l.weight.(f) in
      let f_kind =
        match l.kind.(f) with
        | Linear -> Printf.sprintf "lin:%h" w
        | Hinge -> Printf.sprintf "hinge:%h" w
        | Hinge2 -> Printf.sprintf "hinge2:%h" w
        | Leq -> "leq"
        | Eq -> "eq"
      in
      let o = l.off.(f) and d = l.off.(f + 1) - l.off.(f) in
      {
        f_kind;
        f_vars = Array.sub l.vars o d;
        f_coeffs = Array.sub l.coeffs o d;
        f_constant = l.constant.(f);
      })

(* The kernels below are inlined into [solve]'s loop, so their float
   arguments and results stay unboxed and an iteration allocates nothing. *)

(* constant + Σ coeffs·src over factor [f]'s copies, in coefficient order *)
let[@inline] dot l f src =
  let acc = ref l.constant.(f) in
  for c = l.off.(f) to l.off.(f + 1) - 1 do
    acc := !acc +. (l.coeffs.(c) *. src.(c))
  done;
  !acc

(* x := v + t·coeffs over factor [f]'s copies *)
let[@inline] axpy l f x v t =
  for c = l.off.(f) to l.off.(f + 1) - 1 do
    x.(c) <- v.(c) +. (t *. l.coeffs.(c))
  done

(* the annotations matter: an unconstrained ['a array] copy boxes each float *)
let[@inline] copy l f (x : float array) (v : float array) =
  for c = l.off.(f) to l.off.(f + 1) - 1 do
    x.(c) <- v.(c)
  done

let[@inline] project_hyperplane l f x v =
  if l.norm2.(f) = 0. then copy l f x v else axpy l f x v (-.dot l f v /. l.norm2.(f))

(* Closed-form local prox: argmin_x φ(x) + ρ/2‖x − v‖². *)
let[@inline] local_solve l ~rho f x v =
  match l.kind.(f) with
  | Linear -> axpy l f x v (-.l.weight.(f) /. rho)
  | Hinge ->
    if dot l f v <= 0. then copy l f x v
    else begin
      axpy l f x v (-.l.weight.(f) /. rho);
      if dot l f x < 0. then project_hyperplane l f x v
    end
  | Hinge2 ->
    let margin = dot l f v in
    if margin <= 0. then copy l f x v
    else
      let w = l.weight.(f) in
      axpy l f x v (-.(2. *. w *. margin) /. (rho +. (2. *. w *. l.norm2.(f))))
  | Leq -> if dot l f v <= 0. then copy l f x v else project_hyperplane l f x v
  | Eq -> project_hyperplane l f x v

let[@inline] clip01 v = Float.max 0. (Float.min 1. v)

let admm_iterations_counter = Telemetry.Counter.make "admm.iterations"

let solve ?(options = default_options) ?warm model =
  let n = Hlmrf.num_vars model in
  let l = layout model in
  let nf = num_factors l in
  let copies = l.off.(nf) in
  let vars = l.vars in
  let z = Array.make n 0. in
  let x = Array.make copies 0. and y = Array.make copies 0. in
  (* Warm start: seed the consensus vector and the per-factor scaled duals
     from a previous run. Shapes that do not line up fall back to the cold
     zeros — [warm = None] leaves every buffer exactly as the cold path
     allocates it. *)
  (match warm with
  | None -> ()
  | Some w ->
    if Array.length w.consensus = n then Array.blit w.consensus 0 z 0 n;
    if Array.length w.duals = nf then
      for f = 0 to nf - 1 do
        let src = w.duals.(f) and d = l.off.(f + 1) - l.off.(f) in
        if Array.length src = d then Array.blit src 0 y l.off.(f) d
      done);
  let counts = Array.make n 0 in
  Array.iter (fun i -> counts.(i) <- counts.(i) + 1) vars;
  let rho = options.rho in
  let sqn = sqrt (float_of_int (max 1 copies)) in
  let v = Array.make copies 0. in
  let sums = Array.make n 0. in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < options.max_iter do
    incr iterations;
    (* local steps, each factor's copies added to the consensus sums as soon
       as they are solved: every sum still runs in factor, then copy, order *)
    Array.fill sums 0 n 0.;
    for f = 0 to nf - 1 do
      for c = l.off.(f) to l.off.(f + 1) - 1 do
        v.(c) <- z.(vars.(c)) -. (y.(c) /. rho)
      done;
      local_solve l ~rho f x v;
      for c = l.off.(f) to l.off.(f + 1) - 1 do
        let i = vars.(c) in
        sums.(i) <- sums.(i) +. x.(c) +. (y.(c) /. rho)
      done
    done;
    (* consensus step *)
    let dual_sq = ref 0. in
    for i = 0 to n - 1 do
      if counts.(i) > 0 then begin
        let znew = clip01 (sums.(i) /. float_of_int counts.(i)) in
        let dz = znew -. z.(i) in
        dual_sq := !dual_sq +. (float_of_int counts.(i) *. dz *. dz);
        z.(i) <- znew
      end
    done;
    (* dual step and primal residual *)
    let primal_sq = ref 0. in
    let x_sq = ref 0. and z_sq = ref 0. and y_sq = ref 0. in
    for c = 0 to copies - 1 do
      let i = vars.(c) in
      let r = x.(c) -. z.(i) in
      y.(c) <- y.(c) +. (rho *. r);
      primal_sq := !primal_sq +. (r *. r);
      x_sq := !x_sq +. (x.(c) *. x.(c));
      z_sq := !z_sq +. (z.(i) *. z.(i));
      y_sq := !y_sq +. (y.(c) *. y.(c))
    done;
    let eps_pri =
      (sqn *. options.eps_abs)
      +. (options.eps_rel *. Float.max (sqrt !x_sq) (sqrt !z_sq))
    in
    let eps_dual = (sqn *. options.eps_abs) +. (options.eps_rel *. sqrt !y_sq) in
    if sqrt !primal_sq <= eps_pri && rho *. sqrt !dual_sq <= eps_dual then
      converged := true
  done;
  Telemetry.Counter.add admm_iterations_counter !iterations;
  let state =
    {
      consensus = Array.copy z;
      duals = Array.init nf (fun f -> Array.sub y l.off.(f) (l.off.(f + 1) - l.off.(f)));
    }
  in
  {
    solution = z;
    iterations = !iterations;
    converged = !converged;
    energy = Hlmrf.energy model z;
    state;
  }
