type potential =
  | Hinge of { weight : float; expr : Linexpr.t; squared : bool }
  | Linear of { weight : float; expr : Linexpr.t }

type constr =
  | Leq of Linexpr.t
  | Eq of Linexpr.t

type t = {
  num_vars : int;
  mutable potentials : potential list;  (* reversed *)
  mutable constraints : constr list;  (* reversed *)
  names : string array;
}

let create ~num_vars =
  {
    num_vars;
    potentials = [];
    constraints = [];
    names = Array.init num_vars (Printf.sprintf "x%d");
  }

let num_vars t = t.num_vars

let check_expr ~fn t expr =
  List.iter
    (fun (i, c) ->
      if i < 0 || i >= t.num_vars then
        invalid_arg (Printf.sprintf "Hlmrf: variable index %d out of range" i);
      if not (Float.is_finite c) then
        invalid_arg (Printf.sprintf "Hlmrf.%s: non-finite coefficient %h" fn c))
    expr.Linexpr.coeffs;
  if not (Float.is_finite expr.Linexpr.constant) then
    invalid_arg (Printf.sprintf "Hlmrf.%s: non-finite constant %h" fn expr.Linexpr.constant)

let add_potential t p =
  let weight, expr =
    match p with Hinge { weight; expr; _ } | Linear { weight; expr } -> (weight, expr)
  in
  if not (Float.is_finite weight) then
    invalid_arg (Printf.sprintf "Hlmrf.add_potential: non-finite weight %h" weight);
  (match p with
  | Hinge _ when weight < 0. -> invalid_arg "Hlmrf.add_potential: negative hinge weight"
  | Hinge _ | Linear _ -> ());
  check_expr ~fn:"add_potential" t expr;
  t.potentials <- p :: t.potentials

let add_constraint t c =
  (match c with Leq e | Eq e -> check_expr ~fn:"add_constraint" t e);
  t.constraints <- c :: t.constraints

let potentials t = List.rev t.potentials

let constraints t = List.rev t.constraints

let num_potentials t = List.length t.potentials

let num_constraints t = List.length t.constraints

let energy t x =
  List.fold_left
    (fun acc p ->
      match p with
      | Hinge { weight; expr; squared } ->
        let v = Float.max 0. (Linexpr.eval expr x) in
        acc +. (weight *. if squared then v *. v else v)
      | Linear { weight; expr } -> acc +. (weight *. Linexpr.eval expr x))
    0. t.potentials

let feasible ?(tol = 1e-6) t x =
  let box_ok =
    Array.for_all (fun v -> v >= -.tol && v <= 1. +. tol) x
  in
  box_ok
  && List.for_all
       (fun c ->
         match c with
         | Leq e -> Linexpr.eval e x <= tol
         | Eq e -> Float.abs (Linexpr.eval e x) <= tol)
       t.constraints

let var_name t i = t.names.(i)

let set_var_name t i name = t.names.(i) <- name
