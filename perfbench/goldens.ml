(* Bit-identity fixed points: at a workload's default seed, the problem
   digest and CMD selection of each example (select-large) or grid point
   (sweep) must equal the values recorded in perfbench/goldens.json. *)

module J = Util.Json

let file = "perfbench/goldens.json"

type t = (string * string) array option
(** [None]: not the default seed, nothing to compare. *)

let load workload ~seed : t =
  if seed <> Report.default_seed workload then None
  else
    let entries =
      match Option.bind (J.member workload (Report.load file)) J.to_list with
      | Some l -> l
      | None -> []
    in
    Some
      (Array.of_list
         (List.map
            (fun e ->
              match
                ( Option.bind (J.member "digest" e) J.to_str,
                  Option.bind (J.member "selection" e) J.to_str )
              with
              | Some d, Some s -> (d, s)
              | _ -> failwith (file ^ ": malformed entry"))
            entries))

let matches (t : t) k ((digest, selection) as got) =
  match t with
  | None -> true
  | Some g when k < Array.length g -> g.(k) = got
  | Some _ ->
    Report.log "no golden for entry %d: {\"digest\": %S, \"selection\": %S}" k digest
      selection;
    false
