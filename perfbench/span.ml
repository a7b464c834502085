type span = {
  id : int;
  parent : int option;
  req : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  request : int;
  mutable next : int;
  mutable stack : int list;
  mutable closed : span list;
}

let create ~req () = { request = req; next = 0; stack = []; closed = [] }

let record t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let start_ns = Util.Timer.now_ns () in
  let finish () =
    let stop_ns = Util.Timer.now_ns () in
    t.stack <- List.tl t.stack;
    t.closed <- { id; parent; req = t.request; name; start_ns; stop_ns } :: t.closed
  in
  Fun.protect ~finally:finish f

let add t ?parent name ~start_ns ~stop_ns =
  let id = t.next in
  t.next <- id + 1;
  t.closed <- { id; parent; req = t.request; name; start_ns; stop_ns } :: t.closed;
  id

let opt t name f = match t with None -> f () | Some t -> record t name f

let spans t =
  List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) t.closed

let dur_ns (s : span) = Int64.sub s.stop_ns s.start_ns

type index = { all : span list; children : (int * int, int64) Hashtbl.t }

let index all =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | None -> ()
      | Some p ->
        let k = (s.req, p) in
        let sum = Option.value (Hashtbl.find_opt children k) ~default:0L in
        Hashtbl.replace children k (Int64.add sum (dur_ns s)))
    all;
  { all; children }

let self_ns ix (s : span) =
  let covered =
    Option.value (Hashtbl.find_opt ix.children (s.req, s.id)) ~default:0L
  in
  Int64.sub (dur_ns s) covered

let per_req_ms ?(self = true) ix name =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name = name then
        let sum = Option.value (Hashtbl.find_opt sums s.req) ~default:0. in
        Hashtbl.replace sums s.req (sum +. (Int64.to_float (if self then self_ns ix s else dur_ns s) /. 1e6)))
    ix.all;
  Hashtbl.fold (fun req v acc -> (req, v) :: acc) sums []
  |> List.sort compare |> List.map snd |> Array.of_list

let durations_ms all name =
  Array.of_list
    (List.filter_map
       (fun s -> if s.name = name then Some (Int64.to_float (dur_ns s) /. 1e6) else None)
       all)

let top_level_union_ns all =
  let tops =
    List.filter (fun s -> s.parent = None) all
    |> List.sort (fun a b -> Int64.compare a.start_ns b.start_ns)
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) s ->
        match cur with
        | None -> (acc, Some (s.start_ns, s.stop_ns))
        | Some (a, b) when s.start_ns <= b -> (acc, Some (a, max b s.stop_ns))
        | Some (a, b) -> (Int64.add acc (Int64.sub b a), Some (s.start_ns, s.stop_ns)))
      (0L, None) tops
  in
  match last with None -> covered | Some (a, b) -> Int64.add covered (Int64.sub b a)

let write_jsonl path all =
  let oc = open_out path in
  List.iter
    (fun s ->
      let num i = Util.Json.Num (float_of_int i) in
      output_string oc
        (Util.Json.to_string
           (Util.Json.Obj
              [
                ("req", num s.req);
                ("id", num s.id);
                ("parent", match s.parent with Some p -> num p | None -> Util.Json.Null);
                ("name", Util.Json.Str s.name);
                ("start_ns", Util.Json.Num (Int64.to_float s.start_ns));
                ("stop_ns", Util.Json.Num (Int64.to_float s.stop_ns));
              ]));
      output_char oc '\n')
    all;
  close_out oc
