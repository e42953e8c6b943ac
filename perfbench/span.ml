(* In-memory spans for the traced run.  Every span wraps one public call
   the benchmark makes into the library; spans nest through [with_span],
   are kept in memory while the run lasts and are written out once, when
   it ends. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  run : string;  (** shared by every span of one benchmark run *)
  start : float;
  stop : float;
}

type t = {
  run_id : string;
  clock : unit -> float;
  mutable next : int;
  mutable open_ : int list;  (** innermost first *)
  mutable closed : span list;  (** most recent first *)
}

let create ?(clock = Unix.gettimeofday) run_id =
  { run_id; clock; next = 0; open_ = []; closed = [] }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> Some p | [] -> None in
  t.open_ <- id :: t.open_;
  let start = t.clock () in
  let close () =
    t.open_ <- List.tl t.open_;
    t.closed <- { id; name; parent; run = t.run_id; start; stop = t.clock () } :: t.closed
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let spans t = List.rev t.closed
let last t = List.hd t.closed
let duration s = s.stop -. s.start

(* Self time: the span's duration minus the part of it its direct
   children cover (the union of their intervals, clipped to the span). *)
let self_time t s =
  let children =
    List.filter_map
      (fun c ->
        if c.parent = Some s.id then Some (Float.max c.start s.start, Float.min c.stop s.stop)
        else None)
      (spans t)
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (covered, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (covered +. (b -. a), b) else (covered, reach))
      (0.0, s.start) children
  in
  duration s -. covered

let find t name = List.find_opt (fun s -> s.name = name) (spans t)

let to_json t s =
  Printf.sprintf
    "{\"run\": %S, \"id\": %d, \"name\": %S, \"parent\": %s, \"start\": %.6f, \"end\": %.6f, \
     \"self_s\": %.6f}"
    s.run s.id s.name
    (match s.parent with Some p -> string_of_int p | None -> "null")
    s.start s.stop (self_time t s)

let write t path =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (to_json t s ^ "\n")) (spans t);
  close_out oc
