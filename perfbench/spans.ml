(* Host-time spans for the traced run.

   A span is recorded around each call into a layer that the benchmark
   makes: the workload, each cell, each probe batch. Spans are kept in
   memory and written out once, when the run ends. Spans of one cell
   share the cell's id; counts the program returns for that cell are
   attached to its span. With recording off the same calls only time
   their thunk, so the untraced run pays for one clock read per call. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  parent : int;  (* id of the enclosing span, -1 at the top *)
  cell : int;  (* id shared by the spans of one cell, -1 elsewhere *)
  start_ns : float;
  mutable stop_ns : float;
  mutable counts : (string * float) list;
}

type t = {
  on : bool;
  mutable spans : span list;  (* newest first *)
  mutable open_ : span list;  (* innermost first *)
  mutable next : int;
}

let create ~on = { on; spans = []; open_ = []; next = 0 }

(* [timed t name f] runs [f], records a span when [t] is on, and returns
   [f]'s result with the elapsed host nanoseconds. *)
let timed t ?(cell = -1) name f =
  let parent, cell =
    match t.open_ with
    | p :: _ -> (p.id, if cell < 0 then p.cell else cell)
    | [] -> (-1, cell)
  in
  let s =
    { id = t.next; name; parent; cell; start_ns = now_ns (); stop_ns = 0.;
      counts = [] }
  in
  if t.on then begin
    t.next <- t.next + 1;
    t.open_ <- s :: t.open_
  end;
  let close () =
    s.stop_ns <- now_ns ();
    if t.on then begin
      t.open_ <- List.tl t.open_;
      t.spans <- s :: t.spans
    end
  in
  match f s with
  | r ->
      close ();
      (r, s.stop_ns -. s.start_ns)
  | exception e ->
      close ();
      raise e

let set_counts s counts = s.counts <- counts

let duration s = s.stop_ns -. s.start_ns

let spans t = List.rev t.spans

(* Self time per span name: a span's duration minus the part of it its
   child spans cover, summed over all spans of that name. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (c +. duration s))
    t.spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      let n, tot =
        Option.value ~default:(0, 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. self))
    t.spans;
  Hashtbl.fold (fun name (n, ns) acc -> (name, n, ns) :: acc) by_name []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON numbers: finite floats print with all their digits. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let to_json t =
  let span_json s =
    Printf.sprintf
      "{\"id\":%d,\"name\":%s,\"parent\":%d,\"cell\":%d,\"start_ns\":%s,\"end_ns\":%s,\"counts\":{%s}}"
      s.id (json_string s.name) s.parent s.cell (json_float s.start_ns)
      (json_float s.stop_ns)
      (String.concat ","
         (List.map
            (fun (k, v) -> json_string k ^ ":" ^ json_float v)
            s.counts))
  in
  "[\n" ^ String.concat ",\n" (List.map span_json (spans t)) ^ "\n]\n"
