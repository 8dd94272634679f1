(* In-memory span recorder for the traced run.

   A span is one call into a layer, recorded from outside the program:
   name, wall start/stop, the span that was open when it started, and the
   step or request it belongs to. Self time is the span's duration minus
   its direct children's (calls are serial, so children never overlap).
   Spans are written once, at the end, as Chrome trace events in the
   shape [Gpu.Trace] emits for simulated runs, so a measured trace opens
   beside a simulated one. *)

type span = {
  id : int;
  name : string;
  cat : string;
  parent : int option;
  tag : string;  (** step or request id *)
  start : float;  (** s, wall clock *)
  stop : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next : int;
  origin : float;
}

let create () = { spans = []; stack = []; next = 0; origin = Unix.gettimeofday () }

let with_span t ?(cat = "layer") ?(tag = "") name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; cat; parent; tag; start; stop } :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* Self time of every span, s: its duration minus its direct children's. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace child p
            (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child p))
      | None -> ())
    t.spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    (spans t)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_chrome_json t =
  let event (s, self) =
    Printf.sprintf
      {|{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1,"args":{"process":"measured-cpu","id":%d,"parent":%s,"tag":"%s","self_us":%.3f}}|}
      (escape s.name) (escape s.cat)
      ((s.start -. t.origin) *. 1e6)
      (duration s *. 1e6) s.id
      (match s.parent with Some p -> string_of_int p | None -> "null")
      (escape s.tag) (self *. 1e6)
  in
  "[\n" ^ String.concat ",\n" (List.map event (self_times t)) ^ "\n]\n"
