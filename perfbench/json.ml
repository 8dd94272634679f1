(* Minimal JSON values for the result and diagnostics lines. *)

type t =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * t) list
  | Arr of t list

(* %.17g keeps every digit of a measured value. *)
let rec to_string = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.1f" f
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> "\"" ^ Perfbench.Spans.escape s ^ "\""
  | Bool b -> string_of_bool b
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> to_string (Str k) ^ ": " ^ to_string v) kvs)
      ^ "}"
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
