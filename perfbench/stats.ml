(* Order statistics for the reported timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest value with
   at least [q]% of the samples at or below it. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile (sorted xs) 50.0

(* Samples strictly after the nearest-rank position of [q]. *)
let beyond ~n q = n - int_of_float (Float.ceil (q /. 100.0 *. float_of_int n))

(* The tail percentile to report for [n] samples: the highest of the
   ladder with at least ten samples beyond it, [None] if even the median
   has fewer. *)
let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail_percentile n = List.find_opt (fun q -> beyond ~n q >= 10) ladder
