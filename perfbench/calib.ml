(* Reference-kernel calibration.

   The host's speed drifts in phases (shared vCPUs and caches, frequency
   changes), so a raw wall-clock median moves between runs of the same
   code. Every timing the benchmark gates is therefore rescaled by a fixed
   reference kernel timed immediately before and after it:

     calibrated = raw * r_nominal / r_local,
     r_local    = the faster of the reference timings around the sample.

   The reference does a little of what the workloads do: a dependent
   multiply-add chain in L1 (core speed), a dependent sum streaming a 1 MiB
   array from L2, a triad over three 4 MiB arrays (shared-cache bandwidth,
   which neighbours on the host contend for), and hash-table lookups on
   freshly allocated string keys (the allocation- and pointer-bound work of
   the interpreter and the decode path, which on the host the benchmark
   was defined on has phases of its own). Its arrays live outside the
   OCaml heap. One reference timing is the fastest of three
   back-to-back runs. It must never change: a new kernel, a new repeat
   count or a new [r_nominal_ms] would shift every calibrated number. *)

open Bigarray

let buffer n f =
  let a = Array1.create float64 c_layout n in
  for i = 0 to n - 1 do
    a.{i} <- f i
  done;
  a

let l1 = buffer 2048 (fun i -> 1e-3 *. float_of_int (i land 7))
let l2 = buffer (128 * 1024) (fun i -> float_of_int (i land 255))
let l3_a = buffer (512 * 1024) (fun i -> float_of_int (i land 255))
let l3_b = buffer (512 * 1024) (fun i -> float_of_int (i land 127))
let l3_c = buffer (512 * 1024) (fun _ -> 0.0)

let table =
  let t = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace t (string_of_int i) (float_of_int i)
  done;
  t

(* ~4 ms on the host the nominal was taken on. *)
let reference () =
  let acc = ref 1.0 in
  for _ = 1 to 150 do
    for i = 0 to Array1.dim l1 - 1 do
      acc := (!acc *. 0.999_999) +. Array1.unsafe_get l1 i
    done
  done;
  let sum = ref 0.0 in
  for _ = 1 to 3 do
    for i = 0 to Array1.dim l2 - 1 do
      sum := !sum +. Array1.unsafe_get l2 i
    done
  done;
  for i = 0 to Array1.dim l3_a - 1 do
    Array1.unsafe_set l3_c i
      (Array1.unsafe_get l3_a i +. (1.5 *. Array1.unsafe_get l3_b i))
  done;
  for i = 0 to 3999 do
    sum := !sum +. Hashtbl.find table (string_of_int (i land 4095))
  done;
  !acc +. !sum +. l3_c.{0}

(* Committed nominal reference time: calibrated numbers stay in ms/s, read
   as "what the sample would take when the reference takes this long". *)
let r_nominal_ms = 4.0

let now = Unix.gettimeofday

(* One reference timing, ms: the fastest of three runs. *)
let time_reference () =
  let once () =
    let t0 = now () in
    ignore (Sys.opaque_identity (reference ()));
    (now () -. t0) *. 1e3
  in
  List.fold_left Float.min infinity (List.init 3 (fun _ -> once ()))

(* The faster side, not the mean: a phase that covers the sample slows
   both sides, while a burst of contention on one side (tens of ms, seen
   on the host the benchmark was defined on) would otherwise rescale a
   sample it did not touch. *)
let r_local ~before ~after = Float.min before after

(* [calibrate ~raw ~r_local] rescales a raw time (any unit) taken while
   the reference ran in [r_local] ms. *)
let calibrate ~raw ~r_local = raw *. r_nominal_ms /. r_local

type sample = { raw_ms : float; r_before : float; r_after : float; cal_ms : float }

(* A sampler chains reference timings between consecutive samples: the
   timing after one sample is the timing before the next. [refs] keeps
   every reference timing taken, newest first. *)
type t = { mutable last : float; mutable refs : float list }

let create () =
  let r = time_reference () in
  { last = r; refs = [ r ] }

(* Take a fresh reference timing (after unmeasured work, so the next
   sample is bracketed by a current one). *)
let refresh t =
  let r = time_reference () in
  t.last <- r;
  t.refs <- r :: t.refs

let measure t f =
  let before = t.last in
  let t0 = now () in
  let v = f () in
  let raw_ms = (now () -. t0) *. 1e3 in
  refresh t;
  let after = t.last in
  let cal_ms = calibrate ~raw:raw_ms ~r_local:(r_local ~before ~after) in
  (v, { raw_ms; r_before = before; r_after = after; cal_ms })

(* A sample whose two reference timings differ by more than a tenth
   straddles a change of the host's speed: neither timing describes the
   whole sample. *)
let straddles s = Float.max s.r_before s.r_after > 1.1 *. Float.min s.r_before s.r_after

let refs t = List.rev t.refs
