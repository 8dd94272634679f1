(* Comparing first is bitwise [Float.max] whenever the operands are
   ordered and unequal: the larger one is returned, and its sign bit
   cannot matter because the smaller one is not -0.0 beside a +0.0.
   Only equal operands (the +/-0.0 pair) and NaNs reach [Float.max],
   whose sign-bit test is a C call. *)
let[@inline] max a b = if b > a then b else if a > b then a else Float.max a b

let fold init a ~off ~len =
  let m = ref init in
  for i = off to off + len - 1 do
    m := max !m (Array.unsafe_get a i)
  done;
  !m

let relu a ~off ~len =
  for i = off to off + len - 1 do
    Array.unsafe_set a i (max 0.0 (Array.unsafe_get a i))
  done
