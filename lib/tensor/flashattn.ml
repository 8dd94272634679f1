(* Streaming tiled attention (see flashattn.mli for the contract).

   Operation-order discipline: the naive oracle is the encoder's
   qkt -> softmax(+causal/pad mask) -> dropout -> gamma chain, whose fast
   kernels in turn replicate the naive constructors bitwise. Every path
   here follows the same floating-point recipe —

     score   = prescale *. (ascending-p dot from 0.0)  [+. 0.0 under a mask]
     max     = Float.max fold, ascending k             (Fmax.fold)
     exp     = exp (score +. (-1.0 *. max))
     sum     = ascending-k fold from 0.0
     alpha   = (exp *. (1.0 /. sum)) [*. maskv]        (Prng.fill_mask)
     context = ascending-k fold of (v *. alpha) from 0.0

   — so the single-KV-tile ("exact") forward is bitwise equal to the
   oracle, and the multi-tile online path only reassociates the k sums.
   Masked-out positions are skipped rather than computed: they contribute
   exp(-inf + nm) = 0.0 to an ascending sum of non-negatives and leave a
   Float.max fold unchanged, so skipping preserves every bit.

   The dot products and the accumulations run in register-tiled
   micro-kernels over 4-row blocks. None changes the order of any single
   output's sum: [dot_4x2] (scores, d-alpha) keeps 8 independent
   ascending-feature dots in registers, [acc_4x2] (context, dQ) keeps 8
   outputs in registers across the whole key range, adding keys in
   ascending order, and [upd_4x2] (dK, dV) adds the block's rows to each
   panel row in ascending row order. Rows whose key range outruns the
   block's common prefix finish with the single-row kernels, continuing
   the same sums.
   The max fold is {!Fmax.fold}, bitwise [Float.max] without its C call,
   and every dropout mask row comes from {!Prng.fill_mask}: apart from
   [exp] itself, no element pays a C call, a closure or a boxed float. *)

type axes = {
  feat_qk : Axis.t;
  feat_v : Axis.t;
  heads : Axis.t;
  batch : Axis.t;
  q_seq : Axis.t;
  k_seq : Axis.t;
}

let paper_axes =
  { feat_qk = "p"; feat_v = "w"; heads = "h"; batch = "b"; q_seq = "j";
    k_seq = "k" }

type dropout = {
  p : float;
  seed : int64;
  key : string;
  dims : (Axis.t * int) list;
}

(* ------------------------------------------------------------------ *)
(* Tile defaults                                                       *)
(* ------------------------------------------------------------------ *)

let tiles =
  ref
    (match Substation_env.attn_tiles () with
    | Some t -> t
    | None -> (32, 128))

(* The ambient tuned binding (installed per-op by the compiled-plan
   executor) wins over the process-wide default; explicit ?q_tile/?kv_tile
   arguments win over both. *)
let default_tiles () =
  match Tuning.attn_tiles () with Some t -> t | None -> !tiles

let set_default_tiles ~q_tile ~kv_tile =
  if q_tile <= 0 || kv_tile <= 0 then
    invalid_arg "Flashattn.set_default_tiles: tiles must be positive";
  tiles := (q_tile, kv_tile)

(* ------------------------------------------------------------------ *)
(* Tile-visit counters                                                 *)
(* ------------------------------------------------------------------ *)

type counters = { tiles_visited : int; tiles_skipped : int }

let visited = Atomic.make 0
let skipped = Atomic.make 0

let counters () =
  { tiles_visited = Atomic.get visited; tiles_skipped = Atomic.get skipped }

let reset_counters () =
  Atomic.set visited 0;
  Atomic.set skipped 0

(* ------------------------------------------------------------------ *)
(* Shared geometry                                                     *)
(* ------------------------------------------------------------------ *)

type geom = {
  np : int;  (* feat_qk extent *)
  nw : int;  (* feat_v extent *)
  nh : int;
  nb : int;
  nj : int;
  nk : int;
  qd : float array;  (* data *)
  kd : float array;
  vd : float array;
  qs : int array;  (* strides for [feat_qk; heads; batch; q_seq] *)
  ks : int array;  (* strides for [feat_qk; heads; batch; k_seq] *)
  vs : int array;  (* strides for [feat_v; heads; batch; k_seq] *)
  masking : bool;  (* causal or ragged: unmasked scores get [+. 0.0] *)
  causal : bool;
  valid : int array option;
  prescale : float;
  (* dropout, pre-resolved: the keyed mask stream and the keep scale *)
  drop_p : float;  (* 0.0 = off *)
  drop_prng : Prng.t;
  drop_scale : float;
}

let extent t ax =
  let rec go = function
    | [] ->
        invalid_arg
          ("Flashattn: tensor is missing axis " ^ ax ^ " (layout "
          ^ String.concat "," (Dense.axes t)
          ^ ")")
    | (a, n) :: rest -> if Axis.equal a ax then n else go rest
  in
  go (Shape.to_list (Dense.shape t))

let check_drop_dims axes d ~nh ~nb ~nj ~nk =
  let expect =
    [ (axes.heads, nh); (axes.batch, nb); (axes.q_seq, nj); (axes.k_seq, nk) ]
  in
  let ok =
    List.length d.dims = 4
    && List.for_all2
         (fun (a, n) (a', n') -> Axis.equal a a' && n = n')
         d.dims expect
  in
  if not ok then
    invalid_arg
      "Flashattn: dropout dims must be (heads, batch, q_seq, k_seq) with \
       full extents"

let geom_of ?(axes = paper_axes) ?causal ?valid ?dropout ~prescale ~q ~k ~v ()
    =
  let np = extent q axes.feat_qk in
  let nh = extent q axes.heads in
  let nb = extent q axes.batch in
  let nj = extent q axes.q_seq in
  let nk = extent k axes.k_seq in
  let nw = extent v axes.feat_v in
  if extent k axes.feat_qk <> np || extent k axes.heads <> nh
     || extent k axes.batch <> nb then
    invalid_arg "Flashattn: k is not shaped (feat_qk, heads, batch, k_seq)";
  if extent v axes.k_seq <> nk || extent v axes.heads <> nh
     || extent v axes.batch <> nb then
    invalid_arg "Flashattn: v is not shaped (feat_v, heads, batch, k_seq)";
  (match valid with
  | Some a when Array.length a <> nb ->
      invalid_arg "Flashattn: valid must have one entry per batch slot"
  | _ -> ());
  let causal = Option.value causal ~default:false in
  (* p = 0 keeps every element at scale 1/(1-0) = 1: multiplying by 1.0
     is exact, so the kernel skips the mask stream entirely — bitwise
     what the naive chain computes through its all-ones mask. *)
  let dropout =
    match dropout with Some d when d.p > 0.0 -> Some d | _ -> None
  in
  (match dropout with
  | Some d -> check_drop_dims axes d ~nh ~nb ~nj ~nk
  | None -> ());
  {
    np;
    nw;
    nh;
    nb;
    nj;
    nk;
    qd = Dense.unsafe_data q;
    kd = Dense.unsafe_data k;
    vd = Dense.unsafe_data v;
    qs = Dense.strides_for q [ axes.feat_qk; axes.heads; axes.batch; axes.q_seq ];
    ks = Dense.strides_for k [ axes.feat_qk; axes.heads; axes.batch; axes.k_seq ];
    vs = Dense.strides_for v [ axes.feat_v; axes.heads; axes.batch; axes.k_seq ];
    masking = causal || valid <> None;
    causal;
    valid;
    prescale;
    drop_p = (match dropout with Some d -> d.p | None -> 0.0);
    drop_prng =
      (match dropout with
      | Some d -> Prng.of_key d.seed d.key
      | None -> Prng.create 0L);
    drop_scale =
      (match dropout with Some d -> 1.0 /. (1.0 -. d.p) | None -> 1.0);
  }

(* Mask elements for flat positions [first, first + len) of the
   (h, b, j, k) stream into [dst.(off) ..]: the values the sequential
   [Elementwise.dropout_mask] walk assigns there. *)
let fill_mask g ~first dst ~off ~len =
  Prng.fill_mask g.drop_prng ~p:g.drop_p ~scale:g.drop_scale ~first dst ~off
    ~len

(* Valid key range for row [jj] of slot [b]: [0, kmax). *)
let kmax_of g ~b ~jj =
  let m = match g.valid with Some a -> min g.nk a.(b) | None -> g.nk in
  if g.causal then min m (jj + 1) else m

(* Pack K/V columns [klo, khi) of (h, b) into contiguous [col][feat]
   panels. One tile's panels are the kernel's cache-resident working set.
   The [float array] annotations matter: a polymorphic copy boxes every
   element it moves. *)
let pack_panel (data : float array) (str : int array) ~h ~b ~klo ~khi ~nf
    (dst : float array) =
  let base = (h * str.(1)) + (b * str.(2)) in
  let sf = str.(0) and sk = str.(3) in
  for kk = 0 to khi - klo - 1 do
    let src = base + ((klo + kk) * sk) in
    let row = kk * nf in
    for f = 0 to nf - 1 do
      Array.unsafe_set dst (row + f) (Array.unsafe_get data (src + (f * sf)))
    done
  done

(* Threshold below which parallel dispatch costs more than the work. *)
let par_min_flop = 4096

(* ------------------------------------------------------------------ *)
(* Micro-kernels                                                       *)
(* ------------------------------------------------------------------ *)

(* Rows per register block. Scores, d-alphas, contexts and dQ rows of
   [row_block] consecutive Q rows are computed together against each
   packed K/V load. *)
let row_block = 4

(* A raw dot as the kernel stores it: a score gets the oracle's prescale
   and, under a mask, its [+. 0.0]; a d-alpha dot stays raw. *)
let[@inline] finish ~scores ~prescale ~masking a =
  if scores then
    let s = prescale *. a in
    if masking then s +. 0.0 else s
  else a

(* Row [roff..] of [row] dotted with columns [c0, c1) of [pan] (column c
   at [c * nf]) into [dst.(doff + c)]; each dot is the ascending-feature
   sum from 0.0. *)
let dot_1 g ~scores ~pan ~row ~roff ~nf ~c0 ~c1 ~dst ~doff =
  let prescale = g.prescale and masking = g.masking in
  for c = c0 to c1 - 1 do
    let k = c * nf in
    let a = ref 0.0 in
    for f = 0 to nf - 1 do
      a := !a +. (Array.unsafe_get pan (k + f) *. Array.unsafe_get row (roff + f))
    done;
    Array.unsafe_set dst (doff + c) (finish ~scores ~prescale ~masking !a)
  done

(* The 4 rows of [rows] (row r at [r * nf]) dotted with columns [c0, c1)
   of [pan] into [dst.(r * ds + c)]. Two columns per step: 6 loads feed 8
   multiply-adds whose sums stay in registers. An odd last column goes
   through [dot_1]. *)
let dot_4x2 g ~scores ~pan ~rows ~nf ~c0 ~c1 ~dst ~ds =
  let prescale = g.prescale and masking = g.masking in
  let r1 = nf and r2 = 2 * nf and r3 = 3 * nf in
  let c = ref c0 in
  while !c + 1 < c1 do
    let cv = !c in
    let k0 = cv * nf in
    let k1 = k0 + nf in
    let a00 = ref 0.0 and a01 = ref 0.0 and a10 = ref 0.0 and a11 = ref 0.0 in
    let a20 = ref 0.0 and a21 = ref 0.0 and a30 = ref 0.0 and a31 = ref 0.0 in
    for f = 0 to nf - 1 do
      let x0 = Array.unsafe_get pan (k0 + f)
      and x1 = Array.unsafe_get pan (k1 + f) in
      let q = Array.unsafe_get rows f in
      a00 := !a00 +. (x0 *. q);
      a01 := !a01 +. (x1 *. q);
      let q = Array.unsafe_get rows (r1 + f) in
      a10 := !a10 +. (x0 *. q);
      a11 := !a11 +. (x1 *. q);
      let q = Array.unsafe_get rows (r2 + f) in
      a20 := !a20 +. (x0 *. q);
      a21 := !a21 +. (x1 *. q);
      let q = Array.unsafe_get rows (r3 + f) in
      a30 := !a30 +. (x0 *. q);
      a31 := !a31 +. (x1 *. q)
    done;
    Array.unsafe_set dst cv (finish ~scores ~prescale ~masking !a00);
    Array.unsafe_set dst (cv + 1) (finish ~scores ~prescale ~masking !a01);
    Array.unsafe_set dst (ds + cv) (finish ~scores ~prescale ~masking !a10);
    Array.unsafe_set dst (ds + cv + 1) (finish ~scores ~prescale ~masking !a11);
    Array.unsafe_set dst ((2 * ds) + cv) (finish ~scores ~prescale ~masking !a20);
    Array.unsafe_set dst ((2 * ds) + cv + 1)
      (finish ~scores ~prescale ~masking !a21);
    Array.unsafe_set dst ((3 * ds) + cv) (finish ~scores ~prescale ~masking !a30);
    Array.unsafe_set dst ((3 * ds) + cv + 1)
      (finish ~scores ~prescale ~masking !a31);
    c := cv + 2
  done;
  if !c < c1 then
    for r = 0 to row_block - 1 do
      dot_1 g ~scores ~pan ~row:rows ~roff:(r * nf) ~nf ~c0:!c ~c1 ~dst
        ~doff:(r * ds)
    done

(* [dst.(doff + f) +=] the ascending-key sum over [k0, k1) of
   [pan.(kk * nf + f) *. wts.(woff + kk)], for every feature f. *)
let acc_1 ~pan ~nf ~wts ~woff ~k0 ~k1 ~dst ~doff =
  for kk = k0 to k1 - 1 do
    let w = Array.unsafe_get wts (woff + kk) in
    let prow = kk * nf in
    for f = 0 to nf - 1 do
      Array.unsafe_set dst (doff + f)
        (Array.unsafe_get dst (doff + f) +. (Array.unsafe_get pan (prow + f) *. w))
    done
  done

(* Output-stationary [acc_1] for 4 rows (weights of row r at [r * ws],
   outputs at [doff + r * ds]): two features per step hold 8 sums in
   registers across the whole key range, 6 loads per 8 multiply-adds and
   no stores until the range ends. An odd last feature runs per row. *)
let acc_4x2 ~pan ~nf ~wts ~ws ~k0 ~k1 ~dst ~doff ~ds =
  let w1 = ws and w2 = 2 * ws and w3 = 3 * ws in
  let d1 = doff + ds and d2 = doff + (2 * ds) and d3 = doff + (3 * ds) in
  let f = ref 0 in
  while !f + 1 < nf do
    let fv = !f in
    let o00 = ref (Array.unsafe_get dst (doff + fv))
    and o01 = ref (Array.unsafe_get dst (doff + fv + 1))
    and o10 = ref (Array.unsafe_get dst (d1 + fv))
    and o11 = ref (Array.unsafe_get dst (d1 + fv + 1))
    and o20 = ref (Array.unsafe_get dst (d2 + fv))
    and o21 = ref (Array.unsafe_get dst (d2 + fv + 1))
    and o30 = ref (Array.unsafe_get dst (d3 + fv))
    and o31 = ref (Array.unsafe_get dst (d3 + fv + 1)) in
    for kk = k0 to k1 - 1 do
      let v0 = Array.unsafe_get pan ((kk * nf) + fv)
      and v1 = Array.unsafe_get pan ((kk * nf) + fv + 1) in
      let w = Array.unsafe_get wts kk in
      o00 := !o00 +. (v0 *. w);
      o01 := !o01 +. (v1 *. w);
      let w = Array.unsafe_get wts (w1 + kk) in
      o10 := !o10 +. (v0 *. w);
      o11 := !o11 +. (v1 *. w);
      let w = Array.unsafe_get wts (w2 + kk) in
      o20 := !o20 +. (v0 *. w);
      o21 := !o21 +. (v1 *. w);
      let w = Array.unsafe_get wts (w3 + kk) in
      o30 := !o30 +. (v0 *. w);
      o31 := !o31 +. (v1 *. w)
    done;
    Array.unsafe_set dst (doff + fv) !o00;
    Array.unsafe_set dst (doff + fv + 1) !o01;
    Array.unsafe_set dst (d1 + fv) !o10;
    Array.unsafe_set dst (d1 + fv + 1) !o11;
    Array.unsafe_set dst (d2 + fv) !o20;
    Array.unsafe_set dst (d2 + fv + 1) !o21;
    Array.unsafe_set dst (d3 + fv) !o30;
    Array.unsafe_set dst (d3 + fv + 1) !o31;
    f := fv + 2
  done;
  if !f < nf then begin
    let fv = !f in
    for r = 0 to row_block - 1 do
      let o = ref (Array.unsafe_get dst (doff + (r * ds) + fv)) in
      for kk = k0 to k1 - 1 do
        o :=
          !o
          +. (Array.unsafe_get pan ((kk * nf) + fv)
             *. Array.unsafe_get wts ((r * ws) + kk))
      done;
      Array.unsafe_set dst (doff + (r * ds) + fv) !o
    done
  end

(* Rank-4 update of panel rows [k0, k1) (row kk at [kk * nf]): [dst]
   gains, in ascending row order r, [wts.(r * ws + kk) *. src.(r * nf + f)]
   for the 4 rows of [src]. Two panel rows per step share the 4 source
   loads. This is dK (from Q and d-beta) and dV (from d-out and alpha;
   IEEE products commute exactly, so the operand order inside a product
   is free). *)
let upd_4x2 ~src ~nf ~wts ~ws ~k0 ~k1 ~dst =
  let s1 = nf and s2 = 2 * nf and s3 = 3 * nf in
  let w1 = ws and w2 = 2 * ws and w3 = 3 * ws in
  let kk = ref k0 in
  while !kk < k1 do
    let k = !kk in
    if k + 1 < k1 then begin
      let a0 = Array.unsafe_get wts k and b0 = Array.unsafe_get wts (k + 1) in
      let a1 = Array.unsafe_get wts (w1 + k)
      and b1 = Array.unsafe_get wts (w1 + k + 1) in
      let a2 = Array.unsafe_get wts (w2 + k)
      and b2 = Array.unsafe_get wts (w2 + k + 1) in
      let a3 = Array.unsafe_get wts (w3 + k)
      and b3 = Array.unsafe_get wts (w3 + k + 1) in
      let da = k * nf in
      let db = da + nf in
      for f = 0 to nf - 1 do
        let x0 = Array.unsafe_get src f
        and x1 = Array.unsafe_get src (s1 + f)
        and x2 = Array.unsafe_get src (s2 + f)
        and x3 = Array.unsafe_get src (s3 + f) in
        Array.unsafe_set dst (da + f)
          (Array.unsafe_get dst (da + f)
          +. (x0 *. a0) +. (x1 *. a1) +. (x2 *. a2) +. (x3 *. a3));
        Array.unsafe_set dst (db + f)
          (Array.unsafe_get dst (db + f)
          +. (x0 *. b0) +. (x1 *. b1) +. (x2 *. b2) +. (x3 *. b3))
      done;
      kk := k + 2
    end
    else begin
      let a0 = Array.unsafe_get wts k and a1 = Array.unsafe_get wts (w1 + k) in
      let a2 = Array.unsafe_get wts (w2 + k) and a3 = Array.unsafe_get wts (w3 + k) in
      let da = k * nf in
      for f = 0 to nf - 1 do
        Array.unsafe_set dst (da + f)
          (Array.unsafe_get dst (da + f)
          +. (Array.unsafe_get src f *. a0)
          +. (Array.unsafe_get src (s1 + f) *. a1)
          +. (Array.unsafe_get src (s2 + f) *. a2)
          +. (Array.unsafe_get src (s3 + f) *. a3))
      done;
      kk := k + 1
    end
  done

(* Scores of a row block against panel columns [0, km.(r)) of [kp], into
   [dst] (row r at [r * ds]): the block's common prefix through
   [dot_4x2], each row's tail through [dot_1]. *)
let block_dots g ~scores ~pan ~rows ~nf ~km ~jn ~common ~dst ~ds =
  if common > 0 then dot_4x2 g ~scores ~pan ~rows ~nf ~c0:0 ~c1:common ~dst ~ds;
  for r = 0 to jn - 1 do
    dot_1 g ~scores ~pan ~row:rows ~roff:(r * nf) ~nf ~c0:common ~c1:km.(r)
      ~dst ~doff:(r * ds)
  done

(* [block_dots]'s counterpart for accumulations: outputs of row r at
   [doff + r * ds] gain keys [0, km.(r)) of [pan] weighted by [wts] (row r
   at [r * ws]). *)
let block_acc ~pan ~nf ~wts ~ws ~km ~jn ~common ~dst ~doff ~ds =
  if common > 0 then acc_4x2 ~pan ~nf ~wts ~ws ~k0:0 ~k1:common ~dst ~doff ~ds;
  for r = 0 to jn - 1 do
    acc_1 ~pan ~nf ~wts ~woff:(r * ws) ~k0:common ~k1:km.(r) ~dst
      ~doff:(doff + (r * ds))
  done

(* Gather Q-side rows [j0, j0 + jn) of (h, b) into a contiguous block
   (row r at [r * nf]) from data [d] with strides [str] for
   (feat, heads, batch, seq). *)
let load_rows (d : float array) (str : int array) ~h ~b ~j0 ~jn ~nf
    (dst : float array) =
  let sf = str.(0) in
  for r = 0 to jn - 1 do
    let base = (h * str.(1)) + (b * str.(2)) + ((j0 + r) * str.(3)) in
    for f = 0 to nf - 1 do
      Array.unsafe_set dst ((r * nf) + f) (Array.unsafe_get d (base + (f * sf)))
    done
  done

(* ------------------------------------------------------------------ *)
(* Forward                                                             *)
(* ------------------------------------------------------------------ *)

(* Exact path: the whole valid key range of each row in one tile, with
   per-element normalization before the V products — bitwise the naive
   chain. Handles one (h, b, q-tile) work item. *)
let fwd_exact_item g ~od ~lsed ~h ~b ~qlo ~qhi =
  let kmax_tile = kmax_of g ~b ~jj:(qhi - 1) in
  if kmax_tile = 0 then begin
    Atomic.incr skipped;
    for jj = qlo to qhi - 1 do
      match lsed with
      | Some l -> l.((((h * g.nb) + b) * g.nj) + jj) <- neg_infinity
      | None -> ()
    done
  end
  else begin
    Atomic.incr visited;
    Arena.with_scratch Arena.global (kmax_tile * g.np) (fun kp ->
    Arena.with_scratch Arena.global (kmax_tile * g.nw) (fun vp ->
    Arena.with_scratch Arena.global (row_block * kmax_tile) (fun sb ->
    Arena.with_scratch Arena.global kmax_tile (fun mb ->
    Arena.with_scratch Arena.global (row_block * g.np) (fun qb ->
    Arena.with_scratch Arena.global (row_block * g.nw) (fun ob ->
        pack_panel g.kd g.ks ~h ~b ~klo:0 ~khi:kmax_tile ~nf:g.np kp;
        pack_panel g.vd g.vs ~h ~b ~klo:0 ~khi:kmax_tile ~nf:g.nw vp;
        let np = g.np and nw = g.nw in
        let nkt = kmax_tile in
        let km = Array.make row_block 0 in
        let ostep = g.nh * g.nb * g.nj in
        let j0 = ref qlo in
        while !j0 < qhi do
          let j0v = !j0 in
          let jn = min row_block (qhi - j0v) in
          for r = 0 to jn - 1 do
            km.(r) <- kmax_of g ~b ~jj:(j0v + r)
          done;
          load_rows g.qd g.qs ~h ~b ~j0:j0v ~jn ~nf:np qb;
          (* [kmax] is nondecreasing in j, so row 0's range is the
             block's common prefix; causal tails finish per row. *)
          let common = if jn = row_block then km.(0) else 0 in
          block_dots g ~scores:true ~pan:kp ~rows:qb ~nf:np ~km ~jn ~common
            ~dst:sb ~ds:nkt;
          (* per-row softmax (max, exp, sum, normalize) and dropout:
             scores become probabilities in place *)
          for r = 0 to jn - 1 do
            let kmr = km.(r) in
            let jj = j0v + r in
            if kmr = 0 then begin
              match lsed with
              | Some l -> l.((((h * g.nb) + b) * g.nj) + jj) <- neg_infinity
              | None -> ()
            end
            else begin
              let srow = r * nkt in
              let mx = Fmax.fold neg_infinity sb ~off:srow ~len:kmr in
              let nm = -1.0 *. mx in
              let s = ref 0.0 in
              for kk = 0 to kmr - 1 do
                let ev = exp (Array.unsafe_get sb (srow + kk) +. nm) in
                Array.unsafe_set sb (srow + kk) ev;
                s := !s +. ev
              done;
              let inv = 1.0 /. !s in
              if g.drop_p > 0.0 then begin
                fill_mask g ~first:(((((h * g.nb) + b) * g.nj) + jj) * g.nk)
                  mb ~off:0 ~len:kmr;
                for kk = 0 to kmr - 1 do
                  Array.unsafe_set sb (srow + kk)
                    (Array.unsafe_get sb (srow + kk) *. inv
                    *. Array.unsafe_get mb kk)
                done
              end
              else
                for kk = 0 to kmr - 1 do
                  Array.unsafe_set sb (srow + kk)
                    (Array.unsafe_get sb (srow + kk) *. inv)
                done;
              match lsed with
              | Some l -> l.((((h * g.nb) + b) * g.nj) + jj) <- mx +. log !s
              | None -> ()
            end
          done;
          (* context rows, ascending k from 0.0 *)
          Array.fill ob 0 (jn * nw) 0.0;
          block_acc ~pan:vp ~nf:nw ~wts:sb ~ws:nkt ~km ~jn ~common ~dst:ob
            ~doff:0 ~ds:nw;
          (* commit the block's context rows (owned by this item) *)
          for r = 0 to jn - 1 do
            let obase = (h * g.nb * g.nj) + (b * g.nj) + j0v + r in
            for w = 0 to nw - 1 do
              Array.unsafe_set od (obase + (w * ostep))
                (Array.unsafe_get ob ((r * nw) + w))
            done
          done;
          j0 := j0v + jn
        done))))))
  end

(* Online path: KV tiles streamed with running row max/sum; normalization
   deferred to the end (within ulps of the oracle). Q rows move through
   each tile in register blocks; the running max/sum/rescale bookkeeping
   stays strictly per-row, so values are identical to a row-at-a-time
   walk. *)
let fwd_online_item g ~kvt ~od ~lsed ~h ~b ~qlo ~qhi =
  let nq = qhi - qlo in
  Arena.with_scratch Arena.global (kvt * g.np) (fun kp ->
  Arena.with_scratch Arena.global (kvt * g.nw) (fun vp ->
  Arena.with_scratch Arena.global (row_block * kvt) (fun sb ->
  Arena.with_scratch Arena.global kvt (fun mb ->
  Arena.with_scratch Arena.global (row_block * g.np) (fun qb ->
  Arena.with_scratch Arena.global nq (fun m ->
  Arena.with_scratch Arena.global nq (fun s ->
  Arena.with_zeroed Arena.global (nq * g.nw) (fun acc ->
      Array.fill m 0 nq neg_infinity;
      Array.fill s 0 nq 0.0;
      (* Longest valid key range of any row in this Q tile: later tiles
         are entirely masked for the whole tile and are never visited. *)
      let kmax_tile = kmax_of g ~b ~jj:(qhi - 1) in
      let nkv = (g.nk + kvt - 1) / kvt in
      let np = g.np and nw = g.nw in
      let nv = Array.make row_block 0 in
      for t = 0 to nkv - 1 do
        let klo = t * kvt in
        if klo >= kmax_tile then Atomic.incr skipped
        else begin
          Atomic.incr visited;
          let khi = min (klo + kvt) kmax_tile in
          pack_panel g.kd g.ks ~h ~b ~klo ~khi ~nf:g.np kp;
          pack_panel g.vd g.vs ~h ~b ~klo ~khi ~nf:g.nw vp;
          let j0 = ref 0 in
          while !j0 < nq do
            let j0v = !j0 in
            let jn = min row_block (nq - j0v) in
            for r = 0 to jn - 1 do
              nv.(r) <- max 0 (min khi (kmax_of g ~b ~jj:(qlo + j0v + r)) - klo)
            done;
            load_rows g.qd g.qs ~h ~b ~j0:(qlo + j0v) ~jn ~nf:np qb;
            (* [kmax] is nondecreasing in j: row 0's in-tile key count is
               the block's common prefix *)
            let common = if jn = row_block then nv.(0) else 0 in
            block_dots g ~scores:true ~pan:kp ~rows:qb ~nf:np ~km:nv ~jn
              ~common ~dst:sb ~ds:kvt;
            (* per-row: running max, rescale, exp/sum; scores become
               dropout-masked probabilities in place *)
            for r = 0 to jn - 1 do
              let n = nv.(r) in
              if n > 0 then begin
                let j = j0v + r in
                let jj = qlo + j in
                let srow = r * kvt in
                let mold = Array.unsafe_get m j in
                let mnew = Fmax.fold mold sb ~off:srow ~len:n in
                let nm = -1.0 *. mnew in
                if mnew > mold then begin
                  (* rescale running sum and accumulator; exp(-inf) = 0
                     cleanly zeroes a row that had no mass yet *)
                  let c = exp (mold +. nm) in
                  Array.unsafe_set s j (Array.unsafe_get s j *. c);
                  let arow = j * nw in
                  for w = 0 to nw - 1 do
                    Array.unsafe_set acc (arow + w)
                      (Array.unsafe_get acc (arow + w) *. c)
                  done
                end;
                let sj = ref (Array.unsafe_get s j) in
                for kk = 0 to n - 1 do
                  let ev = exp (Array.unsafe_get sb (srow + kk) +. nm) in
                  sj := !sj +. ev;
                  Array.unsafe_set sb (srow + kk) ev
                done;
                Array.unsafe_set s j !sj;
                if g.drop_p > 0.0 then begin
                  fill_mask g
                    ~first:(((((h * g.nb) + b) * g.nj) + jj) * g.nk + klo)
                    mb ~off:0 ~len:n;
                  for kk = 0 to n - 1 do
                    Array.unsafe_set sb (srow + kk)
                      (Array.unsafe_get sb (srow + kk) *. Array.unsafe_get mb kk)
                  done
                end;
                Array.unsafe_set m j mnew
              end
            done;
            (* V products: each row's accumulator advances in ascending k
               exactly as the scalar walk does *)
            block_acc ~pan:vp ~nf:nw ~wts:sb ~ws:kvt ~km:nv ~jn ~common
              ~dst:acc ~doff:(j0v * nw) ~ds:nw;
            j0 := j0v + jn
          done
        end
      done;
      let ostep = g.nh * g.nb * g.nj in
      for j = 0 to nq - 1 do
        let jj = qlo + j in
        let sj = Array.unsafe_get s j in
        let obase = (h * g.nb * g.nj) + (b * g.nj) + jj in
        if sj > 0.0 then begin
          let inv = 1.0 /. sj in
          let arow = j * g.nw in
          for w = 0 to g.nw - 1 do
            Array.unsafe_set od (obase + (w * ostep))
              (Array.unsafe_get acc (arow + w) *. inv)
          done
        end;
        match lsed with
        | Some l ->
            l.((((h * g.nb) + b) * g.nj) + jj) <-
              (if sj > 0.0 then Array.unsafe_get m j +. log sj
               else neg_infinity)
        | None -> ()
      done))))))))

let forward ?axes ?q_tile ?kv_tile ?causal ?valid ?dropout ?(stats = true)
    ~prescale ~q ~k ~v () =
  let axes_v = Option.value axes ~default:paper_axes in
  let g = geom_of ?axes ?causal ?valid ?dropout ~prescale ~q ~k ~v () in
  let dq_tile, dkv_tile = default_tiles () in
  let qt = max 1 (min g.nj (Option.value q_tile ~default:dq_tile)) in
  let kvt = max 1 (min g.nk (Option.value kv_tile ~default:dkv_tile)) in
  let out =
    Dense.zeros
      [ (axes_v.feat_v, g.nw); (axes_v.heads, g.nh); (axes_v.batch, g.nb);
        (axes_v.q_seq, g.nj) ]
  in
  let lse =
    if stats then
      Some
        (Dense.zeros
           [ (axes_v.heads, g.nh); (axes_v.batch, g.nb); (axes_v.q_seq, g.nj) ])
    else None
  in
  let od = Dense.unsafe_data out in
  let lsed = Option.map Dense.unsafe_data lse in
  let exact = kvt >= g.nk in
  let nq_tiles = (g.nj + qt - 1) / qt in
  let work = g.nh * g.nb * nq_tiles in
  let item it =
    let qi = it mod nq_tiles in
    let hb = it / nq_tiles in
    let b = hb mod g.nb in
    let h = hb / g.nb in
    let qlo = qi * qt in
    let qhi = min (qlo + qt) g.nj in
    if exact then fwd_exact_item g ~od ~lsed ~h ~b ~qlo ~qhi
    else fwd_online_item g ~kvt ~od ~lsed ~h ~b ~qlo ~qhi
  in
  let flops = g.nj * g.nk * (g.np + g.nw) in
  if work >= 2 && flops >= par_min_flop && Pool.num_domains () > 1 then
    Pool.parallel_for ~label:"flashattn.fwd" ~start:0 ~finish:work
      (fun lo hi ->
        for it = lo to hi - 1 do
          item it
        done)
  else
    for it = 0 to work - 1 do
      item it
    done;
  (out, lse)

(* ------------------------------------------------------------------ *)
(* Backward                                                            *)
(* ------------------------------------------------------------------ *)

(* One (h, b) work item: streams Q-row blocks against packed K/V panels,
   recomputing scores and probabilities. Scratch is O(L * d): the panels
   plus K-length row buffers (probabilities, d-probabilities, dropout
   masks). dK/dV accumulate over rows in ascending j — additions sharing
   a destination are nested in ascending row order and the causal tail of
   each block replays rows one at a time, so blocked runs are bitwise
   identical to a row-at-a-time walk (and items own disjoint (h, b)
   slabs, so sharding is bitwise too). *)
let bwd_item g ~lsed ~dgd ~dgs ~dqd ~dkd ~dvd ~h ~b =
  let nk = kmax_of g ~b ~jj:(g.nj - 1) in
  (* widest key range any row of this slot touches *)
  if nk > 0 then
    Arena.with_scratch Arena.global (nk * g.np) (fun kp ->
    Arena.with_scratch Arena.global (nk * g.nw) (fun vp ->
    Arena.with_zeroed Arena.global (nk * g.np) (fun dk ->
    Arena.with_zeroed Arena.global (nk * g.nw) (fun dv ->
    Arena.with_scratch Arena.global (row_block * nk) (fun yb ->
    Arena.with_scratch Arena.global (row_block * nk) (fun db ->
    Arena.with_scratch Arena.global (row_block * nk) (fun mb ->
    Arena.with_scratch Arena.global (row_block * g.np) (fun qb ->
    Arena.with_scratch Arena.global (row_block * g.np) (fun dqb ->
    Arena.with_scratch Arena.global (row_block * g.nw) (fun dgb ->
        pack_panel g.kd g.ks ~h ~b ~klo:0 ~khi:nk ~nf:g.np kp;
        pack_panel g.vd g.vs ~h ~b ~klo:0 ~khi:nk ~nf:g.nw vp;
        let np = g.np and nw = g.nw in
        let drop = g.drop_p > 0.0 in
        let km = Array.make row_block 0 in
        let dqstep = g.nh * g.nb * g.nj in
        let j0 = ref 0 in
        while !j0 < g.nj do
          let j0v = !j0 in
          let jn = min row_block (g.nj - j0v) in
          for r = 0 to jn - 1 do
            km.(r) <- kmax_of g ~b ~jj:(j0v + r)
          done;
          load_rows g.qd g.qs ~h ~b ~j0:j0v ~jn ~nf:np qb;
          load_rows dgd dgs ~h ~b ~j0:j0v ~jn ~nf:nw dgb;
          (* [kmax] is nondecreasing in j (causal widens, valid is
             per-slot), so row 0's range is the block's common prefix;
             the causal tail is finished per row. *)
          let common = if jn = row_block then km.(0) else 0 in
          (* scores (ascending-p dots, prescale, the oracle's +. 0.0) *)
          block_dots g ~scores:true ~pan:kp ~rows:qb ~nf:np ~km ~jn ~common
            ~dst:yb ~ds:nk;
          (* y_k = exp(score - lse): the probabilities, recomputed *)
          for r = 0 to jn - 1 do
            let kmr = km.(r) in
            if kmr > 0 then begin
              let jj = j0v + r in
              let yrow = r * nk in
              let lse_j =
                match lsed with
                | Some l -> l.((((h * g.nb) + b) * g.nj) + jj)
                | None ->
                    let mx = Fmax.fold neg_infinity yb ~off:yrow ~len:kmr in
                    let nm = -1.0 *. mx in
                    let s = ref 0.0 in
                    for kk = 0 to kmr - 1 do
                      s := !s +. exp (Array.unsafe_get yb (yrow + kk) +. nm)
                    done;
                    mx +. log !s
              in
              let nlse = -1.0 *. lse_j in
              for kk = 0 to kmr - 1 do
                Array.unsafe_set yb (yrow + kk)
                  (exp (Array.unsafe_get yb (yrow + kk) +. nlse))
              done
            end
          done;
          (* d_alpha_k = sum_w v . d_out (gamma_dx1), then through the
             dropout mask (dropout_dx); the mask row is kept for the dV
             alpha below. Without dropout the mask is 1.0 everywhere and
             [x *. 1.0] is [x], so the multiplies are skipped. *)
          block_dots g ~scores:false ~pan:vp ~rows:dgb ~nf:nw ~km ~jn ~common
            ~dst:db ~ds:nk;
          if drop then
            for r = 0 to jn - 1 do
              let yrow = r * nk in
              fill_mask g ~first:(((((h * g.nb) + b) * g.nj) + j0v + r) * g.nk)
                mb ~off:yrow ~len:km.(r);
              for kk = yrow to yrow + km.(r) - 1 do
                Array.unsafe_set db kk
                  (Array.unsafe_get db kk *. Array.unsafe_get mb kk)
              done
            done;
          (* softmax_dx per row: rowsum of dy*y, then
             prescale * y * (dy - rowsum); alpha = y through the mask *)
          for r = 0 to jn - 1 do
            let kmr = km.(r) in
            if kmr > 0 then begin
              let yrow = r * nk in
              let rs = ref 0.0 in
              for kk = 0 to kmr - 1 do
                rs :=
                  !rs
                  +. (Array.unsafe_get db (yrow + kk)
                     *. Array.unsafe_get yb (yrow + kk))
              done;
              let ns = -1.0 *. !rs in
              for kk = yrow to yrow + kmr - 1 do
                let y = Array.unsafe_get yb kk in
                Array.unsafe_set db kk
                  (g.prescale *. (y *. (Array.unsafe_get db kk +. ns)));
                if drop then Array.unsafe_set yb kk (y *. Array.unsafe_get mb kk)
              done
            end
          done;
          (* accumulate dk, dv over the block's rows *)
          if common > 0 then begin
            upd_4x2 ~src:qb ~nf:np ~wts:db ~ws:nk ~k0:0 ~k1:common ~dst:dk;
            upd_4x2 ~src:dgb ~nf:nw ~wts:yb ~ws:nk ~k0:0 ~k1:common ~dst:dv
          end;
          for r = 0 to jn - 1 do
            let yrow = r * nk and qrow = r * np and grow = r * nw in
            for kk = common to km.(r) - 1 do
              let krow = kk * np and vrow = kk * nw in
              let bv = Array.unsafe_get db (yrow + kk) in
              for p = 0 to np - 1 do
                Array.unsafe_set dk (krow + p)
                  (Array.unsafe_get dk (krow + p)
                  +. (Array.unsafe_get qb (qrow + p) *. bv))
              done;
              let av = Array.unsafe_get yb (yrow + kk) in
              for w = 0 to nw - 1 do
                Array.unsafe_set dv (vrow + w)
                  (Array.unsafe_get dv (vrow + w)
                  +. (av *. Array.unsafe_get dgb (grow + w)))
              done
            done
          done;
          (* dq rows (block-local), ascending k from 0.0 *)
          Array.fill dqb 0 (jn * np) 0.0;
          block_acc ~pan:kp ~nf:np ~wts:db ~ws:nk ~km ~jn ~common ~dst:dqb
            ~doff:0 ~ds:np;
          (* commit the block's dq rows (each row owned by this item) *)
          for r = 0 to jn - 1 do
            let dqbase = (h * g.nb * g.nj) + (b * g.nj) + j0v + r in
            for p = 0 to np - 1 do
              Array.unsafe_set dqd (dqbase + (p * dqstep))
                (Array.unsafe_get dqb ((r * np) + p))
            done
          done;
          j0 := j0v + jn
        done;
        (* commit this slot's dK/dV slabs (canonical (feat,h,b,k) order) *)
        let kstep = g.nh * g.nb * g.nk in
        let kbase = (h * g.nb * g.nk) + (b * g.nk) in
        for kk = 0 to nk - 1 do
          for p = 0 to g.np - 1 do
            dkd.(kbase + kk + (p * kstep)) <- dk.((kk * g.np) + p)
          done;
          for w = 0 to g.nw - 1 do
            dvd.(kbase + kk + (w * kstep)) <- dv.((kk * g.nw) + w)
          done
        done))))))))))

let backward ?axes ?kv_tile ?causal ?valid ?dropout ?lse ~prescale ~q ~k ~v
    ~d_out () =
  ignore kv_tile;
  let axes_v = Option.value axes ~default:paper_axes in
  let g = geom_of ?axes ?causal ?valid ?dropout ~prescale ~q ~k ~v () in
  if extent d_out axes_v.feat_v <> g.nw || extent d_out axes_v.q_seq <> g.nj
  then invalid_arg "Flashattn.backward: d_out is not shaped like the context";
  (match lse with
  | Some l ->
      if Dense.volume l <> g.nh * g.nb * g.nj then
        invalid_arg "Flashattn.backward: lse has the wrong volume"
  | None -> ());
  let dq =
    Dense.zeros
      [ (axes_v.feat_qk, g.np); (axes_v.heads, g.nh); (axes_v.batch, g.nb);
        (axes_v.q_seq, g.nj) ]
  in
  let dk =
    Dense.zeros
      [ (axes_v.feat_qk, g.np); (axes_v.heads, g.nh); (axes_v.batch, g.nb);
        (axes_v.k_seq, g.nk) ]
  in
  let dv =
    Dense.zeros
      [ (axes_v.feat_v, g.nw); (axes_v.heads, g.nh); (axes_v.batch, g.nb);
        (axes_v.k_seq, g.nk) ]
  in
  let dgd = Dense.unsafe_data d_out in
  let dgs =
    Dense.strides_for d_out
      [ axes_v.feat_v; axes_v.heads; axes_v.batch; axes_v.q_seq ]
  in
  let lsed =
    Option.map
      (fun l ->
        let d = Dense.unsafe_data l in
        let str =
          Dense.strides_for l [ axes_v.heads; axes_v.batch; axes_v.q_seq ]
        in
        (* re-expose through canonical (h,b,j) indexing *)
        if str = [| g.nb * g.nj; g.nj; 1 |] then d
        else begin
          let c = Array.make (g.nh * g.nb * g.nj) 0.0 in
          for h = 0 to g.nh - 1 do
            for b = 0 to g.nb - 1 do
              for j = 0 to g.nj - 1 do
                c.((((h * g.nb) + b) * g.nj) + j) <-
                  d.((h * str.(0)) + (b * str.(1)) + (j * str.(2)))
              done
            done
          done;
          c
        end)
      lse
  in
  let dqd = Dense.unsafe_data dq in
  let dkd = Dense.unsafe_data dk in
  let dvd = Dense.unsafe_data dv in
  let work = g.nh * g.nb in
  let item it =
    let b = it mod g.nb in
    let h = it / g.nb in
    bwd_item g ~lsed ~dgd ~dgs ~dqd ~dkd ~dvd ~h ~b
  in
  let flops = g.nj * g.nk * (g.np + g.nw) in
  if work >= 2 && flops >= par_min_flop && Pool.num_domains () > 1 then
    Pool.parallel_for ~label:"flashattn.bwd" ~start:0 ~finish:work
      (fun lo hi ->
        for it = lo to hi - 1 do
          item it
        done)
  else
    for it = 0 to work - 1 do
      item it
    done;
  (dq, dk, dv)
