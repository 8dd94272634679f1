(* Fused single-pass interpretation of operator groups.

   {!Fusion} decides *which* operators form one kernel; this module decides
   *how* that kernel runs. [compile_group] inspects the declarative [sem]
   mirror of each member and builds a closure that

   - executes chains of element-wise members (bias/dropout/residual/
     activation, the paper's BDRLN/BSB/BAOB-style interiors) as one pass
     over the data, a block of positions at a time: each stage runs as a
     flat float loop over the block's running values (matched once per
     block, never per element), and the env materialization of
     intermediates that nothing else reads is skipped;
   - executes statistical members (softmax, layernorm and their adjoints)
     as dedicated row-wise kernels whose per-row scratch comes from the
     {!Arena} instead of whole-tensor temporaries.

   Every kernel replicates the naive constructors' floating-point operation
   *order* (same association, same [-1.0 *. m] style sign flips, masks
   generated by the same sequential PRNG walk), so fused results match the
   naive oracle bitwise wherever operand layouts agree and within normal
   round-off when a layout permutation reorders an accumulation.

   Correctness fallbacks are structural: a member without [sem], or whose
   runtime shapes/layouts violate a kernel's preconditions, simply runs its
   own naive [run] against the env. That is always sound because a member's
   inputs are materialized unless they are provably dead (only consumed as
   the next chain link). *)

let position axis axes =
  let rec go i = function
    | [] -> -1
    | a :: rest -> if Axis.equal a axis then i else go (i + 1) rest
  in
  go 0 axes

(* Number of rows walked when dimension [p] of [dims] is reduced away. *)
let row_count dims p =
  let rows = ref 1 in
  Array.iteri (fun i d -> if i <> p then rows := !rows * d) dims;
  !rows

(* Row-wise iteration over the sub-range [row_lo, row_hi) of the positions
   of [dims] with dimension [p] removed, in storage order, tracking one
   running offset per stride set (each aligned to the full [dims]). Calls
   [f row bases idx] where [row] is the absolute row number, [bases.(s)]
   stride-set [s]'s offset for the row start and [idx] the outer
   multi-index (dimension [p] removed). The starting multi-index is
   decomposed from [row_lo], so disjoint ranges visit exactly the rows a
   full serial walk would — parallel row-sharding partitions [0, rows)
   without changing any per-row state. *)
let iter_rows_range dims (stride_sets : int array array) p ~row_lo ~row_hi f =
  let n = Array.length dims in
  let m = n - 1 in
  let nsets = Array.length stride_sets in
  let odims = Array.make (Stdlib.max m 1) 0 in
  let ostr = Array.make_matrix nsets (Stdlib.max m 1) 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    if i <> p then begin
      odims.(!w) <- dims.(i);
      for s = 0 to nsets - 1 do
        ostr.(s).(!w) <- stride_sets.(s).(i)
      done;
      incr w
    end
  done;
  let idx = Array.make (Stdlib.max m 1) 0 in
  let rem = ref row_lo in
  for d = m - 1 downto 0 do
    idx.(d) <- !rem mod odims.(d);
    rem := !rem / odims.(d)
  done;
  let bases = Array.make (Stdlib.max nsets 1) 0 in
  for s = 0 to nsets - 1 do
    for d = 0 to m - 1 do
      bases.(s) <- bases.(s) + (idx.(d) * ostr.(s).(d))
    done
  done;
  for row = row_lo to row_hi - 1 do
    f row bases idx;
    let rec bump d =
      if d >= 0 then begin
        idx.(d) <- idx.(d) + 1;
        for s = 0 to nsets - 1 do
          bases.(s) <- bases.(s) + ostr.(s).(d)
        done;
        if idx.(d) = odims.(d) then begin
          idx.(d) <- 0;
          for s = 0 to nsets - 1 do
            bases.(s) <- bases.(s) - (ostr.(s).(d) * odims.(d))
          done;
          bump (d - 1)
        end
      end
    in
    bump (m - 1)
  done

(* Below this element volume a row-parallel region costs more to dispatch
   than the rows themselves. *)
let par_min_work = 4096

(* Shard the row space across Pool workers: [run ~row_lo ~row_hi] handles
   one disjoint range (borrowing any per-worker scratch itself). Each
   range walks private index/base state, so per-row outputs are bitwise
   identical to the serial walk. *)
let par_row_ranges dims p run =
  let rows = row_count dims p in
  let work = rows * (if Array.length dims = 0 then 1 else dims.(p)) in
  if rows >= 2 && work >= par_min_work && Pool.num_domains () > 1 then
    Pool.parallel_for ~label:"fastpath.rows" ~start:0 ~finish:rows
      (fun row_lo row_hi -> run ~row_lo ~row_hi)
  else run ~row_lo:0 ~row_hi:rows

let par_rows dims (stride_sets : int array array) p f =
  par_row_ranges dims p (fun ~row_lo ~row_hi ->
      iter_rows_range dims stride_sets p ~row_lo ~row_hi f)

let dims_of t = Array.of_list (Shape.sizes (Dense.shape t))
let own_strides t = Shape.strides (Dense.shape t)

(* ------------------------------------------------------------------ *)
(* Reduction kernels                                                   *)
(* ------------------------------------------------------------------ *)

let softmax_fast env (op : Op.t) ~x_name ~out_name ~axis ~prescale ~causal =
  let x = Op.lookup env x_name in
  let ax = Dense.layout x in
  let p = position axis ax in
  let outer_ax = List.filter (fun a -> not (Axis.equal a axis)) ax in
  let qpos =
    match causal with None -> -1 | Some (q, _) -> position q outer_ax
  in
  let causal_ok =
    match causal with
    | None -> true
    | Some (_, kax) -> Axis.equal kax axis && qpos >= 0
  in
  if p < 0 || not causal_ok then op.run env
  else begin
    let dims = dims_of x in
    let strides = own_strides x in
    let kl = dims.(p) and sk = strides.(p) in
    let out = Dense.zeros (Shape.to_list (Dense.shape x)) in
    let xd = Dense.unsafe_data x and od = Dense.unsafe_data out in
    par_row_ranges dims p (fun ~row_lo ~row_hi ->
        (* Per-range borrow: the arena is domain-local, so each worker
           gets its own row scratch without contention. *)
        Arena.with_scratch Arena.global kl (fun e ->
            iter_rows_range dims [| strides |] p ~row_lo ~row_hi
              (fun _row bases idx ->
            let base = bases.(0) in
            let jq = if qpos >= 0 then idx.(qpos) else -1 in
            for k = 0 to kl - 1 do
              let v = prescale *. Array.unsafe_get xd (base + (k * sk)) in
              let v =
                if jq >= 0 then
                  if k > jq then v +. neg_infinity else v +. 0.0
                else v
              in
              Array.unsafe_set e k v
            done;
            let nm = -1.0 *. Fmax.fold neg_infinity e ~off:0 ~len:kl in
            let s = ref 0.0 in
            for k = 0 to kl - 1 do
              let ev = exp (Array.unsafe_get e k +. nm) in
              Array.unsafe_set e k ev;
              s := !s +. ev
            done;
            let inv = 1.0 /. !s in
            for k = 0 to kl - 1 do
              Array.unsafe_set od (base + (k * sk)) (Array.unsafe_get e k *. inv)
            done)));
    Op.store env out_name out
  end

let softmax_dx_fast env (op : Op.t) ~dy_name ~y_name ~out_name ~axis ~prescale =
  let dy = Op.lookup env dy_name and y = Op.lookup env y_name in
  let ax = Dense.layout y in
  let p = position axis ax in
  if p < 0 || position axis (Dense.layout dy) < 0 then op.run env
  else begin
    let dims = dims_of y in
    let y_str = own_strides y in
    let dy_str = Dense.strides_for dy ax in
    let y_sk = y_str.(p) and dy_sk = dy_str.(p) in
    let kl = dims.(p) in
    let out = Dense.zeros (Shape.to_list (Dense.shape y)) in
    let yd = Dense.unsafe_data y
    and dyd = Dense.unsafe_data dy
    and od = Dense.unsafe_data out in
    par_rows dims [| y_str; dy_str |] p (fun _row bases _idx ->
        let yb = bases.(0) and dyb = bases.(1) in
        let s = ref 0.0 in
        for k = 0 to kl - 1 do
          s :=
            !s
            +. (Array.unsafe_get dyd (dyb + (k * dy_sk))
               *. Array.unsafe_get yd (yb + (k * y_sk)))
        done;
        let ns = -1.0 *. !s in
        for k = 0 to kl - 1 do
          let yv = Array.unsafe_get yd (yb + (k * y_sk)) in
          let dyv = Array.unsafe_get dyd (dyb + (k * dy_sk)) in
          Array.unsafe_set od (yb + (k * y_sk)) (prescale *. (yv *. (dyv +. ns)))
        done);
    Op.store env out_name out
  end

let rank1_over axis t =
  match Dense.layout t with [ a ] -> Axis.equal a axis | _ -> false

let layernorm_fast env (op : Op.t) ~x_name ~gamma_name ~beta_name ~out_name
    ~mean_name ~istd_name ~axis ~eps =
  let x = Op.lookup env x_name in
  let gamma = Op.lookup env gamma_name and beta = Op.lookup env beta_name in
  let ax = Dense.layout x in
  let p = position axis ax in
  if p < 0 || not (rank1_over axis gamma) || not (rank1_over axis beta) then
    op.run env
  else begin
    let dims = dims_of x in
    let strides = own_strides x in
    let kl = dims.(p) and sk = strides.(p) in
    let inv_n = 1.0 /. float_of_int kl in
    let keep =
      List.filter (fun (a, _) -> not (Axis.equal a axis))
        (Shape.to_list (Dense.shape x))
    in
    let out = Dense.zeros (Shape.to_list (Dense.shape x)) in
    let mean_t = Dense.zeros keep and istd_t = Dense.zeros keep in
    let xd = Dense.unsafe_data x
    and od = Dense.unsafe_data out
    and md = Dense.unsafe_data mean_t
    and sd = Dense.unsafe_data istd_t
    and gd = Dense.unsafe_data gamma
    and bd = Dense.unsafe_data beta in
    par_rows dims [| strides |] p (fun row bases _idx ->
        let base = bases.(0) in
        let s = ref 0.0 in
        for k = 0 to kl - 1 do
          s := !s +. Array.unsafe_get xd (base + (k * sk))
        done;
        let m = inv_n *. !s in
        let nm = -1.0 *. m in
        let s2 = ref 0.0 in
        for k = 0 to kl - 1 do
          let d = Array.unsafe_get xd (base + (k * sk)) +. nm in
          s2 := !s2 +. (d *. d)
        done;
        let var = inv_n *. !s2 in
        let istd = 1.0 /. sqrt (var +. eps) in
        Array.unsafe_set md row m;
        Array.unsafe_set sd row istd;
        for k = 0 to kl - 1 do
          let xhat = (Array.unsafe_get xd (base + (k * sk)) +. nm) *. istd in
          Array.unsafe_set od (base + (k * sk))
            ((xhat *. Array.unsafe_get gd k) +. Array.unsafe_get bd k)
        done);
    Op.store env out_name out;
    Op.store env mean_name mean_t;
    Op.store env istd_name istd_t
  end

let layernorm_dx_fast env (op : Op.t) ~dy_name ~x_name ~gamma_name ~mean_name
    ~istd_name ~out_name ~axis =
  let dy = Op.lookup env dy_name
  and x = Op.lookup env x_name
  and gamma = Op.lookup env gamma_name
  and mean = Op.lookup env mean_name
  and istd = Op.lookup env istd_name in
  let ax = Dense.layout dy in
  let p = position axis ax in
  if p < 0 || position axis (Dense.layout x) < 0 || not (rank1_over axis gamma)
  then op.run env
  else begin
    let dims = dims_of dy in
    let dy_str = own_strides dy in
    let x_str = Dense.strides_for x ax in
    let m_str = Dense.strides_for mean ax in
    let s_str = Dense.strides_for istd ax in
    let kl = dims.(p) in
    let dy_sk = dy_str.(p) and x_sk = x_str.(p) in
    let inv_n = 1.0 /. float_of_int kl in
    let out = Dense.zeros (Shape.to_list (Dense.shape dy)) in
    let dyd = Dense.unsafe_data dy
    and xd = Dense.unsafe_data x
    and gd = Dense.unsafe_data gamma
    and md = Dense.unsafe_data mean
    and sd = Dense.unsafe_data istd
    and od = Dense.unsafe_data out in
    par_rows dims [| dy_str; x_str; m_str; s_str |] p (fun _row bases _idx ->
        let dyb = bases.(0) and xb = bases.(1) in
        let m = Array.unsafe_get md bases.(2) in
        let ist = Array.unsafe_get sd bases.(3) in
        let nm = -1.0 *. m in
        let s1 = ref 0.0 and s2 = ref 0.0 in
        for k = 0 to kl - 1 do
          let dyg =
            Array.unsafe_get dyd (dyb + (k * dy_sk)) *. Array.unsafe_get gd k
          in
          let xhat = (Array.unsafe_get xd (xb + (k * x_sk)) +. nm) *. ist in
          s1 := !s1 +. dyg;
          s2 := !s2 +. (dyg *. xhat)
        done;
        let mean_dyg = inv_n *. !s1 in
        let mdx = inv_n *. !s2 in
        let nmd = -1.0 *. mean_dyg in
        for k = 0 to kl - 1 do
          let dyg =
            Array.unsafe_get dyd (dyb + (k * dy_sk)) *. Array.unsafe_get gd k
          in
          let xhat = (Array.unsafe_get xd (xb + (k * x_sk)) +. nm) *. ist in
          Array.unsafe_set od (dyb + (k * dy_sk))
            (((dyg +. nmd) -. (xhat *. mdx)) *. ist)
        done);
    Op.store env out_name out
  end

let layernorm_dw_fast env (op : Op.t) ~dy_name ~x_name ~mean_name ~istd_name
    ~dgamma_name ~dbeta_name ~axis =
  let dy = Op.lookup env dy_name and x = Op.lookup env x_name in
  let mean = Op.lookup env mean_name and istd = Op.lookup env istd_name in
  let ax = Dense.layout dy in
  let p = position axis ax in
  if p < 0 || position axis (Dense.layout x) < 0 then op.run env
  else begin
    let dims = dims_of dy in
    let x_str = Dense.strides_for x ax in
    let m_str = Dense.strides_for mean ax in
    let s_str = Dense.strides_for istd ax in
    let kl = dims.(p) in
    let n = Array.length dims in
    let dgamma = Dense.zeros [ (axis, kl) ] and dbeta = Dense.zeros [ (axis, kl) ] in
    let dyd = Dense.unsafe_data dy
    and xd = Dense.unsafe_data x
    and md = Dense.unsafe_data mean
    and sd = Dense.unsafe_data istd
    and dg = Dense.unsafe_data dgamma
    and db = Dense.unsafe_data dbeta in
    let total = Array.fold_left ( * ) 1 dims in
    let idx = Array.make n 0 in
    let xo = ref 0 and mo = ref 0 and so = ref 0 in
    (* defined once: a [let rec] inside the loop would build a closure
       per element *)
    let rec bump d =
      if d >= 0 then begin
        idx.(d) <- idx.(d) + 1;
        xo := !xo + x_str.(d);
        mo := !mo + m_str.(d);
        so := !so + s_str.(d);
        if idx.(d) = dims.(d) then begin
          idx.(d) <- 0;
          xo := !xo - (x_str.(d) * dims.(d));
          mo := !mo - (m_str.(d) * dims.(d));
          so := !so - (s_str.(d) * dims.(d));
          bump (d - 1)
        end
      end
    in
    for pos = 0 to total - 1 do
      let k = idx.(p) in
      let xhat =
        (Array.unsafe_get xd !xo +. (-1.0 *. Array.unsafe_get md !mo))
        *. Array.unsafe_get sd !so
      in
      let dyv = Array.unsafe_get dyd pos in
      Array.unsafe_set dg k (Array.unsafe_get dg k +. (dyv *. xhat));
      Array.unsafe_set db k (Array.unsafe_get db k +. dyv);
      bump (n - 1)
    done;
    Op.store env dgamma_name dgamma;
    Op.store env dbeta_name dbeta
  end

let run_red env (op : Op.t) = function
  | Op.Softmax { r_x; r_out; r_axis; r_prescale; r_causal } ->
      softmax_fast env op ~x_name:r_x ~out_name:r_out ~axis:r_axis
        ~prescale:r_prescale ~causal:r_causal
  | Op.Softmax_dx { sd_dy; sd_y; sd_out; sd_axis; sd_prescale } ->
      softmax_dx_fast env op ~dy_name:sd_dy ~y_name:sd_y ~out_name:sd_out
        ~axis:sd_axis ~prescale:sd_prescale
  | Op.Layernorm { ln_x; ln_gamma; ln_beta; ln_out; ln_mean; ln_istd; ln_axis; ln_eps }
    ->
      layernorm_fast env op ~x_name:ln_x ~gamma_name:ln_gamma
        ~beta_name:ln_beta ~out_name:ln_out ~mean_name:ln_mean
        ~istd_name:ln_istd ~axis:ln_axis ~eps:ln_eps
  | Op.Layernorm_dx { ld_dy; ld_x; ld_gamma; ld_mean; ld_istd; ld_out; ld_axis } ->
      layernorm_dx_fast env op ~dy_name:ld_dy ~x_name:ld_x
        ~gamma_name:ld_gamma ~mean_name:ld_mean ~istd_name:ld_istd
        ~out_name:ld_out ~axis:ld_axis
  | Op.Layernorm_dw { lw_dy; lw_x; lw_mean; lw_istd; lw_dgamma; lw_dbeta; lw_axis }
    ->
      layernorm_dw_fast env op ~dy_name:lw_dy ~x_name:lw_x ~mean_name:lw_mean
        ~istd_name:lw_istd ~dgamma_name:lw_dgamma ~dbeta_name:lw_dbeta
        ~axis:lw_axis
  | Op.Bias_dw _ ->
      (* already a single strided pass in the naive constructor *)
      op.run env

(* ------------------------------------------------------------------ *)
(* Element-wise chains                                                 *)
(* ------------------------------------------------------------------ *)

type chain_stage = {
  cs_op : Op.t;
  cs_sem : Op.elt_sem;
  cs_store : bool;
  cs_into : float array option;
      (* destination for the stored output; a fresh tensor when [None] or
         when its length disagrees with the chain volume *)
}

type step =
  | Chain of chain_stage list
  | Red of Op.t * Op.red_sem

let no_arr : float array = [||]

type rt_stage = {
  rt_fn : Op.elt_fn;
  rt_opnd : float array;  (* [no_arr] when the fn is unary *)
  rt_strides : int array;  (* [||] when the operand walks with [pos] *)
  mutable rt_track : int;  (* slot in the per-range offset array; -1 = none *)
  rt_out : float array;  (* [no_arr] when the output is dead *)
}

let canonical_strides dims =
  let n = Array.length dims in
  let s = Array.make n 0 in
  let acc = ref 1 in
  for i = n - 1 downto 0 do
    s.(i) <- !acc;
    acc := !acc * dims.(i)
  done;
  s

(* Positions per block: a block's running values stay in L1 while every
   stage of the chain passes over them. *)
let block = 256

(* One stage over the [n] running values in [v], with operand element i
   at [o.(oo + i)]. The function is matched once per block and each arm
   is a flat float loop with the naive constructor's expression: the
   arithmetic arms box nothing; GELU and sigmoid still call their
   [Elementwise] value helpers per element. *)
let apply_block fn v n o oo =
  match fn with
  | Op.Add2 ->
      for i = 0 to n - 1 do
        Array.unsafe_set v i (Array.unsafe_get v i +. Array.unsafe_get o (oo + i))
      done
  | Op.Mul2 | Op.Dropout_gen _ ->
      for i = 0 to n - 1 do
        Array.unsafe_set v i (Array.unsafe_get v i *. Array.unsafe_get o (oo + i))
      done
  | Op.Relu -> Fmax.relu v ~off:0 ~len:n
  | Op.Gelu ->
      for i = 0 to n - 1 do
        Array.unsafe_set v i (Elementwise.gelu_value (Array.unsafe_get v i))
      done
  | Op.Sigmoid ->
      for i = 0 to n - 1 do
        Array.unsafe_set v i (Elementwise.sigmoid_value (Array.unsafe_get v i))
      done
  | Op.Tanh ->
      for i = 0 to n - 1 do
        Array.unsafe_set v i (tanh (Array.unsafe_get v i))
      done
  | Op.Copy -> ()
  | Op.Relu_grad ->
      for i = 0 to n - 1 do
        if not (Array.unsafe_get o (oo + i) > 0.0) then Array.unsafe_set v i 0.0
      done
  | Op.Gelu_grad ->
      for i = 0 to n - 1 do
        Array.unsafe_set v i
          (Array.unsafe_get v i
          *. Elementwise.gelu_grad (Array.unsafe_get o (oo + i)))
      done
  | Op.Sigmoid_grad ->
      for i = 0 to n - 1 do
        let ov = Array.unsafe_get o (oo + i) in
        Array.unsafe_set v i (Array.unsafe_get v i *. ov *. (1.0 -. ov))
      done
  | Op.Tanh_grad ->
      for i = 0 to n - 1 do
        let ov = Array.unsafe_get o (oo + i) in
        Array.unsafe_set v i (Array.unsafe_get v i *. (1.0 -. (ov *. ov)))
      done

(* Run a chain as one pass over the data, a block at a time. Sound when
   every stage's dims agree with the chain input's axes (checked);
   operand layouts are free (strided operands are gathered per block). *)
let run_chain env (stages : chain_stage list) =
  let first = List.hd stages in
  let x0 = Op.lookup env first.cs_sem.Op.e_x in
  let ax = Dense.layout x0 in
  let dims = dims_of x0 in
  let total = Array.fold_left ( * ) 1 dims in
  let canon = canonical_strides dims in
  let compatible (st : chain_stage) =
    let d = st.cs_sem.Op.e_dims in
    Axis.equal_sets (List.map fst d) ax
    && List.fold_left (fun acc (_, v) -> acc * v) 1 d = total
  in
  if not (List.for_all compatible stages) then
    List.iter (fun st -> st.cs_op.Op.run env) stages
  else begin
    let mk_stage (st : chain_stage) =
      let sem = st.cs_sem in
      let opnd =
        match sem.Op.e_fn with
        | Op.Dropout_gen { p; seed; key } ->
            let m = Elementwise.dropout_mask ~seed ~name:key sem.Op.e_dims ~p in
            (match sem.Op.e_mask with
            | Some mc -> Op.store env mc m
            | None -> ());
            Some m
        | _ -> Option.map (Op.lookup env) sem.Op.e_operand
      in
      let rt_opnd, rt_strides =
        match opnd with
        | None -> (no_arr, [||])
        | Some o ->
            let str = Dense.strides_for o ax in
            if str = canon then (Dense.unsafe_data o, [||])
            else (Dense.unsafe_data o, str)
      in
      let rt_out =
        if st.cs_store then begin
          let shape = Shape.to_list (Dense.shape x0) in
          let out =
            match st.cs_into with
            | Some buf when Array.length buf = total -> Dense.of_buffer shape buf
            | _ -> Dense.zeros shape
          in
          Op.store env sem.Op.e_out out;
          Dense.unsafe_data out
        end
        else no_arr
      in
      { rt_fn = sem.Op.e_fn; rt_opnd; rt_strides; rt_track = -1; rt_out }
    in
    let rts = Array.of_list (List.map mk_stage stages) in
    let ns = Array.length rts in
    let nt = ref 0 in
    Array.iter
      (fun (st : rt_stage) ->
        if Array.length st.rt_strides > 0 then begin
          st.rt_track <- !nt;
          incr nt
        end)
      rts;
    let nt = !nt in
    let tracked = Array.make nt no_arr and tstrides = Array.make nt [||] in
    Array.iter
      (fun (st : rt_stage) ->
        if st.rt_track >= 0 then begin
          tracked.(st.rt_track) <- st.rt_opnd;
          tstrides.(st.rt_track) <- st.rt_strides
        end)
      rts;
    let xd = Dense.unsafe_data x0 in
    let n = Array.length dims in
    let inner = if n = 0 then 1 else dims.(n - 1) in
    (* One disjoint position range [lo, hi): the multi-index and every
       tracked operand offset are derived from [lo], so any partition of
       [0, total) writes exactly what the serial walk writes — each
       position's chain value depends on that position alone. Scratch
       holds the block's values, then one gathered block per strided
       operand. *)
    let run_range lo hi =
      Arena.with_scratch Arena.global ((1 + nt) * block) (fun buf ->
          let idx = Array.make (Stdlib.max n 1) 0 in
          let rem = ref lo in
          for d = n - 1 downto 0 do
            idx.(d) <- !rem mod dims.(d);
            rem := !rem / dims.(d)
          done;
          let offs = Array.make (Stdlib.max nt 1) 0 in
          for s = 0 to nt - 1 do
            for d = 0 to n - 1 do
              offs.(s) <- offs.(s) + (idx.(d) * tstrides.(s).(d))
            done
          done;
          (* Gather the next [len] elements of every strided operand,
             a run along the innermost axis at a time. *)
          let gather len =
            let i = ref 0 in
            while !i < len do
              let run = min (len - !i) (inner - idx.(n - 1)) in
              for s = 0 to nt - 1 do
                let src = tracked.(s) and st = tstrides.(s).(n - 1) in
                let dst = (1 + s) * block in
                let o = offs.(s) in
                for e = 0 to run - 1 do
                  Array.unsafe_set buf (dst + !i + e)
                    (Array.unsafe_get src (o + (e * st)))
                done;
                offs.(s) <- o + (run * st)
              done;
              idx.(n - 1) <- idx.(n - 1) + run;
              i := !i + run;
              (* carry into the outer axes *)
              let d = ref (n - 1) in
              while !d >= 0 && idx.(!d) = dims.(!d) do
                let dv = !d in
                idx.(dv) <- 0;
                for s = 0 to nt - 1 do
                  offs.(s) <- offs.(s) - (tstrides.(s).(dv) * dims.(dv))
                done;
                if dv > 0 then begin
                  idx.(dv - 1) <- idx.(dv - 1) + 1;
                  for s = 0 to nt - 1 do
                    offs.(s) <- offs.(s) + tstrides.(s).(dv - 1)
                  done
                end;
                d := dv - 1
              done
            done
          in
          let pos = ref lo in
          while !pos < hi do
            let p0 = !pos in
            let len = min block (hi - p0) in
            if nt > 0 then gather len;
            Array.blit xd p0 buf 0 len;
            for s = 0 to ns - 1 do
              let st = Array.unsafe_get rts s in
              if st.rt_opnd == no_arr then apply_block st.rt_fn buf len no_arr 0
              else if st.rt_track < 0 then
                apply_block st.rt_fn buf len st.rt_opnd p0
              else apply_block st.rt_fn buf len buf ((1 + st.rt_track) * block);
              if st.rt_out != no_arr then Array.blit buf 0 st.rt_out p0 len
            done;
            pos := p0 + len
          done)
    in
    if total >= par_min_work && Pool.num_domains () > 1 then
      Pool.parallel_for ~label:"fastpath.map" ~start:0 ~finish:total run_range
    else if total > 0 then run_range 0 total
  end

let run_elt ?into env op sem =
  run_chain env [ { cs_op = op; cs_sem = sem; cs_store = true; cs_into = into } ]

(* ------------------------------------------------------------------ *)
(* Group compilation                                                   *)
(* ------------------------------------------------------------------ *)

let compile_group ~external_writes (members : Op.t list) =
  let sems =
    (* contraction sems are structural descriptors for the attention
       prefuser, not interpretable steps: a group containing one falls
       back to sequential replay like any un-described member *)
    List.map
      (fun (m : Op.t) ->
        match m.Op.sem with
        | Some (Op.Contract _) | None -> None
        | Some s -> Some (m, s))
      members
  in
  if List.exists Option.is_none sems then None
  else begin
    let tagged =
      List.mapi (fun i s -> (i, Option.get s)) sems
    in
    let marr = Array.of_list members in
    let nmem = Array.length marr in
    (* [chained_into.(j)] is the container member [j] consumes as its chain
       input, when members [j-1] and [j] link up element-wise. *)
    let chained_into = Array.make nmem None in
    List.iter
      (fun (i, (_, s)) ->
        if i + 1 < nmem then
          match (s, marr.(i + 1).Op.sem) with
          | Op.Elt a, Some (Op.Elt b)
            when String.equal b.Op.e_x a.Op.e_out
                 && Axis.equal_sets
                      (List.map fst a.Op.e_dims)
                      (List.map fst b.Op.e_dims) ->
              chained_into.(i + 1) <- Some a.Op.e_out
          | _ -> ())
      tagged;
    let alive i c =
      List.mem c external_writes
      || begin
           let rec scan j =
             if j >= nmem then false
             else begin
               let reads_it = List.mem c marr.(j).Op.reads in
               let via_chain =
                 j = i + 1
                 && chained_into.(j) = Some c
                 && (match marr.(j).Op.sem with
                    | Some (Op.Elt b) -> b.Op.e_operand <> Some c
                    | _ -> true)
               in
               if reads_it && not via_chain then true else scan (j + 1)
             end
           in
           scan (i + 1)
         end
    in
    let steps =
      List.fold_left
        (fun acc (i, ((m : Op.t), s)) ->
          match s with
          | Op.Contract _ -> assert false (* filtered out above *)
          | Op.Red r -> Red (m, r) :: acc
          | Op.Elt e ->
              let stage =
                {
                  cs_op = m;
                  cs_sem = e;
                  cs_store = alive i e.Op.e_out;
                  cs_into = None;
                }
              in
              begin
                match acc with
                | Chain cs :: rest when chained_into.(i) <> None ->
                    Chain (cs @ [ stage ]) :: rest
                | _ -> Chain [ stage ] :: acc
              end)
        [] tagged
      |> List.rev
    in
    Some
      (fun env ->
        List.iter
          (function
            | Chain stages -> run_chain env stages
            | Red (op, r) -> run_red env op r)
          steps)
  end
