(* Streaming tiled attention vs the naive oracle chain.

   The oracle is the exact op sequence the kernel replaces:
   qkt einsum -> softmax(prescale, +mask) -> dropout mask multiply ->
   gamma einsum, built from the same value helpers the ops run. Exact
   mode (one KV tile) must match it bitwise; online mode (streamed KV
   tiles) within a few ulps per element. *)

let q = QCheck_alcotest.to_alcotest
let check_bool = Alcotest.(check bool)

module N = Ops.Normalization
module E = Ops.Elementwise

let dims_beta ~nh ~nb ~nj ~nk = [ ("h", nh); ("b", nb); ("j", nj); ("k", nk) ]

(* The naive chain at value level. [valid.(b)] limits slot b to its first
   valid keys via a 0/-inf pad mask, exactly as Mha.attend builds it. *)
let oracle ?(causal = false) ?valid ?dropmask ~prescale ~qt ~kt ~vt ~nj ~nk
    () =
  let beta = Einsum.eval "phbk,phbj->hbjk" [ kt; qt ] in
  (* masks land after the prescale, exactly where softmax_masked adds them *)
  let masks =
    (if causal then [ N.causal_mask ~q:"j" ~k:"k" [ ("j", nj); ("k", nk) ] ]
     else [])
    @
    match valid with
    | None -> []
    | Some a ->
        [
          Dense.init [ ("b", Array.length a); ("k", nk) ] (fun idx ->
              if List.assoc "k" idx < a.(List.assoc "b" idx) then 0.0
              else neg_infinity);
        ]
  in
  let alpha_sm =
    match masks with
    | [] -> N.softmax_masked beta ~axis:"k" ~prescale
    | ms ->
        let xs = List.fold_left Dense.add_bcast (Dense.scale prescale beta) ms in
        N.softmax_masked xs ~axis:"k" ~prescale:1.0
  in
  let alpha =
    match dropmask with
    | None -> alpha_sm
    | Some m -> Dense.mul alpha_sm m
  in
  (alpha_sm, alpha, Einsum.eval "whbk,hbjk->whbj" [ vt; alpha ])

(* softmax_dx_value, inlined (it is not exported). *)
let softmax_dx ~dy ~y ~prescale =
  let inner = Dense.sum_over (Dense.mul dy y) [ "k" ] in
  let centered = Dense.add_bcast dy (Dense.scale (-1.0) inner) in
  Dense.scale prescale (Dense.mul y centered)

let oracle_grads ?dropmask ~prescale ~qt ~kt ~vt ~alpha_sm ~alpha ~d_out () =
  let d_alpha = Einsum.eval "whbk,whbj->hbjk" [ vt; d_out ] in
  let d_alpha_sm =
    match dropmask with None -> d_alpha | Some m -> Dense.mul d_alpha m
  in
  let d_beta = softmax_dx ~dy:d_alpha_sm ~y:alpha_sm ~prescale in
  let dq = Einsum.eval "phbk,hbjk->phbj" [ kt; d_beta ] in
  let dk = Einsum.eval "phbj,hbjk->phbk" [ qt; d_beta ] in
  let dv = Einsum.eval "hbjk,whbj->whbk" [ alpha; d_out ] in
  (dq, dk, dv)

let bitwise a b =
  Dense.volume a = Dense.volume b
  && Array.for_all2 Float.equal (Dense.unsafe_data a) (Dense.unsafe_data b)

(* random tensors in a layout-shuffled storage order *)
let shuffled_rand prng dims =
  let arr = Array.of_list dims in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Prng.int prng ~bound:(i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Dense.rand prng (Array.to_list arr) ~lo:(-1.0) ~hi:1.0

let make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk =
  ( shuffled_rand prng [ ("p", np); ("h", nh); ("b", nb); ("j", nj) ],
    shuffled_rand prng [ ("p", np); ("h", nh); ("b", nb); ("k", nk) ],
    shuffled_rand prng [ ("w", nw); ("h", nh); ("b", nb); ("k", nk) ] )

(* ---------------- forward vs oracle ---------------- *)

let prop_exact_bitwise =
  QCheck.Test.make
    ~name:"exact mode (kv_tile >= L) equals naive chain bitwise, any layout"
    ~count:40
    QCheck.(
      quad (int_range 1 6) (int_range 1 9) (int_range 1 4) (int_range 1 3))
    (fun (np, nj, nh, nb) ->
      let nk = ((nj * 7) mod 11) + 1 and nw = ((np * 5) mod 7) + 1 in
      let prng =
        Prng.create (Int64.of_int ((np * 131071) + (nj * 257) + (nh * 17) + nb))
      in
      let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
      let prescale = 1.0 /. sqrt (float_of_int np) in
      let _, _, want = oracle ~prescale ~qt ~kt ~vt ~nj ~nk () in
      let got, _ =
        Flashattn.forward ~q_tile:3 ~kv_tile:nk ~stats:false ~prescale ~q:qt
          ~k:kt ~v:vt ()
      in
      bitwise want got)

let prop_online_close =
  QCheck.Test.make
    ~name:"online mode (streamed KV tiles) within ulps of the oracle"
    ~count:40
    QCheck.(
      quad (int_range 1 6) (int_range 8 40) (int_range 1 3) (int_range 1 3))
    (fun (np, nj, nh, nb) ->
      let nk = nj + (np mod 5) and nw = np in
      let prng =
        Prng.create (Int64.of_int ((np * 8191) + (nj * 101) + (nh * 13) + nb))
      in
      let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
      let prescale = 1.0 /. sqrt (float_of_int np) in
      let _, _, want = oracle ~prescale ~qt ~kt ~vt ~nj ~nk () in
      let got, _ =
        Flashattn.forward ~q_tile:4 ~kv_tile:5 ~stats:false ~prescale ~q:qt
          ~k:kt ~v:vt ()
      in
      Dense.approx_equal ~rtol:1e-13 ~atol:1e-15 want got)

let test_causal_and_skipping () =
  let np = 8 and nw = 8 and nh = 2 and nb = 2 and nj = 64 in
  let nk = nj in
  let prng = Prng.create 42L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let prescale = 1.0 /. sqrt 8.0 in
  let _, _, want = oracle ~causal:true ~prescale ~qt ~kt ~vt ~nj ~nk () in
  (* exact mode: bitwise even under the causal mask *)
  let got, _ =
    Flashattn.forward ~kv_tile:nk ~causal:true ~stats:false ~prescale ~q:qt
      ~k:kt ~v:vt ()
  in
  check_bool "causal exact bitwise" true (bitwise want got);
  (* online mode: tiles above the diagonal must be skipped untouched *)
  Flashattn.reset_counters ();
  let got2, _ =
    Flashattn.forward ~q_tile:8 ~kv_tile:8 ~causal:true ~stats:false ~prescale
      ~q:qt ~k:kt ~v:vt ()
  in
  let c = Flashattn.counters () in
  check_bool "causal online close" true
    (Dense.approx_equal ~rtol:1e-13 ~atol:1e-15 want got2);
  check_bool "masked tiles skipped" true (c.tiles_skipped > 0);
  (* per (h,b,q-tile): 8 q-tiles x 8 kv-tiles, about half above diagonal *)
  check_bool "visited + skipped = all tiles" true
    (c.tiles_visited + c.tiles_skipped = nh * nb * 8 * 8)

let test_ragged_valid () =
  let np = 4 and nw = 6 and nh = 2 and nb = 3 and nj = 1 and nk = 9 in
  let prng = Prng.create 7L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let valid = [| 3; 9; 5 |] in
  let prescale = 1.0 /. sqrt 4.0 in
  let _, _, want = oracle ~valid ~prescale ~qt ~kt ~vt ~nj ~nk () in
  let got, _ =
    Flashattn.forward ~kv_tile:nk ~valid ~stats:false ~prescale ~q:qt ~k:kt
      ~v:vt ()
  in
  check_bool "ragged valid bitwise" true (bitwise want got)

(* ---------------- dropout ---------------- *)

let test_dropout_bitwise () =
  let np = 8 and nw = 8 and nh = 2 and nb = 2 and nj = 12 and nk = 16 in
  let prng = Prng.create 99L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let prescale = 1.0 /. sqrt 8.0 in
  let p = 0.35 and seed = 1234L and key = "attn_dropout" in
  let dims = dims_beta ~nh ~nb ~nj ~nk in
  let dropmask = E.dropout_mask ~seed ~name:key dims ~p in
  let _, _, want = oracle ~dropmask ~prescale ~qt ~kt ~vt ~nj ~nk () in
  let dropout = { Flashattn.p; seed; key; dims } in
  let got, _ =
    Flashattn.forward ~kv_tile:nk ~dropout ~stats:false ~prescale ~q:qt ~k:kt
      ~v:vt ()
  in
  check_bool "dropout exact bitwise (counter-based = sequential walk)" true
    (bitwise want got);
  (* tiled draws must still agree with the sequential mask walk *)
  let got2, _ =
    Flashattn.forward ~q_tile:5 ~kv_tile:6 ~dropout ~stats:false ~prescale
      ~q:qt ~k:kt ~v:vt ()
  in
  check_bool "dropout online close" true
    (Dense.approx_equal ~rtol:1e-13 ~atol:1e-15 want got2)

(* ---------------- micro-kernel tails ---------------- *)

(* Shapes that leave every micro-kernel a remainder: odd feature counts
   (a lone last column / feature), L not a multiple of the 4-row block,
   causal rows outrunning the block's common key prefix, ragged slots and
   dropout on, with Q tiles that split row blocks. *)
let tail_cases =
  [ (5, 3, 23, 7); (5, 3, 30, 4); (3, 5, 9, 5); (1, 1, 6, 6); (7, 2, 17, 32) ]

let tail_inputs (np, nw, l, _) =
  let nh = 2 and nb = 3 in
  let prng = Prng.create (Int64.of_int ((np * 1009) + (nw * 31) + l)) in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj:l ~nk:l in
  let valid = [| l; max 1 (l - 3); max 1 ((l / 2) + 1) |] in
  let dims = dims_beta ~nh ~nb ~nj:l ~nk:l in
  let dropout = { Flashattn.p = 0.3; seed = 8L; key = "attn_dropout"; dims } in
  let d_out = shuffled_rand prng [ ("w", nw); ("h", nh); ("b", nb); ("j", l) ] in
  (qt, kt, vt, valid, dropout, d_out, prng)

let test_exact_tails () =
  List.iter
    (fun ((np, nw, l, q_tile) as case) ->
      let qt, kt, vt, valid, dropout, _, _ = tail_inputs case in
      let prescale = 1.0 /. sqrt (float_of_int np) in
      let dropmask =
        E.dropout_mask ~seed:dropout.Flashattn.seed ~name:dropout.key
          dropout.dims ~p:dropout.p
      in
      let _, _, want =
        oracle ~causal:true ~valid ~dropmask ~prescale ~qt ~kt ~vt ~nj:l ~nk:l
          ()
      in
      let got, _ =
        Flashattn.forward ~q_tile ~kv_tile:l ~causal:true ~valid ~dropout
          ~stats:false ~prescale ~q:qt ~k:kt ~v:vt ()
      in
      check_bool
        (Printf.sprintf "p=%d w=%d L=%d q_tile=%d: exact bitwise" np nw l q_tile)
        true (bitwise want got);
      let online, _ =
        Flashattn.forward ~q_tile ~kv_tile:5 ~causal:true ~valid ~dropout
          ~stats:false ~prescale ~q:qt ~k:kt ~v:vt ()
      in
      check_bool
        (Printf.sprintf "p=%d w=%d L=%d: online close" np nw l)
        true
        (Dense.approx_equal ~rtol:1e-13 ~atol:1e-15 want online))
    tail_cases

let test_backward_tails () =
  List.iter
    (fun ((np, nw, l, _) as case) ->
      let qt, kt, vt, valid, dropout, d_out, _ = tail_inputs case in
      let prescale = 1.0 /. sqrt (float_of_int np) in
      let dropmask =
        E.dropout_mask ~seed:dropout.Flashattn.seed ~name:dropout.key
          dropout.dims ~p:dropout.p
      in
      let alpha_sm, alpha, _ =
        oracle ~causal:true ~valid ~dropmask ~prescale ~qt ~kt ~vt ~nj:l ~nk:l
          ()
      in
      let wq, wk, wv =
        oracle_grads ~dropmask ~prescale ~qt ~kt ~vt ~alpha_sm ~alpha ~d_out ()
      in
      let run () =
        Flashattn.backward ~causal:true ~valid ~dropout ~prescale ~q:qt ~k:kt
          ~v:vt ~d_out ()
      in
      let q1, k1, v1 = Pool.with_domains 1 run in
      let q4, k4, v4 = Pool.with_domains 4 run in
      let name = Printf.sprintf "p=%d w=%d L=%d" np nw l in
      check_bool (name ^ ": dq serial == parallel") true (bitwise q1 q4);
      check_bool (name ^ ": dk serial == parallel") true (bitwise k1 k4);
      check_bool (name ^ ": dv serial == parallel") true (bitwise v1 v4);
      check_bool (name ^ ": grads close to the oracle") true
        (Dense.approx_equal ~rtol:1e-12 ~atol:1e-14 wq q1
        && Dense.approx_equal ~rtol:1e-12 ~atol:1e-14 wk k1
        && Dense.approx_equal ~rtol:1e-12 ~atol:1e-14 wv v1))
    tail_cases

(* ---------------- logsumexp stats ---------------- *)

let test_lse_roundtrip () =
  let np = 6 and nw = 6 and nh = 2 and nb = 2 and nj = 10 and nk = 14 in
  let prng = Prng.create 5L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let prescale = 1.0 /. sqrt 6.0 in
  let _, lse = Flashattn.forward ~kv_tile:nk ~prescale ~q:qt ~k:kt ~v:vt () in
  let lse = Option.get lse in
  (* the saved stat is exactly logsumexp of the prescaled scores *)
  let beta = Einsum.eval ~scale:prescale "phbk,phbj->hbjk" [ kt; qt ] in
  let mx = Dense.max_over beta [ "k" ] in
  let s =
    Dense.sum_over
      (Dense.map exp (Dense.add_bcast beta (Dense.scale (-1.0) mx)))
      [ "k" ]
  in
  let want = Dense.add mx (Dense.map log s) in
  check_bool "lse equals logsumexp of scores" true
    (Dense.approx_equal ~rtol:1e-13 ~atol:1e-15 want lse);
  (* backward with the saved stat == backward recomputing it, bitwise *)
  let d_out = Dense.rand prng [ ("w", nw); ("h", nh); ("b", nb); ("j", nj) ] ~lo:(-1.0) ~hi:1.0 in
  let dq1, dk1, dv1 =
    Flashattn.backward ~lse ~prescale ~q:qt ~k:kt ~v:vt ~d_out ()
  in
  let dq2, dk2, dv2 =
    Flashattn.backward ~prescale ~q:qt ~k:kt ~v:vt ~d_out ()
  in
  check_bool "saved lse == recomputed lse (dq)" true (bitwise dq1 dq2);
  check_bool "saved lse == recomputed lse (dk)" true (bitwise dk1 dk2);
  check_bool "saved lse == recomputed lse (dv)" true (bitwise dv1 dv2)

(* ---------------- backward vs oracle ---------------- *)

let prop_backward_close =
  QCheck.Test.make
    ~name:"backward (recomputed tiles) matches oracle grads within ulps"
    ~count:30
    QCheck.(
      quad (int_range 1 5) (int_range 2 12) (int_range 1 3) (int_range 1 2))
    (fun (np, nj, nh, nb) ->
      let nk = nj + 2 and nw = np + 1 in
      let prng =
        Prng.create (Int64.of_int ((np * 523) + (nj * 31) + (nh * 7) + nb))
      in
      let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
      let prescale = 1.0 /. sqrt (float_of_int np) in
      let d_out =
        shuffled_rand prng [ ("w", nw); ("h", nh); ("b", nb); ("j", nj) ]
      in
      let alpha_sm, alpha, _ = oracle ~prescale ~qt ~kt ~vt ~nj ~nk () in
      let wq, wk, wv =
        oracle_grads ~prescale ~qt ~kt ~vt ~alpha_sm ~alpha ~d_out ()
      in
      let gq, gk, gv =
        Flashattn.backward ~prescale ~q:qt ~k:kt ~v:vt ~d_out ()
      in
      Dense.approx_equal ~rtol:1e-12 ~atol:1e-14 wq gq
      && Dense.approx_equal ~rtol:1e-12 ~atol:1e-14 wk gk
      && Dense.approx_equal ~rtol:1e-12 ~atol:1e-14 wv gv)

let test_backward_causal_dropout () =
  let np = 8 and nw = 8 and nh = 2 and nb = 2 and nj = 24 in
  let nk = nj in
  let prng = Prng.create 11L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let prescale = 1.0 /. sqrt 8.0 in
  let p = 0.25 and seed = 77L and key = "attn_dropout" in
  let dims = dims_beta ~nh ~nb ~nj ~nk in
  let dropmask = E.dropout_mask ~seed ~name:key dims ~p in
  let d_out = Dense.rand prng [ ("w", nw); ("h", nh); ("b", nb); ("j", nj) ] ~lo:(-1.0) ~hi:1.0 in
  let alpha_sm, alpha, _ =
    oracle ~causal:true ~dropmask ~prescale ~qt ~kt ~vt ~nj ~nk ()
  in
  let wq, wk, wv =
    oracle_grads ~dropmask ~prescale ~qt ~kt ~vt ~alpha_sm ~alpha ~d_out ()
  in
  let dropout = { Flashattn.p; seed; key; dims } in
  let gq, gk, gv =
    Flashattn.backward ~causal:true ~dropout ~prescale ~q:qt ~k:kt ~v:vt
      ~d_out ()
  in
  check_bool "dq" true (Dense.approx_equal ~rtol:1e-12 ~atol:1e-14 wq gq);
  check_bool "dk" true (Dense.approx_equal ~rtol:1e-12 ~atol:1e-14 wk gk);
  check_bool "dv" true (Dense.approx_equal ~rtol:1e-12 ~atol:1e-14 wv gv)

(* ---------------- KV-cache incremental decode ---------------- *)

let test_incremental_equals_full () =
  let np = 8 and nw = 8 and nh = 2 and nb = 2 and nj = 12 in
  let nk = nj in
  let prng = Prng.create 23L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let prescale = 1.0 /. sqrt 8.0 in
  let full, _ =
    Flashattn.forward ~kv_tile:nk ~causal:true ~stats:false ~prescale ~q:qt
      ~k:kt ~v:vt ()
  in
  (* each decode step: one query column against its visible prefix,
     expressed through the ragged [valid] limit like the serving path *)
  for j = 0 to nj - 1 do
    let qstep =
      Dense.init [ ("p", np); ("h", nh); ("b", nb); ("j", 1) ] (fun idx ->
          Dense.get qt (("j", j) :: List.remove_assoc "j" idx))
    in
    let valid = Array.make nb (j + 1) in
    let step, _ =
      Flashattn.forward ~kv_tile:nk ~valid ~stats:false ~prescale ~q:qstep
        ~k:kt ~v:vt ()
    in
    for w = 0 to nw - 1 do
      for h = 0 to nh - 1 do
        for b = 0 to nb - 1 do
          let f =
            Dense.get full [ ("w", w); ("h", h); ("b", b); ("j", j) ]
          in
          let s =
            Dense.get step [ ("w", w); ("h", h); ("b", b); ("j", 0) ]
          in
          check_bool "incremental step == full-prefix row, bitwise" true
            (Float.equal f s)
        done
      done
    done
  done

(* ---------------- parallel determinism ---------------- *)

let test_parallel_determinism () =
  let np = 8 and nw = 8 and nh = 2 and nb = 2 and nj = 64 in
  let nk = nj in
  let prng = Prng.create 301L in
  let qt, kt, vt = make_qkv prng ~np ~nw ~nh ~nb ~nj ~nk in
  let prescale = 1.0 /. sqrt 8.0 in
  let d_out = Dense.rand prng [ ("w", nw); ("h", nh); ("b", nb); ("j", nj) ] ~lo:(-1.0) ~hi:1.0 in
  let run () =
    let out, lse =
      Flashattn.forward ~q_tile:8 ~kv_tile:16 ~causal:true ~prescale ~q:qt
        ~k:kt ~v:vt ()
    in
    let dq, dk, dv =
      Flashattn.backward ~causal:true ~prescale ~q:qt ~k:kt ~v:vt ~d_out ()
    in
    (out, Option.get lse, dq, dk, dv)
  in
  let o1, l1, q1, k1, v1 = Pool.with_domains 1 run in
  let o4, l4, q4, k4, v4 = Pool.with_domains 4 run in
  check_bool "out serial == parallel" true (bitwise o1 o4);
  check_bool "lse serial == parallel" true (bitwise l1 l4);
  check_bool "dq serial == parallel" true (bitwise q1 q4);
  check_bool "dk serial == parallel" true (bitwise k1 k4);
  check_bool "dv serial == parallel" true (bitwise v1 v4)

(* ---------------- graph-level fusion ---------------- *)

let nt = Transformer.Encoder.kernel_names

let test_attention_grouping () =
  let hp = Transformer.Hparams.tiny in
  let program = Transformer.Encoder.program hp in
  let names g = List.map (fun (x : Substation.Fusion.group) -> x.fused.Ops.Op.name) g in
  let with_attn =
    names (Substation.Fusion.groups ~name_table:nt ~attention:true program)
  in
  check_bool "ATTN window formed" true (List.mem "ATTN" with_attn);
  check_bool "ATTN_dx window formed" true (List.mem "ATTN_dx" with_attn);
  check_bool "default grouping unchanged" false
    (List.mem "ATTN"
       (names (Substation.Fusion.groups ~name_table:nt program)));
  (* the streaming window elides the L x L score containers *)
  let attn =
    List.find
      (fun (g : Substation.Fusion.group) ->
        String.equal g.fused.Ops.Op.name "ATTN")
      (Substation.Fusion.groups ~name_table:nt ~attention:true program)
  in
  Alcotest.(check (list string))
    "ATTN writes only the context" [ "gam" ] attn.fused.Ops.Op.writes

let run_encoder program hp =
  let prng = Prng.create 99L in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  Ops.Program.run program (("x", x) :: ("d_y", d_y) :: params)

let test_attention_fusion_semantics causal () =
  let hp = Transformer.Hparams.tiny in
  let program = Transformer.Encoder.program_with ~causal hp in
  let fused = Substation.Fusion.fuse ~name_table:nt ~attention:true program in
  let env1 = Fastmode.with_naive (fun () -> run_encoder program hp) in
  let env2 = Fastmode.with_mode true (fun () -> run_encoder fused hp) in
  let get env c = Ops.Op.lookup env c in
  (* forward runs in exact mode (kv_tile >= L): bitwise, through to y *)
  check_bool "gam bitwise" true (bitwise (get env1 "gam") (get env2 "gam"));
  check_bool "y bitwise" true (bitwise (get env1 "y") (get env2 "y"));
  (* the backward streaming kernel recomputes probabilities from the
     logsumexp stat: equal within ulps, not bitwise *)
  List.iter
    (fun c ->
      check_bool (c ^ " close") true
        (Dense.approx_equal ~rtol:1e-11 ~atol:1e-13 (get env1 c) (get env2 c)))
    [ "d_qqb"; "d_kkb"; "d_vvb"; "d_x"; "d_w1"; "d_wo" ];
  (* score-matrix containers were never materialized on the fast path *)
  check_bool "alpha elided" false (Hashtbl.mem env2 "alpha");
  check_bool "beta elided" false (Hashtbl.mem env2 "beta")

let () =
  Alcotest.run "flashattn"
    [
      ( "forward",
        [
          q prop_exact_bitwise;
          q prop_online_close;
          Alcotest.test_case "causal masking + tile skipping" `Quick
            test_causal_and_skipping;
          Alcotest.test_case "ragged valid lengths" `Quick test_ragged_valid;
        ] );
      ( "dropout",
        [ Alcotest.test_case "counter-based mask" `Quick test_dropout_bitwise ] );
      ( "tails",
        [
          Alcotest.test_case "exact forward == naive chain" `Quick
            test_exact_tails;
          Alcotest.test_case "backward serial == parallel" `Quick
            test_backward_tails;
        ] );
      ( "backward",
        [
          q prop_backward_close;
          Alcotest.test_case "lse stat round-trip" `Quick test_lse_roundtrip;
          Alcotest.test_case "causal + dropout grads" `Quick
            test_backward_causal_dropout;
        ] );
      ( "serving",
        [
          Alcotest.test_case "incremental decode == full prefix" `Quick
            test_incremental_equals_full;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "serial == parallel, fwd+bwd" `Quick
            test_parallel_determinism;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "attention windows recognized" `Quick
            test_attention_grouping;
          Alcotest.test_case "encoder: fused == naive" `Quick
            (test_attention_fusion_semantics false);
          Alcotest.test_case "decoder (causal): fused == naive" `Quick
            (test_attention_fusion_semantics true);
        ] );
    ]
