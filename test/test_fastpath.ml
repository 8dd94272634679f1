(* Tests for the fast CPU numeric backend: the blocked-GEMM kernel against
   a naive triple loop, the einsum fast path against the odometer oracle
   across randomized shapes and storage layouts, parse memoization, and the
   fused executor kernels (full encoder/decoder programs, fast vs naive,
   including the decoder's -inf causal masks and bitwise dropout masks). *)

let q = QCheck_alcotest.to_alcotest
let check_bool = Alcotest.(check bool)

let shuffle_list prng xs =
  (* Deterministic shuffle driven by the test PRNG. *)
  let arr = Array.of_list xs in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Prng.int prng ~bound:(i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

(* ---------------- GEMM kernel ---------------- *)

let prop_gemm_matches_triple_loop =
  QCheck.Test.make ~name:"blocked gemm equals naive triple loop bitwise"
    ~count:40
    QCheck.(triple (int_range 1 33) (int_range 1 33) (int_range 1 33))
    (fun (m, n, k) ->
      let prng = Prng.create (Int64.of_int ((m * 1681) + (n * 41) + k)) in
      let a = Dense.unsafe_data (Dense.rand prng [ ("m", m); ("k", k) ] ~lo:(-1.0) ~hi:1.0) in
      let b = Dense.unsafe_data (Dense.rand prng [ ("k", k); ("n", n) ] ~lo:(-1.0) ~hi:1.0) in
      let c = Array.make (m * n) 0.0 in
      Gemm.gemm ~m ~n ~k a b c;
      let r = Array.make (m * n) 0.0 in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          for l = 0 to k - 1 do
            r.((i * n) + j) <-
              r.((i * n) + j) +. (a.((i * k) + l) *. b.((l * n) + j))
          done
        done
      done;
      (* Identical accumulation order: exact equality, not a tolerance. *)
      Array.for_all2 (fun x y -> Float.equal x y) c r)

(* ---------------- einsum fast path vs oracle ---------------- *)

(* Batched matmul with every operand and the output in a random storage
   order, so the fast path must pack non-contiguous views. *)
let prop_einsum_matmul_layouts =
  QCheck.Test.make
    ~name:"matmul-shaped einsum: fast equals naive over random layouts"
    ~count:60
    QCheck.(
      quad (int_range 1 7) (int_range 1 7) (int_range 1 7) (int_range 1 5))
    (fun (m, n, k, b) ->
      let seed = Int64.of_int ((m * 10007) + (n * 101) + (k * 11) + b) in
      let prng = Prng.create seed in
      let a_t =
        Dense.rand prng [ ("b", b); ("m", m); ("k", k) ] ~lo:(-1.0) ~hi:1.0
      in
      let b_t =
        Dense.rand prng [ ("b", b); ("k", k); ("n", n) ] ~lo:(-1.0) ~hi:1.0
      in
      let a_t = Dense.permute a_t (shuffle_list prng (Dense.axes a_t)) in
      let b_t = Dense.permute b_t (shuffle_list prng (Dense.axes b_t)) in
      let out = shuffle_list prng [ "b"; "m"; "n" ] in
      let fast = Einsum.contract ~fast:true [ a_t; b_t ] ~out in
      let naive = Einsum.contract ~fast:false [ a_t; b_t ] ~out in
      Dense.max_abs_diff fast naive <= 1e-9)

(* A contraction the matmul classifier cannot take (three operands), plus
   scaling: exercises the cached general plan. *)
let prop_einsum_general_path =
  QCheck.Test.make ~name:"general einsum: fast plan equals naive" ~count:40
    QCheck.(triple (int_range 1 5) (int_range 1 5) (int_range 1 5))
    (fun (x, y, z) ->
      let prng = Prng.create (Int64.of_int ((x * 289) + (y * 17) + z)) in
      let a = Dense.rand prng [ ("a", x); ("b", y) ] ~lo:(-1.0) ~hi:1.0 in
      let b = Dense.rand prng [ ("b", y); ("c", z) ] ~lo:(-1.0) ~hi:1.0 in
      let c = Dense.rand prng [ ("c", z); ("d", x) ] ~lo:(-1.0) ~hi:1.0 in
      let fast =
        Einsum.contract ~scale:0.5 ~fast:true [ a; b; c ] ~out:[ "a"; "d" ]
      in
      let naive =
        Einsum.contract ~scale:0.5 ~fast:false [ a; b; c ] ~out:[ "a"; "d" ]
      in
      Dense.max_abs_diff fast naive <= 1e-9)

(* Vector-shaped corner cases: size-1 m/n/k groups, missing batch axes, and
   pure reductions must all classify (or fall back) correctly. *)
let test_einsum_corner_shapes () =
  let prng = Prng.create 5L in
  let check spec inputs out =
    let fast = Einsum.contract ~fast:true inputs ~out in
    let naive = Einsum.contract ~fast:false inputs ~out in
    check_bool spec true (Dense.max_abs_diff fast naive <= 1e-9)
  in
  let v = Dense.rand prng [ ("k", 9) ] ~lo:(-1.0) ~hi:1.0 in
  let w = Dense.rand prng [ ("k", 9) ] ~lo:(-1.0) ~hi:1.0 in
  check "dot" [ v; w ] [];
  let mt = Dense.rand prng [ ("m", 4); ("k", 9) ] ~lo:(-1.0) ~hi:1.0 in
  check "matvec" [ mt; w ] [ "m" ];
  check "outer" [ v; Dense.rand prng [ ("n", 3) ] ~lo:(-1.0) ~hi:1.0 ]
    [ "k"; "n" ];
  check "reduce all" [ mt ] [];
  check "transpose-ish" [ mt ] [ "k"; "m" ]

let test_parse_memoized () =
  let a = Einsum.parse "phi,ibj->phbj" in
  let b = Einsum.parse "phi,ibj->phbj" in
  check_bool "same spec string returns the memoized value" true (a == b)

(* ---------------- fused executor kernels ---------------- *)

(* The strongest oracle: the *unfused* program on the naive backend vs the
   *fused* program on the fast backend, compared container by container.
   Covers the GEMM einsum path, every fused chain and reduction kernel,
   and the deterministic dropout masks in one sweep. *)
let envs_agree ~name program name_table inputs =
  let fused = Substation.Fusion.fuse ~name_table program in
  let env_naive =
    Fastmode.with_naive (fun () -> Ops.Program.run program inputs)
  in
  let env_fast =
    Fastmode.with_mode true (fun () -> Ops.Program.run fused inputs)
  in
  Hashtbl.iter
    (fun container t_naive ->
      match Hashtbl.find_opt env_fast container with
      | None ->
          (* Fused dead intermediates are legitimately absent. *)
          ()
      | Some t_fast ->
          let d = Dense.max_abs_diff t_naive t_fast in
          if d > 1e-9 then
            Alcotest.failf "%s: container %s differs by %g" name container d)
    env_naive

let layer_inputs hp seed =
  let prng = Prng.create seed in
  let params = Transformer.Params.init hp in
  let x = Transformer.Params.random_input hp prng in
  let d_y = Transformer.Params.random_cotangent hp prng in
  ("x", x) :: ("d_y", d_y) :: params

let test_encoder_fast_vs_naive () =
  let hp = Transformer.Hparams.tiny in
  envs_agree ~name:"encoder" (Transformer.Encoder.program hp)
    Transformer.Encoder.kernel_names (layer_inputs hp 11L)

(* Decoder: GELU feed-forward and causal softmax, whose additive mask
   materializes -inf logits — the fast softmax must reproduce them. *)
let test_decoder_fast_vs_naive () =
  let hp = Transformer.Hparams.tiny in
  envs_agree ~name:"decoder" (Transformer.Decoder.program hp)
    Transformer.Decoder.kernel_names (layer_inputs hp 13L)

(* A wider, rectangular configuration (seq <> proj <> ff) so no two axis
   extents collide. *)
let test_encoder_rectangular () =
  let hp =
    { Transformer.Hparams.tiny with batch = 3; seq = 5; heads = 2; proj = 3 }
  in
  envs_agree ~name:"encoder rectangular" (Transformer.Encoder.program hp)
    Transformer.Encoder.kernel_names (layer_inputs hp 17L)

let test_dropout_masks_bitwise () =
  let hp = Transformer.Hparams.tiny in
  let program = Transformer.Encoder.program hp in
  let fused =
    Substation.Fusion.fuse ~name_table:Transformer.Encoder.kernel_names
      program
  in
  let inputs = layer_inputs hp 11L in
  let env_naive =
    Fastmode.with_naive (fun () -> Ops.Program.run program inputs)
  in
  let env_fast =
    Fastmode.with_mode true (fun () -> Ops.Program.run fused inputs)
  in
  let masks = ref 0 in
  Hashtbl.iter
    (fun container t_naive ->
      if
        container = "attn_mask"
        || (String.length container >= 4 && String.sub container 0 4 = "mask")
      then
        match Hashtbl.find_opt env_fast container with
        | None -> ()
        | Some t_fast ->
            incr masks;
            let t_fast = Dense.align t_fast t_naive in
            check_bool
              (Printf.sprintf "mask %s bitwise equal" container)
              true
              (Array.for_all2 Float.equal
                 (Dense.unsafe_data t_naive)
                 (Dense.unsafe_data t_fast)))
    env_naive;
  check_bool "at least one dropout mask compared" true (!masks > 0)

(* ---------------- element-wise chains ---------------- *)

module E = Ops.Elementwise

(* bias -> ReLU -> dropout -> residual add over [dims], the encoder's BRD
   interior plus one more operand. *)
let brd_chain dims ~bias_axes ~residual =
  [
    E.bias ~name:"b" ~x:"x" ~bias:"bv" ~out:"xb" dims ~bias_axes ();
    E.relu ~name:"r" ~x:"xb" ~out:"xr" dims ();
    E.dropout ~name:"d" ~x:"xr" ~out:"xd" ~mask:"mask" dims ~p:0.2 ~seed:9L ();
  ]
  @
  if residual then [ E.add ~name:"a" ~x:"xd" ~y:"res" ~out:"y" dims () ]
  else []

let run_group members ~external_writes env =
  match Ops.Fastpath.compile_group ~external_writes members with
  | Some run -> run env
  | None -> Alcotest.fail "chain did not compile"

(* Chains longer than one block, with the bias broadcast along a middle
   axis and the residual in a shuffled storage order, so strided operands
   are gathered across block and row boundaries: fast equals the naive
   constructors bitwise. *)
let prop_chain_layouts =
  QCheck.Test.make ~name:"element-wise chain: strided operands, fast = naive"
    ~count:25
    QCheck.(triple (int_range 1 5) (int_range 1 40) (int_range 1 70))
    (fun (i, b, j) ->
      let prng = Prng.create (Int64.of_int ((i * 7919) + (b * 97) + j)) in
      let dims = [ ("i", i); ("b", b); ("j", j) ] in
      let x = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
      let x = Dense.permute x (shuffle_list prng (Dense.axes x)) in
      let res = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
      let res = Dense.permute res (shuffle_list prng (Dense.axes res)) in
      let bv = Dense.rand prng [ ("b", b) ] ~lo:(-0.5) ~hi:0.5 in
      let members = brd_chain dims ~bias_axes:[ "b" ] ~residual:true in
      let outs = [ "xr"; "mask"; "y" ] in
      let run fast =
        let env = Ops.Op.env_of_list [ ("x", x); ("bv", bv); ("res", res) ] in
        Fastmode.with_mode fast (fun () ->
            if fast then run_group members ~external_writes:outs env
            else List.iter (fun (m : Ops.Op.t) -> m.Ops.Op.run env) members);
        List.map (Ops.Op.lookup env) outs
      in
      List.for_all2
        (fun a b ->
          let b = Dense.align b a in
          Array.for_all2
            (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
            (Dense.unsafe_data a) (Dense.unsafe_data b))
        (run false) (run true))

(* Minor-heap words per element of [f ()], measured on one domain after a
   warm-up call (so arena scratch is already pooled). *)
let words_per_element n f =
  Fastmode.with_domains 1 (fun () ->
      f ();
      let w0 = Gc.minor_words () in
      f ();
      (Gc.minor_words () -. w0) /. float_of_int n)

let test_dropout_mask_allocation () =
  let dims = [ ("h", 4); ("j", 128); ("k", 128) ] in
  let n = 4 * 128 * 128 in
  let w =
    words_per_element n (fun () ->
        ignore (E.dropout_mask ~seed:3L ~name:"attn_dropout" dims ~p:0.1))
  in
  check_bool (Printf.sprintf "dropout_mask: %.3f minor words/element < 1" w)
    true (w < 1.0)

let test_chain_allocation () =
  let dims = [ ("u", 256); ("b", 2); ("j", 64) ] in
  let n = 256 * 2 * 64 in
  let prng = Prng.create 4L in
  let x = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
  let bv = Dense.rand prng [ ("u", 256) ] ~lo:(-0.5) ~hi:0.5 in
  let members = brd_chain dims ~bias_axes:[ "u" ] ~residual:false in
  let env = Ops.Op.env_of_list [ ("x", x); ("bv", bv) ] in
  let w =
    words_per_element n (fun () ->
        Fastmode.with_mode true (fun () ->
            run_group members ~external_writes:[ "xd"; "mask" ] env))
  in
  check_bool
    (Printf.sprintf "bias -> relu -> dropout chain: %.3f minor words/element < 1" w)
    true (w < 1.0)

(* ---------------- standalone reduction kernels ---------------- *)

(* Softmax over a permuted-layout input with explicit -inf entries (an
   additive mask applied upstream), fast vs naive. *)
let prop_softmax_masked_layouts =
  QCheck.Test.make
    ~name:"softmax kernel: permuted layouts and -inf entries" ~count:40
    QCheck.(pair (int_range 2 6) (int_range 2 6))
    (fun (j, k) ->
      let prng = Prng.create (Int64.of_int ((j * 131) + k)) in
      let dims = [ ("h", 2); ("j", j); ("k", k) ] in
      let x = Dense.rand prng dims ~lo:(-2.0) ~hi:2.0 in
      (* Mask a strict minority of each row to -inf (never the whole row). *)
      let x =
        Dense.init dims (fun idx ->
            let kv = List.assoc "k" idx in
            if kv > 0 && (kv + List.assoc "j" idx) mod 3 = 0 then neg_infinity
            else Dense.get x idx)
      in
      let x = Dense.permute x (shuffle_list prng (Dense.axes x)) in
      let op =
        Ops.Normalization.softmax ~name:"sm" ~x:"x" ~out:"y" dims ~axis:"k"
          ~prescale:0.5 ()
      in
      let run fast =
        let env = Ops.Op.env_of_list [ ("x", x) ] in
        Fastmode.with_mode fast (fun () -> op.Ops.Op.run env);
        Ops.Op.lookup env "y"
      in
      Dense.max_abs_diff (run true) (run false) <= 1e-9)

let prop_layernorm_layouts =
  QCheck.Test.make ~name:"layernorm kernel family over permuted layouts"
    ~count:40
    QCheck.(pair (int_range 2 8) (int_range 2 6))
    (fun (i, b) ->
      let prng = Prng.create (Int64.of_int ((i * 257) + b)) in
      let dims = [ ("i", i); ("b", b); ("j", 3) ] in
      let x = Dense.rand prng dims ~lo:(-2.0) ~hi:2.0 in
      let x = Dense.permute x (shuffle_list prng (Dense.axes x)) in
      let gamma = Dense.rand prng [ ("i", i) ] ~lo:0.5 ~hi:1.5 in
      let beta = Dense.rand prng [ ("i", i) ] ~lo:(-0.5) ~hi:0.5 in
      let dy = Dense.rand prng dims ~lo:(-1.0) ~hi:1.0 in
      let dy = Dense.permute dy (shuffle_list prng (Dense.axes dy)) in
      let fwd =
        Ops.Normalization.layernorm ~name:"ln" ~x:"x" ~gamma:"g" ~beta:"be"
          ~out:"y" ~mean:"m" ~istd:"s" dims ~axis:"i" ~eps:1e-5 ()
      in
      let dx =
        Ops.Normalization.layernorm_dx ~name:"ln_dx" ~dy:"dy" ~x:"x" ~gamma:"g"
          ~mean:"m" ~istd:"s" ~out:"dx" dims ~axis:"i"
      in
      let dw =
        Ops.Normalization.layernorm_dw ~name:"ln_dw" ~dy:"dy" ~x:"x" ~mean:"m"
          ~istd:"s" ~dgamma:"dg" ~dbeta:"db" dims ~axis:"i"
      in
      let run fast =
        let env =
          Ops.Op.env_of_list
            [ ("x", x); ("g", gamma); ("be", beta); ("dy", dy) ]
        in
        Fastmode.with_mode fast (fun () ->
            fwd.Ops.Op.run env;
            dx.Ops.Op.run env;
            dw.Ops.Op.run env);
        List.map (Ops.Op.lookup env) [ "y"; "m"; "s"; "dx"; "dg"; "db" ]
      in
      List.for_all2
        (fun a b -> Dense.max_abs_diff a b <= 1e-9)
        (run true) (run false))

let () =
  Alcotest.run "fastpath"
    [
      ("gemm", [ q prop_gemm_matches_triple_loop ]);
      ( "einsum",
        [
          q prop_einsum_matmul_layouts;
          q prop_einsum_general_path;
          Alcotest.test_case "corner shapes" `Quick test_einsum_corner_shapes;
          Alcotest.test_case "parse memoized" `Quick test_parse_memoized;
        ] );
      ( "fused programs",
        [
          Alcotest.test_case "encoder fast=naive" `Quick
            test_encoder_fast_vs_naive;
          Alcotest.test_case "decoder fast=naive (causal -inf)" `Quick
            test_decoder_fast_vs_naive;
          Alcotest.test_case "rectangular encoder" `Quick
            test_encoder_rectangular;
          Alcotest.test_case "dropout masks bitwise" `Quick
            test_dropout_masks_bitwise;
        ] );
      ( "element-wise",
        [
          q prop_chain_layouts;
          Alcotest.test_case "dropout_mask allocation" `Quick
            test_dropout_mask_allocation;
          Alcotest.test_case "fused chain allocation" `Quick
            test_chain_allocation;
        ] );
      ( "reduction kernels",
        [ q prop_softmax_masked_layouts; q prop_layernorm_layouts ] );
    ]
