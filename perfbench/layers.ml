(* The traced run: a per-layer breakdown measured from outside the
   program, by timing calls into each layer's public functions.

   Every traced run measures every layer, each at the geometry of the
   workload its numbers explain (op classes and compile on the encoder,
   the training phases on the train model, decode and scheduling on the
   serving model, the recipe stages on BERT-large); the workload named on
   the command line selects its correctness gate and names the trace file;
   the training step measured here is gated in every traced run.
   Timings are reference-calibrated like the end-to-end ones: each span is
   scaled by the calibration factor of the measured call it belongs to.
   Flop and bytes are computed from op metadata and container volumes,
   not counted by hardware. *)

open Perfbench
module W = Workloads
module M = Transformer.Model
module Compiled = Compile.Compiled

type t = {
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable samples : (string * int) list;  (** samples behind each metric *)
  mutable shares : (string * Json.t) list;  (** the workload split *)
  sampler : Calib.t;
  spans : Spans.t;
}

(* [n]: the timed calls, requests or ticks behind the value (1 for a
   counter read once). *)
let put t ?(n = 1) name unit v =
  t.metrics <- (name, v, unit) :: t.metrics;
  t.samples <- (name, n) :: t.samples

(* Record whether the traced op-class split matches the workload's
   design: [share] of the step's self time against [at_least]. *)
let split t name ~share ~at_least =
  t.shares <-
    ( name,
      Json.Obj
        [
          ("share", Json.Num share);
          ("at_least", Json.Num at_least);
          ("holds", Json.Bool (share >= at_least));
        ] )
    :: t.shares

(* Calibrated ms of [k] calls of [f], median. *)
let median_ms t k f =
  Stats.median
    (List.init k (fun _ -> (snd (Calib.measure t.sampler f)).Calib.cal_ms))

(* Run [f] under a span and return its value plus the calibration factor
   (calibrated / raw) of the call. *)
let measured t ?(cat = "layer") ~tag name f =
  let v, s =
    Calib.measure t.sampler (fun () -> Spans.with_span t.spans ~cat ~tag name f)
  in
  (v, s.Calib.cal_ms /. s.Calib.raw_ms)

(* Durations (ms, calibrated) of the spans named [name] with [tag]. *)
let span_ms t ~tag ~factor name =
  List.fold_left
    (fun acc (s : Spans.span) ->
      if s.Spans.name = name && s.Spans.tag = tag then
        acc +. (Spans.duration s *. 1e3 *. factor)
      else acc)
    0.0 (Spans.spans t.spans)

(* ------------------------------------------------------------------ *)
(* compile + tensor + ops, on the encoder                              *)

type cls = Contraction | Attention | Normalization | Elementwise

let classes =
  [
    (Contraction, "tensor.contraction");
    (Attention, "tensor.attention");
    (Normalization, "ops.normalization");
    (Elementwise, "ops.elementwise");
  ]

let class_of (plan : Compiled.plan) =
  let attn =
    List.map (fun (s : Substation.Fusion.attn_site) -> s.site_op) plan.attn_sites
  in
  fun (op : Ops.Op.t) ->
    if List.mem op.name attn then Attention
    else
      match op.cls with
      | Sdfg.Opclass.Contraction -> Contraction
      | Normalization -> Normalization
      | Elementwise -> Elementwise

(* Bytes an op moves, computed: every container it reads or writes, once,
   at 8 bytes per element. *)
let op_bytes (p : Ops.Program.t) (op : Ops.Op.t) =
  List.sort_uniq compare (op.reads @ op.writes)
  |> List.fold_left
       (fun acc c ->
         acc
         + 8
           * List.fold_left (fun v (_, n) -> v * n) 1 (Ops.Program.container_dims p c))
       0

(* Self time per op class over [runs] traced executions of [plan] (each
   op a child span of the execute span), calibrated, median per class;
   plus the median traced execute time. *)
let class_ms t ~name plan inputs ~runs =
  let class_of = class_of plan in
  let per_run =
    List.init runs (fun i ->
        let tag = Printf.sprintf "%s step %d" name i in
        let wrap_op (op : Ops.Op.t) body =
          let cat = List.assoc (class_of op) classes in
          Spans.with_span t.spans ~cat ~tag op.name body
        in
        let _, factor =
          measured t ~cat:"compile" ~tag "compiled.execute" (fun () ->
              Compiled.execute ~wrap_op plan inputs)
        in
        let by_class = Hashtbl.create 4 in
        List.iter
          (fun ((s : Spans.span), self) ->
            if s.tag = tag && s.parent <> None then
              Hashtbl.replace by_class s.cat
                ((self *. 1e3 *. factor)
                +. Option.value ~default:0.0 (Hashtbl.find_opt by_class s.cat)))
          (Spans.self_times t.spans);
        (span_ms t ~tag ~factor "compiled.execute", by_class))
  in
  let ms cat =
    Stats.median
      (List.map
         (fun (_, h) -> Option.value ~default:0.0 (Hashtbl.find_opt h cat))
         per_run)
  in
  let table = List.map (fun (c, cat) -> (c, cat, ms cat)) classes in
  let all_ms = List.fold_left (fun a (_, _, m) -> a +. m) 0.0 table in
  (table, all_ms, Stats.median (List.map fst per_run))

let encoder_layers t ~seed =
  let hp = W.encoder_hp seed in
  put t ~n:5 "compile.cold_ms" "ms"
    (median_ms t 5 (fun () -> W.compile_encoder ~use_cache:false hp));
  let plan = W.compile_encoder hp in
  put t ~n:5 "compile.cache_hit_ms" "ms" (median_ms t 5 (fun () -> W.compile_encoder hp));
  let inputs = W.encoder_inputs hp in
  ignore (Compiled.execute plan inputs);
  let untraced = median_ms t 2 (fun () -> Compiled.execute plan inputs) in
  Flashattn.reset_counters ();
  Arena.reset_peak Arena.global;
  let runs = 2 in
  let table, all_ms, traced = class_ms t ~name:"encoder" plan inputs ~runs in
  put t ~n:runs "bench.trace_overhead" "ratio" (traced /. untraced);
  let class_of = class_of plan in
  let ops = plan.program.Ops.Program.ops in
  let total f = List.fold_left (fun a op -> a +. f op) 0.0 ops in
  let all_flop = total (fun op -> float_of_int op.Ops.Op.flop) in
  List.iter
    (fun (c, cat, ms) ->
      let mine f op = if class_of op = c then f op else 0.0 in
      let flop = total (mine (fun op -> float_of_int op.Ops.Op.flop)) in
      let bytes = total (mine (fun op -> float_of_int (op_bytes plan.program op))) in
      put t ~n:runs (cat ^ "_ms") "ms" ms;
      (match c with
      | Contraction | Attention ->
          put t ~n:runs (cat ^ "_gflops") "GF/s" (flop /. ms /. 1e6)
      | Normalization | Elementwise ->
          put t ~n:runs (cat ^ "_gbps") "GB/s" (bytes /. ms /. 1e6));
      put t (cat ^ "_flop_share") "ratio" (flop /. all_flop);
      put t ~n:runs (cat ^ "_time_share") "ratio" (ms /. all_ms))
    table;
  let memory_bound =
    List.fold_left (fun a (c, _, ms) -> if c = Contraction then a else a +. ms) 0.0 table
  in
  split t "encoder_attention_normalization_elementwise" ~share:(memory_bound /. all_ms)
    ~at_least:0.5;
  let fa = Flashattn.counters () in
  put t ~n:runs "tensor.attention_tiles_visited" "count"
    (float_of_int fa.tiles_visited /. float_of_int runs);
  put t ~n:runs "tensor.attention_tiles_skipped" "count"
    (float_of_int fa.tiles_skipped /. float_of_int runs);
  put t "tensor.arena_peak_floats" "floats"
    (float_of_int (Arena.stats Arena.global).peak_floats);
  (match plan.memplan with
  | Some mp ->
      let st = Ops.Memplan.stats mp in
      put t "ops.memplan_plan_peak_floats" "floats" (float_of_int st.plan_peak_floats);
      put t "ops.memplan_naive_peak_floats" "floats" (float_of_int st.naive_peak_floats);
      put t "ops.memplan_inplace" "count" (float_of_int st.inplace);
      put t "ops.memplan_aliased" "count" (float_of_int st.aliased)
  | None -> ());
  (plan, inputs)

(* ------------------------------------------------------------------ *)
(* transformer, on the train model                                     *)

let train_layers t ~seed =
  let hp = W.train_hp seed in
  let m = W.train_model hp in
  let batches = W.train_batches hp in
  let step (tokens, targets) =
    ignore (Transformer.Training.step m ~tokens ~targets ~lr:0.01)
  in
  step batches.(0);
  let runs0 = Compiled.pass_runs () in
  let steps = 3 in
  let phases =
    List.init steps (fun i ->
        let tag = Printf.sprintf "train step %d" i in
        let tokens, targets = batches.(i mod Array.length batches) in
        let span name f = Spans.with_span t.spans ~tag name f in
        let _, factor =
          measured t ~tag "train.step" (fun () ->
              let cache = span "transformer.forward" (fun () -> M.forward m ~tokens) in
              let _, d_logits =
                span "transformer.loss" (fun () ->
                    M.cross_entropy ~logits:cache.M.logits ~targets)
              in
              let grads =
                span "transformer.backward" (fun () -> M.backward m cache ~d_logits)
              in
              span "transformer.update" (fun () -> M.sgd_step m grads ~lr:0.01))
        in
        List.map
          (fun p -> (p, span_ms t ~tag ~factor ("transformer." ^ p)))
          [ "forward"; "loss"; "backward"; "update" ])
  in
  put t ~n:steps "compile.pass_runs_per_step" "count"
    (float_of_int (Compiled.pass_runs () - runs0) /. float_of_int steps);
  List.iter
    (fun p ->
      put t ~n:steps
        (Printf.sprintf "transformer.%s_ms" p)
        "ms"
        (Stats.median (List.map (List.assoc p) phases)))
    [ "forward"; "loss"; "backward"; "update" ];
  (* Two-domain speed-up, raw wall clock: a diagnostic only, since the
     parallel speed of a shared 2-vCPU host is not steady. *)
  let raw_median d =
    Fastmode.with_domains d (fun () ->
        step batches.(1);
        Stats.median
          (List.init 3 (fun i ->
               (snd (Calib.measure t.sampler (fun () -> step batches.(i)))).Calib.raw_ms)))
  in
  let serial = raw_median 1 in
  put t ~n:3 "pool.speedup_2d" "x" (serial /. raw_median 2);
  (* the training loop's layer program, op for op as Model runs it *)
  let plan =
    Compiled.compile (Compile.Regime.passthrough ()) (Transformer.Encoder.program hp)
  in
  let inputs = W.encoder_inputs hp in
  ignore (Compiled.execute plan inputs);
  let runs = 3 in
  let table, all_ms, _ = class_ms t ~name:"train layer" plan inputs ~runs in
  List.iter
    (fun (_, cat, ms) -> put t ~n:runs (cat ^ "_time_share_train") "ratio" (ms /. all_ms))
    table;
  let contraction =
    List.fold_left (fun a (c, _, ms) -> if c = Contraction then a +. ms else a) 0.0 table
  in
  split t "train_contraction" ~share:(contraction /. all_ms) ~at_least:0.8;
  (hp, batches)

(* ------------------------------------------------------------------ *)
(* transformer decode + serve, on the serving model                    *)

let decode_len = 16

let decode_layers t ~seed =
  let m = W.serve_model (W.serve_hp seed) in
  let prng = Prng.of_key (Int64.of_int seed) "perfbench.decode" in
  let pp0 = Einsum.prepack_stats () and cs0 = Einsum.cache_stats () in
  let runs = 5 in
  List.iter
    (fun b ->
      let ms =
        Stats.median
          (List.init runs (fun _ ->
               let sessions = Array.init b (fun _ -> M.new_session m) in
               let tokens () =
                 Array.init b (fun _ -> Prng.int prng ~bound:W.serve_vocab)
               in
               for _ = 2 to decode_len do
                 ignore (M.decode_batch m sessions ~tokens:(tokens ()))
               done;
               let tokens = tokens () in
               (snd
                  (Calib.measure t.sampler (fun () ->
                       Spans.with_span t.spans ~tag:(Printf.sprintf "b%d" b)
                         "transformer.decode_batch" (fun () ->
                           M.decode_batch m sessions ~tokens))))
                 .Calib.cal_ms))
      in
      put t ~n:runs (Printf.sprintf "transformer.decode_step_ms_b%d" b) "ms" ms)
    [ 1; 8 ];
  let pp1 = Einsum.prepack_stats () and cs1 = Einsum.cache_stats () in
  put t "tensor.prepack_hits" "count" (float_of_int (pp1.pp_hits - pp0.pp_hits));
  let hits = cs1.hits - cs0.hits and misses = cs1.misses - cs0.misses in
  put t "tensor.einsum_plan_hit_ratio" "ratio"
    (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  m

let serve_requests = 300

let serve_layers t ~seed m =
  let mt = W.meter t.sampler in
  let ticks = ref 0 in
  let around tick =
    W.around_tick mt (fun () ->
        incr ticks;
        Spans.with_span t.spans ~cat:"serve" ~tag:(Printf.sprintf "tick %d" !ticks)
          "serve.tick" tick)
  in
  let ph =
    W.serve_phase ~around_tick:(fun _ -> around) mt m
      (Serve.Loadgen.trace
         (W.serve_spec ~seed ~n:serve_requests
            (Serve.Loadgen.Poisson { rate = W.serve_rate })))
  in
  put t ~n:(List.length mt.ticks) "serve.tick_ms_p50" "ms"
    (Stats.median (List.map (fun (_, c) -> c *. 1e3) mt.ticks));
  let waits =
    Stats.sorted
      (List.map
         (fun (c : Serve.Scheduler.completion) ->
           (c.c_wait +. ph.replay.Replay.late.(c.c_id)) *. 1e3)
         (W.completions ph.sched))
  in
  let n = Array.length waits in
  put t ~n "serve.queue_wait_ms_p50" "ms" (Stats.percentile waits 50.0);
  put t ~n "serve.queue_wait_ms_p95" "ms" (Stats.percentile waits 95.0);
  let mx = Serve.Scheduler.metrics ph.sched in
  put t ~n:(List.length mt.ticks) "serve.batch_occupancy" "slots"
    (Serve.Metrics.mean_occupancy mx);
  put t ~n:ph.replay.Replay.submitted "serve.requests_failed" "count"
    (float_of_int (mx.Serve.Metrics.rejected + mx.Serve.Metrics.shed));
  ph

(* ------------------------------------------------------------------ *)
(* core (+ the gpu cost model it sweeps), on BERT-large                *)

let core_layers t =
  let program = W.recipe_program () in
  let name_table = Transformer.Encoder.kernel_names in
  let tag = "recipe" in
  let span name f = Spans.with_span t.spans ~cat:"core" ~tag name f in
  (* Recipe.optimize's order: fuse, sweep, select, movement accounting *)
  let (db, selection, reduction), factor =
    measured t ~tag "recipe.optimize" (fun () ->
        let fused =
          span "core.fuse" (fun () ->
              ignore (Substation.Fusion.groups ~name_table program);
              Substation.Fusion.fuse ~name_table program)
        in
        let db = span "core.sweep" (fun () -> Substation.Perfdb.build ~device:W.device fused) in
        let selection = span "core.select" (fun () -> Substation.Selector.select db) in
        let moved =
          span "core.movement" (fun () ->
              Substation.Fusion.movement_saved ~bytes_per_elem:2 program)
        in
        (db, selection, moved))
  in
  List.iter
    (fun p -> put t (Printf.sprintf "core.%s_ms" p) "ms" (span_ms t ~tag ~factor ("core." ^ p)))
    [ "fuse"; "sweep"; "select" ];
  put t "core.measurements" "count"
    (float_of_int (Substation.Perfdb.stats db).Substation.Perfdb.measurements);
  ignore reduction;
  (db, selection)

(* ------------------------------------------------------------------ *)

type result = {
  metrics : (string * float * string) list;
  attempted : int;
  failures : string list;
  refs : float list;
  diag : (string * Json.t) list;  (** sample counts and the workload split *)
  chrome : string;
}

let sweep ~workload ~seed =
  let t =
    {
      metrics = [];
      samples = [];
      shares = [];
      sampler = Calib.create ();
      spans = Spans.create ();
    }
  in
  Fastmode.with_domains 1 @@ fun () ->
  let plan, inputs = encoder_layers t ~seed in
  let train_hp, batches = train_layers t ~seed in
  let m = decode_layers t ~seed in
  let ph = serve_layers t ~seed m in
  let db, selection = core_layers t in
  let fallbacks, pool = W.health () in
  put t "tensor.guard_fallbacks" "count" (float_of_int fallbacks);
  put t "tensor.pool_failures" "count" (float_of_int pool);
  put t ~n:(List.length (Calib.refs t.sampler)) "bench.ref_ms" "ms"
    (Stats.median (Calib.refs t.sampler));
  (* the named workload's correctness gate, outside every timed call *)
  let attempted, failures =
    match workload with
    | "encoder" ->
        let n, bad = W.encoder_gate plan inputs in
        (n, W.encoder_failures n bad)
    | "serve" ->
        let wrong = W.oracle_failures ph m in
        (W.oracle_sample, W.serve_failures ph @ wrong)
    | _ ->
        ( 1,
          (if Substation.Perfdb.complete db then [] else [ "recipe: holes" ])
          @
          if selection.Substation.Selector.degradation.degraded_ops = [] then []
          else [ "recipe: selection degraded" ] )
  in
  let train_checks, train_bad = W.train_gate train_hp batches.(0) in
  {
    metrics = List.rev t.metrics;
    attempted = attempted + train_checks;
    failures =
      failures
      @ List.map (Printf.sprintf "train: %s differs from the naive step") train_bad
      @ W.health_failures ();
    refs = Calib.refs t.sampler;
    diag =
      [
        ("samples", Json.Obj (List.rev_map (fun (k, n) -> (k, Json.Int n)) t.samples));
        ("split", Json.Obj (List.rev t.shares));
      ];
    chrome = Spans.to_chrome_json t.spans;
  }
